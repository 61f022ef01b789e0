(** Log catch-up and crash recovery of one datacenter's log (§4.1,
    PROTOCOL.md §7).

    A service that is missing decided entries — behind after a
    partition, or recovering from a crash — fills each gap the same way:
    learn the entry through Paxos ({!Proposer.learn}), or, when it was
    compacted away everywhere, install a peer snapshot that covers it.

    Recovery also owns the quarantine set: positions whose durable
    acceptor or claim rows a crash damaged. It lives in a durable
    [recover/<group>] row, because the scrub that detects the damage
    also removes its evidence. *)

type t

val create :
  env:Proposer.env ->
  store:Mdds_kvstore.Store.t ->
  wal:Mdds_wal.Wal.t ->
  acceptors:Acceptor_store.t ->
  counters:Counters.t ->
  source:string ->
  t
(** [source] is the trace source of the owning service. *)

val ensure_applied : t -> group:string -> upto:int -> (unit, int) result
(** Apply the log through [upto], filling every gap on the way. At most
    three snapshot installs; [Error pos] names the first position that
    could be neither learned nor covered by a snapshot. *)

val fetch_snapshot : t -> group:string -> at_least:int -> bool
(** Install the first peer snapshot whose applied watermark reaches
    [at_least]; [false] if no peer answered with one. *)

val quarantined : t -> group:string -> pos:int -> bool
(** [true] while Paxos messages for the position must be refused. A
    quarantined position is re-entered (and the durable set updated)
    once its decided value is in the log or checkpointed past; asking
    tries one learn-or-snapshot, unless one is already running for the
    position. *)

val suspect : t -> group:string -> pos:int -> bool
(** The position is in the quarantine set: asking {!quarantined} may
    block on a learn. Never blocks itself. *)

val recover : t -> group:string -> unit
(** The restart-time crash scan of one group: {!Mdds_wal.Wal.recover},
    scrub the quarantine row and the acceptor rows
    ({!Acceptor_store.scrub}), and quarantine the damaged positions
    together with those carried over from earlier restarts. *)

val reset : t -> unit
(** Restart: drop the volatile quarantine view and running ladders (the
    durable set comes back through {!recover}). *)
