(** The Transaction Service of one datacenter (§4, Algorithm 1).

    One service runs per datacenter; it owns the datacenter's key-value
    store and write-ahead-log view, and handles every request kind of
    {!Messages}. Service processes are stateless in the paper's sense: all
    durable protocol state — the Paxos acceptor state per log position and
    the log itself — lives in the key-value store and is updated with
    [check_and_write] retry loops exactly as in Algorithm 1, so any number
    of concurrent request handlers are safe.

    Fault tolerance (§4.1): a read at a position this datacenter has not
    fully received runs the learner ({!Proposer.learn}) for each missing
    log entry before answering, which is also how a recovering datacenter
    catches up.

    This module dispatches requests and orchestrates restarts; the work
    is done by {!Acceptor_store}, {!Catchup}, {!Indoubt} and {!Manager},
    in that dependency order (DESIGN.md §3.1). *)

type t

val start :
  ?storage:Mdds_kvstore.Store.mode ->
  rpc:(Messages.request, Messages.response) Mdds_net.Rpc.t ->
  config:Config.t ->
  dc:int ->
  dcs:int list ->
  trace:Mdds_sim.Trace.t ->
  unit ->
  t
(** Create the datacenter's store/log and serve its requests over the
    RPC layer. [storage] selects the store's durability model
    (default [Sync_always], the pre-existing always-durable behaviour; the
    chaos engine uses [Sync_explicit] to exercise dirty and torn
    crashes). *)

val dc : t -> int
val store : t -> Mdds_kvstore.Store.t
val wal : t -> Mdds_wal.Wal.t

val counters : t -> Counters.t
(** The datacenter's telemetry, shared by every module of the service
    and by its clients; it survives {!restart}. *)

(** {2 Views over {!counters}}

    Read by the end-to-end benchmark. *)

val learns : t -> int
val snapshots : t -> int

type recovery_stats = { recoveries : int; scrubbed : int; relearned : int }

val recovery_stats : t -> recovery_stats

type throughput_stats = {
  batches : int;
  batched_txns : int;
  pipelined_rounds : int;
  pipeline_stalls : int;
}

val throughput_stats : t -> throughput_stats

type twopc_stats = {
  twopc_prepares : int;
  twopc_resolved : int;
  in_doubt_replies : int;
}

val twopc_stats : t -> twopc_stats

val arm_2pc_trap : t -> (unit -> unit) -> unit
(** Chaos hook: fire [f] (in a fresh fiber) the next time an entry
    containing a 2PC prepare marker crosses this service — on an Accept
    (possibly before the entry decides) or an Apply. One-shot; dropped by
    {!restart}. The nemesis uses it to aim crashes and partitions at the
    prepare→decide window ([mid-2pc] faults). *)

val compact : t -> group:string -> upto:int -> (unit, [ `Not_applied ]) result
(** Checkpoint: discard the applied log prefix 1..[upto] and its Paxos
    acceptor state. Refused if the prefix is not fully applied. Replicas
    that later need a discarded entry catch up via a peer snapshot
    ({!Mdds_wal.Wal.install_snapshot}). *)

val restart : t -> unit
(** Simulate a service-process restart: volatile state (leadership claims,
    the manager's fast-path streak, its Submit queues and in-flight
    window, and the decoded WAL/acceptor caches) is dropped; durable state — the log and the Paxos
    acceptor state in the key-value store — survives, so promises made
    before the restart are still honoured. The caches rebuild lazily from
    the durable rows. Submissions the manager held are answered at once:
    [No_quorum] if no accept carrying them can have gone out, else
    [In_doubt].

    Before serving again, the crash-consistency scan of PROTOCOL.md §7
    runs for every durable group: checksum-invalid (torn) versions are
    scrubbed, the WAL's watermarks and lazily-applied data are re-derived
    from the surviving log ({!Mdds_wal.Wal.recover}), and positions whose
    durable acceptor or claim rows were damaged are quarantined — Paxos
    messages for them are refused until the decided value is re-learned
    from peers (or checkpointed past), never re-voted from the reverted
    state. In [Sync_always] mode the scan finds nothing and the restart
    behaves exactly as before. *)

(** {1 Direct (in-process) access for tests and checkers} *)

val durable_groups : t -> string list
(** The groups with a row in the store (sorted): those {!restart} scans.
    Learned from the row-key layout [<kind>/<group>[/...]], taking each
    positional family's prefix for its rows. *)

val acceptor_state :
  t -> group:string -> pos:int ->
  Mdds_types.Txn.entry Mdds_paxos.Acceptor.state
(** The acceptor state currently persisted for a position (served from the
    write-through decoded cache; the durable row is the truth). *)

val cache_coherent : t -> group:string -> (unit, string) result
(** Cache-coherence oracle: the decoded WAL view ({!Mdds_wal.Wal.coherence})
    and the decoded acceptor-state cache both equal a fresh decode of the
    durable store, and the decoded view never claims an entry the durable
    store could not re-produce after a dirty crash
    ({!Mdds_wal.Wal.durable_coherent}). Mutates nothing; the chaos engine
    checks it after every fault event. *)

val handle : t -> src:int -> Messages.request -> Messages.response
(** Process a request synchronously, bypassing the network (used by unit
    tests; the RPC path calls this same function). May block on the
    simulator if it needs to learn missing entries. *)
