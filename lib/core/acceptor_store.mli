(** The acceptor side of Algorithm 1, kept in the key-value store.

    Every piece of Paxos acceptor state lives in durable rows — one
    row (nextBal and vote) in the family [paxos/<group>/] and one (the
    leadership-claim register) in the family [claim/<group>/] per log
    position — and is updated only through [check_and_write] retry
    loops, so any number of concurrent handlers are safe. The families
    are the store's positional ones ({!Mdds_kvstore.Store.family}): their
    rows are reached by position only and have no string key. A decoded
    write-through cache of the paxos rows serves repeat reads: one flat
    record per position ({!Mdds_kvstore.Slots}), holding nextBal and the
    decoded vote beside the row's raw [nb] and vote bytes, so the next
    conditional save tests the stored [nb] and a promise rewrites the
    vote bytes as they are. It is volatile (see {!reset}) and always
    rebuildable from the rows.

    The caller guards compacted and quarantined positions; everything
    here answers from the rows as they stand. *)

type t

val create :
  store:Mdds_kvstore.Store.t -> wal:Mdds_wal.Wal.t -> counters:Counters.t -> t
(** The acceptor rows of [store]; [wal] supplies the compaction point
    a sequenced accept's predecessor must lie above. *)

val prepare :
  t ->
  group:string ->
  pos:int ->
  ballot:Mdds_paxos.Ballot.t ->
  Messages.response
(** Algorithm 1, lines 5–14: promise (with the last vote) or reject with
    the current nextBal. The promise is synced before it is returned. *)

val accept :
  t ->
  group:string ->
  pos:int ->
  ballot:Mdds_paxos.Ballot.t ->
  entry:Mdds_types.Txn.entry ->
  vote:string ->
  sequenced:Mdds_types.Txn.entry option ->
  Messages.response
(** Algorithm 1, lines 15–22. A [sequenced] (pipelined round-0) accept
    is granted only if this acceptor's vote at [pos - 1] is that very
    ballot for that very entry (DESIGN.md §14). [vote] is
    [Some (ballot, entry)] under {!vote_codec}, as {!Messages.accept}
    built it; a granted accept stores and caches these bytes verbatim. *)

val vote_codec :
  (Mdds_paxos.Ballot.t * Mdds_types.Txn.entry) option Mdds_codec.Codec.t
(** The encoding of the vote attribute of a paxos row. *)

val claim : t -> group:string -> pos:int -> claimant:string -> Messages.response
(** The durable first-wins leadership register (§4.1): [first] for
    exactly one claimant, ever. A replay by the owner is answered from
    the register and counted as {!Counters.Dup_claims}. *)

val state :
  t -> group:string -> pos:int -> Mdds_types.Txn.entry Mdds_paxos.Acceptor.state
(** The acceptor state persisted for a position (served from the cache). *)

val prune : t -> group:string -> upto:int -> unit
(** Compaction: delete the paxos and claim rows of positions 1..[upto]
    and their cache entries. Only the span above the group's pruned
    watermark is visited: the highest [upto] pruned since the last
    {!reset}, so a restart starts again from position 1 (and reclaims
    rows a snapshot install left below the compaction point). Does not
    sync. *)

val scrub : t -> group:string -> int * int list
(** Crash recovery: drop checksum-invalid versions from the group's
    paxos and claim rows. Returns the versions dropped and the damaged
    positions (ascending). *)

val coherent : t -> group:string -> (unit, string) result
(** Every cached entry equals a fresh decode of its row. Mutates nothing. *)

val reset : t -> unit
(** Restart: drop the decoded cache and the pruned watermarks. *)
