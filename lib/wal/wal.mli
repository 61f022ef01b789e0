(** Per-datacenter write-ahead log, stored in the key-value store.

    Every transaction group has its own log (§3.2): a sequence of positions
    numbered from 1, each holding the committed transaction(s) decided by
    the Paxos instance for that position. The log and its metadata live in
    ordinary key-value rows, so the transaction tier keeps no private
    durable state.

    Log entries are written at commit time; the data writes they contain
    are applied to versioned data rows later — by {!apply} — with the log
    position as the version timestamp (§3.2: "the commit log position
    serves as the timestamp"). [applied_position] tracks the background
    application watermark.

    Row layout (one store, many groups):
    - position [pos] of the family ["log/<group>/"]
      ({!Mdds_kvstore.Store.family}): attribute ["entry"] = encoded
      {!Mdds_types.Txn.entry};
    - named row ["logmeta/<group>"]: attributes ["last"], ["applied"],
      ["compacted"];
    - named rows ["data/<group>/<key>"]: attribute ["v"], versioned by log
      position.

    A log row is reached by position only: it has no string key, and a
    named row whose key spells ["log/<group>/<pos>"] is a different row.

    {b Decoded view vs durable truth.} The encoded rows are the sole source
    of truth; on top of them the WAL keeps a volatile, write-through decoded
    view per group — log entries decoded once and cached by position (in
    {!Mdds_kvstore.Slots}: one word per position, no table bucket), the
    [last]/[applied]/[compacted] watermarks as plain ints, a
    contiguous-prefix watermark that lets gap scans skip the known-present
    prefix, an index from transaction id to the cached positions holding
    it (so {!logged_at} never scans the log; built from the cached entries
    on a group's first {!logged_at}, which only a leader calls, and kept
    write-through from then on), and an index of the group's
    data rows (store row handles) so snapshots and stale-read checks never
    scan the full store key set.
    Every mutation writes the store first, so the view always equals a
    fresh decode of the store; {!coherence} checks that invariant and the
    chaos engine asserts it after every fault event. {!invalidate} models a
    process restart: the view is dropped and rebuilt lazily from the
    store. *)

type t

val create : Mdds_kvstore.Store.t -> t
val store : t -> Mdds_kvstore.Store.t

val invalidate : t -> unit
(** Drop the decoded view (all groups): what a service-process restart does
    to volatile memory. The next access rebuilds it from the durable rows.
    Must also be called if the underlying store is mutated behind the WAL's
    back (tests forging corruption do this; the protocol never does). *)

(** {1 The log} *)

val append :
  t -> group:string -> pos:int -> ?encoded:string -> Mdds_types.Txn.entry -> unit
(** Record the decided entry for a position. Idempotent for equal entries.
    [encoded], when given, must be the entry under
    {!Mdds_types.Txn.entry_codec}: it becomes the log row verbatim
    (replicas applying a decided entry reuse its accept-round bytes).
    Raises [Failure] if a *different* entry is already present — that would
    be a violation of replication property (R1) and indicates a protocol
    bug, so it must not be silently absorbed. *)

val entry : t -> group:string -> pos:int -> Mdds_types.Txn.entry option

val last_position : t -> group:string -> int
(** Highest position with a locally known entry (0 if none). This is the
    "position of the last written log entry" a client's [begin] asks for. *)

val first_gap : t -> group:string -> upto:int -> int option
(** Lowest position in [1..upto] with no local entry. *)

val logged_at :
  t -> group:string -> txn_id:string -> from:int -> upto:int -> int option
(** Lowest position in [max from (compacted+1) .. upto] whose entry holds
    [txn_id] — the replay detection behind (L2): a transaction occupies at
    most one log position. Answered from the decoded view's transaction id
    index; only positions above the contiguous watermark that are not
    cached yet are probed in the store. *)

(** {1 Applying entries to data rows} *)

val applied_position : t -> group:string -> int

val apply : t -> group:string -> upto:int -> (unit, [ `Gap of int ]) result
(** Apply all entries from the watermark up to [upto] to the data rows, in
    log order (writes within an entry in record order, so later records of
    a combined entry win). Stops at the first missing entry, returning its
    position; the caller (Transaction Service) must learn it via Paxos. *)

val apply_available : t -> group:string -> int
(** Apply every entry the contiguous prefix allows (up to
    {!last_position}) and return the resulting applied watermark. Unlike
    the Transaction Service's catch-up, a gap is tolerated silently — the
    throughput-mode batcher uses this between pipelined proposals, where a
    gap is one of its own still-in-flight positions and must not be
    "learned". *)

val read_data : t -> group:string -> key:string -> at:int -> string option
(** Value of [key] as of log position [at] — the most recent applied write
    with position ≤ [at]. Requires the log to be applied through [at] to be
    meaningful; the Transaction Service guarantees that before reading. *)

val data_version : t -> group:string -> key:string -> at:int -> int option
(** Position of the write that {!read_data} would return (test oracle). *)

(** {1 Compaction and snapshots}

    Once a prefix of the log has been applied to the data rows, the rows
    themselves are the checkpoint: the prefix can be discarded
    (Megastore-style checkpointing). A replica that fell behind a
    compaction point can no longer learn those entries through Paxos — it
    installs a snapshot of the data rows instead and resumes the log from
    the snapshot's position. *)

val compacted_position : t -> group:string -> int
(** Highest discarded log position (0 = nothing compacted). *)

val compact : t -> group:string -> upto:int -> (unit, [ `Not_applied ]) result
(** Discard log entries 1..[upto]. Refused unless the prefix has been
    applied — compaction must never lose unapplied writes. *)

val snapshot : t -> group:string -> int * (string * int * string) list
(** [(applied, rows)]: the applied watermark and, for every data key of
    the group, its latest [(key, version, value)] as of that watermark. *)

val install_snapshot :
  t -> group:string -> applied:int -> (string * int * string) list -> unit
(** Install a peer's snapshot: write each row version (keeping newer local
    data if any) and advance the applied/compacted watermarks to
    [applied]. The local log then starts after the snapshot. *)

(** {1 Introspection} *)

val dump : t -> group:string -> (int * Mdds_types.Txn.entry) list
(** All locally known entries, sorted by position (for checkers/tests). *)

val coherence : t -> group:string -> (unit, string) result
(** Cache-coherence oracle: check that the group's decoded view equals a
    fresh decode of the durable rows — cached watermarks match the meta
    row, every cached entry decodes identically from its log row, the
    contiguous watermark only covers cached positions, the transaction id
    index (once built) holds exactly the ids of the cached entries at
    exactly their positions, and the data index holds exactly the group's
    live row handles. Reads the store directly (never through the cache) and
    mutates nothing. *)

val coherent : t -> (unit, string) result
(** {!coherence} over every group with a cached view. *)

val durable_coherent : t -> group:string -> (unit, string) result
(** Durable-coherence oracle: the decoded view never claims an entry the
    durable store cannot re-produce — every cached log entry, and the
    cached [last]/[compacted] watermarks, must be re-derivable from the
    state a dirty crash would leave (write buffer rolled back,
    checksum-invalid versions dropped; see
    {!Mdds_kvstore.Store.durable_versions}). [applied] is exempt: data
    applies are lazy by design and re-derived from the log by {!recover}.
    Mutates nothing; the chaos engine checks it after every fault. *)

(** {1 Crash recovery} *)

type recovery = {
  scrubbed : int;  (** Checksum-invalid (torn) versions dropped. *)
  truncated : int option;
      (** First position the durable log could not produce ([None] if the
          valid durable prefix reaches everything the log claimed). *)
  reapplied : int;  (** Entries re-applied to the data rows. *)
}

val recover : t -> group:string -> recovery
(** Crash-recovery scan (PROTOCOL.md §7): drop checksum-invalid versions
    from the group's log/meta/data rows, re-derive the
    [last]/[applied] watermarks from the surviving entries, truncate the
    decoded view to the longest valid durable prefix and re-apply it to
    the data rows (lazy applies lost with the write buffer are re-derived
    from the log), then sync. {!Mdds_core.Service.restart} runs this for
    every group before serving; entries past a gap stay durable and are
    re-entered through the learn/snapshot ladder, not invented locally. *)
