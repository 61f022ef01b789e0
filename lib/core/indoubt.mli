(** The manager side of multi-shot atomic commit (PROTOCOL.md §10): the
    in-doubt table, admission blocking, and the resolver ladder.

    Everything here is volatile and re-derived from the group logs'
    marker records ({!Twopc}); the per-group Paxos log is the only
    durable truth the protocol has. A prepare marker without a later
    outcome marker is in doubt: its footprint excludes conflicting
    admissions, and a resolver fiber settles it by logging a decision
    through the coordinator group and an outcome through the
    participant group.

    The resolver drives those records through the caller's Submit path,
    passed in as a [submit] argument to every function that may arm one,
    so this module sits below the manager with no forward reference. *)

type t

type submit = group:string -> Mdds_types.Txn.record -> Messages.submit_result
(** The manager's Submit path, run in-process. *)

val create :
  env:Proposer.env ->
  wal:Mdds_wal.Wal.t ->
  catchup:Catchup.t ->
  counters:Counters.t ->
  source:string ->
  t
(** [source] is the trace source of the owning service. *)

val scan : t -> submit:submit -> group:string -> unit
(** Absorb the contiguous log prefix not yet scanned: prepares join the
    table (arming a resolver each), outcomes release theirs. *)

val note_applied :
  t -> submit:submit -> group:string -> pos:int -> Mdds_types.Txn.entry -> unit
(** Absorb an entry received in an Apply, unless [pos] is already inside
    the scanned prefix. *)

val blocked :
  t -> submit:submit -> group:string -> Mdds_types.Txn.record -> bool
(** Admission against the table: does some in-doubt prepare's footprint
    block the record? A refusal re-arms the blocker's resolver. *)

val unresolved :
  (int * Mdds_types.Txn.entry) list -> (string * string array) list
(** The [(txid, footprint)] of every prepare in the given entries that
    no outcome among them releases: the in-doubt set of log entries not
    yet scanned, in the table's terms. *)

val conflicts : (string * string array) list -> Mdds_types.Txn.record -> bool
(** The conflict rule over [(txid, footprint)] pairs — the one predicate
    {!blocked} applies to the table: a pair blocks a record whose reads
    or writes meet the footprint, unless the record is that same prepare
    or an outcome/decision marker. *)

val compaction_bound : t -> submit:submit -> group:string -> upto:int -> int
(** [upto], lowered to just below the oldest in-doubt prepare (after a
    scan): compaction must keep every prepare a resolver still needs. *)

val reset : t -> unit
(** Restart: drop the table and scan watermark, orphan every resolver,
    disarm the trap. Rebuild with {!scan}. *)

val arm_trap : t -> (unit -> unit) -> unit
(** Chaos hook: see {!Service.arm_2pc_trap}. *)

val fire_trap : t -> Mdds_types.Txn.entry -> unit
(** Fire (and disarm) the trap if the entry carries a prepare marker. *)
