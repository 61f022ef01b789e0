(** End-to-end correctness verification of a finished simulation.

    Runs every oracle the theory section (§3) calls for against a cluster's
    final state and audit trail:

    + (R1) all datacenter logs agree on every position;
    + (L2) every transaction occupies at most one log slot;
    + (L1) + outcome honesty: committed ⇔ present in the log at the
      reported position, aborted ⇒ absent;
    + (L3)/(A1)/(A2) structurally: no transaction's read set was
      overwritten between its read position and its serial point;
    + value-level one-copy serializability: replaying the log serially
      reproduces every value every client observed.

    Tests and examples call this after every run; a protocol bug that
    breaks one-copy serializability cannot pass silently. *)

val check :
  ?archive:(int * Mdds_types.Txn.entry) list ->
  Cluster.t -> group:string -> (unit, string) result
(** [archive] holds log entries captured *before* a compaction discarded
    them from every replica (the chaos engine archives a datacenter's log
    prefix whenever it injects a compaction). They are merged with the
    live union log — and must agree with it — so the oracles still see the
    complete history. [archive] must be sorted by position with no
    position twice; an archive that is not is reported as an error.
    Verification of uncompacted runs needs no archive. *)

val check_exn :
  ?archive:(int * Mdds_types.Txn.entry) list -> Cluster.t -> group:string -> unit
(** Raises [Failure] with the violation description. *)

val check_cross :
  ?archives:(string * (int * Mdds_types.Txn.entry) list) list ->
  Cluster.t -> groups:string list -> (unit, string) result
(** Cross-group atomicity oracle (PROTOCOL.md §10) over the participant
    groups' effective logs and the pseudo-group audit events, in phases:

    + resolution: every logged prepare is resolved by an outcome whose
      verdict equals the decision logged in its coordinator's group;
    + a transaction's prepares agree on coordinator and participants; a
      committed one is prepared in {e every} participant group, where its
      outcome applies exactly the prepared writes; no other group
      prepared it;
    + window exclusivity: between a prepare and its outcome no other
      record touches the prepared footprint in that group (the guarantee
      cross-group 1SR rests on);
    + outcome honesty: a client-reported commit ⇔ a logged commit
      decision;
    + value-level: each group's effective log, replayed serially (and
      checked for (L3) on the way), reproduces every value the
      cross-group transaction observed at its per-group read position.

    The first phase that fails is reported; within phases 1–3, its
    first violation in ([groups] order, log position) of the prepare;
    honesty names the oldest dishonest report, the replay the first
    failing group. [archives] maps a group name to log entries archived
    before compaction, sorted as {!check}'s [archive] must be. An
    archive or (R1) error of a group comes before every phase. *)

val check_cross_exn :
  ?archives:(string * (int * Mdds_types.Txn.entry) list) list ->
  Cluster.t -> groups:string list -> unit
