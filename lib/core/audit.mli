(** Execution audit trail — the test oracle's ground truth.

    Clients report every finished transaction here together with the values
    they actually observed. The trail is an append-only log; the harness
    derives every commit/abort/latency statistic from its events with
    {!summarize}. Nothing in the protocol depends on the audit; it is
    pure instrumentation, the simulated analogue of the paper's measurement
    framework plus the data needed to check one-copy serializability after
    the fact. *)

module Txn = Mdds_types.Txn

type abort_reason =
  | Conflict  (** Read set intersects a winner's write set (§5). *)
  | Lost_position
      (** Basic protocol: another transaction won the log position. *)
  | Promotion_limit  (** Configured promotion cap reached. *)
  | Unavailable  (** No quorum reachable / rounds exhausted. *)

type outcome =
  | Committed of {
      position : int;  (** Log position the transaction was written to. *)
      promotions : int;  (** 0 = won its first position. *)
      combined : bool;  (** Decided entry contained other transactions. *)
    }
  | Aborted of { reason : abort_reason; promotions : int }
  | Read_only_committed
  | Unknown
      (** In-doubt: the commit request may or may not have taken effect
          (leader protocol: the submission timed out after being sent).
          The client cannot report commit or abort truthfully. *)

type protocol_stats = {
  prepare_rounds : int;  (** Prepare broadcasts across all instances. *)
  accept_rounds : int;  (** Accept broadcasts (incl. fast-path attempts). *)
  fast_path : bool;  (** The leader fast path was attempted (§4.1). *)
  instances : int;  (** Paxos instances entered (1 + promotions for CP). *)
}

val no_stats : protocol_stats

type event = {
  group : string;  (** Transaction group the transaction ran against. *)
  record : Txn.record;  (** As proposed (reads/writes/read position). *)
  observed : (Txn.key * string option) list;
      (** Key/value pairs the client's reads actually returned. *)
  outcome : outcome;
  began_at : float;
  committed_at : float;  (** When [commit] returned (virtual time). *)
  commit_started_at : float;
  client_dc : int;
  stats : protocol_stats;
}

type t
(** The audit trail: every recorded event. *)

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** In completion order. *)

val newest_first : t -> event list
(** In reverse completion order: the trail as stored, without the copy
    {!events} makes. *)

(** {1 Outcome statistics} *)

type summary = {
  total : int;  (** Events summarized. *)
  commits : int;  (** [Committed] and [Read_only_committed]. *)
  aborts : int;
  unknowns : int;
  aborts_by_reason : (abort_reason * int) list;
      (** Every reason, in declaration order. *)
  max_promotions : int;  (** Over committed and aborted transactions. *)
  commits_by_round : int array;
      (** [commits_by_round.(n)]: committed after exactly [n] promotions;
          length [max_promotions + 1]. Read-only commits are not counted. *)
  commit_lats : float list;
      (** Commit-protocol latency (commit call → outcome) of [Committed]
          transactions. *)
  lats_by_round : float list array;
      (** [commit_lats] split by promotions; length [max_promotions + 1]. *)
  txn_lats : float list;  (** Begin → outcome latency, every event. *)
  last_commit : float;
      (** Latest completion time of a commit (read-only included); 0 with
          none. *)
  mean_rounds : float;
      (** Mean prepare+accept broadcasts per [Committed] transaction: the
          measured message-round cost (the §4.1 fast path targets 1 accept
          round). *)
  fast_path_rate : float;
      (** Fraction of [Committed] transactions that attempted the fast
          path. *)
}
(** Every latency list keeps the order of the events it came from. *)

val summarize : event list -> summary
(** Pure: the statistics of [events], which are taken to be in completion
    order, as {!events} returns them. *)

val pp_reason : Format.formatter -> abort_reason -> unit
