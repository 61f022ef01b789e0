(** Execution audit trail — the test oracle's ground truth.

    Clients report every finished transaction here together with the values
    they actually observed, and the harness reads commit/abort/latency
    statistics from it. Nothing in the protocol depends on the audit; it is
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

val create : unit -> t
val record : t -> event -> unit
val events : t -> event list
(** In completion order. *)

(** {1 Aggregates} *)

val total : t -> int
val commits : t -> int
val aborts : t -> int
val unknowns : t -> int
val commits_with_promotions : t -> int -> int
(** Transactions committed after exactly [n] promotions. *)

val max_promotions_seen : t -> int
val abort_count : t -> abort_reason -> int
val commit_latencies : t -> promotions:int option -> float list
(** Commit-protocol latency (commit call → outcome) of committed
    transactions, optionally only those with exactly [promotions]. *)

val txn_latencies : t -> float list
(** Begin → outcome latency, all transactions. *)

val mean_rounds : t -> float
(** Mean prepare+accept broadcasts per committed transaction: the measured
    message-round cost (the §4.1 fast path targets 1 accept round). *)

val fast_path_rate : t -> float
(** Fraction of committed transactions that attempted the fast path. *)

val note_hedge : t -> unit
(** A service request ([begin]/[read]) was answered by a fallback
    datacenter after the local one failed or timed out — under
    {!Config.t.adaptive} this is a hedged failover. Called by the
    client, counted here so the chaos report can surface it. *)

val hedges : t -> int

val pp_reason : Format.formatter -> abort_reason -> unit
