(** Reproductions of every figure of the paper's evaluation (§6).

    Each function runs the corresponding experiment (both protocols,
    averaged over several seeds), verifies one-copy serializability of
    every run, and prints a table whose rows mirror the paper's figure,
    alongside the paper's reported numbers where the text states them.

    Paper setup being reproduced: 500 transactions per experiment, 10
    operations each (50% reads), attributes uniform over the entity group,
    4 worker threads at 1 txn/s with staggered starts, 2 s timeouts;
    EC2 datacenters V (Virginia AZs), O (Oregon), C (N. California). *)

val fig4a : ?seeds:int list -> unit -> unit
(** Figure 4(a): successful commits (of 500) vs number of replicas,
    basic Paxos vs Paxos-CP split by promotion round. *)

val fig4b : ?seeds:int list -> unit -> unit
(** Figure 4(b): latency of committed transactions vs replicas, by
    promotion round. *)

val fig5a : ?seeds:int list -> unit -> unit
(** Figure 5(a): commits for different datacenter combinations. *)

val fig5b : ?seeds:int list -> unit -> unit
(** Figure 5(b): average transaction latency per datacenter combination. *)

val fig6 : ?seeds:int list -> unit -> unit
(** Figure 6: data contention — commits vs total attributes (20…500),
    three replicas (VVV). *)

val fig7 : ?seeds:int list -> unit -> unit
(** Figure 7: increasing concurrency — commits vs target throughput of a
    single YCSB instance, VVV, 100 attributes. *)

val fig8 : ?seeds:int list -> unit -> unit
(** Figure 8: one YCSB instance per datacenter (V, O, C) against a shared
    entity group: per-datacenter commits and latency. *)

val text_stats : ?seeds:int list -> unit -> unit
(** §6 in-text Paxos-CP profile: combinations per experiment (paper: mean
    6.8, max 24), promotions before commit/abort (paper: ≤ 7, most ≤ 2). *)

val text_messages : ?seeds:int list -> unit -> unit
(** §5 in-text claim: Paxos-CP achieves its concurrency with the same
    per-instance message complexity — compare total messages and messages
    per committed transaction across the two protocols. *)

(** {1 Extensions beyond the paper's evaluation} *)

val ext_leader : ?seeds:int list -> unit -> unit
(** The long-term-leader transaction manager the paper names as future
    work (§8): commits, latency, messages per commit and the single-site
    load concentration, against both published protocols. *)

val ext_ablation : ?seeds:int list -> unit -> unit
(** Ablation: contribution of combination, promotion (and its cap) and the
    leader fast path to Paxos-CP's commit rate. *)

val ext_loss : ?seeds:int list -> unit -> unit
(** Commit rate and latency as link loss degrades. *)

val ext_retry : ?seeds:int list -> unit -> unit
(** The §6 in-text claim that promotion is cheaper than an application
    retry: the same transaction intents as basic-Paxos-with-retry-loop
    vs a single Paxos-CP commit — eventual success, attempts per intent
    and time to commit. *)

val ext_skew : ?seeds:int list -> unit -> unit
(** Access-skew sensitivity: uniform vs Zipfian key choice. *)

val ext_groups : ?seeds:int list -> unit -> unit
(** §2.1's scalability argument, measured: a fixed aggregate load spread
    over more independent transaction groups loses fewer transactions to
    log-position contention. *)

val all : (string * string * (unit -> unit)) list
(** [(id, description, run)] for every reproduction above. *)

val resolve : string list -> (string * (unit -> unit)) list
(** [(id, run)] for each named reproduction, in order, or for all of them
    given [[]]. Raises [Invalid_argument] naming the first unknown id. *)

val run_ids : string list -> unit
(** Run the named reproductions ("fig4a" … "text-cp"), or all of them for
    [[]]. Every id is resolved before any runs, so an unknown id raises
    [Invalid_argument] with nothing printed. Figures 4(a) and 4(b) print
    one shared grid, as do 5(a) and 5(b): within one call it runs once. *)
