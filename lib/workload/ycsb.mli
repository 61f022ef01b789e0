(** YCSB-like transactional workload generator.

    Reproduces the workload of the paper's evaluation (§6), which used an
    extended Yahoo! Cloud Serving Benchmark with transaction support: a
    single entity group of [attributes] attributes; transactions of
    [ops_per_txn] operations, each a read or a write of an attribute chosen
    uniformly at random; a fixed number of worker threads with staggered
    starts, each pacing itself to a target transaction rate.

    Workers are open-loop up to back-pressure: transaction [k] of a thread
    starts at [offset + k / rate] or as soon as the previous one finished,
    whichever is later (a thread never runs two transactions at once —
    "each application instance has at most one active transaction per
    transaction group", §2.2). *)

type config = {
  group : string;  (** Transaction group (entity group) key (or prefix). *)
  groups : int;
      (** Number of independent transaction groups the workload spreads
          over round-robin (default 1; group keys are [<group>-<i>]).
          Groups have independent logs and no cross-group coordination
          (§2.1), so goodput should scale with them. *)
  total_txns : int;  (** Transactions across all threads (paper: 500). *)
  threads : int;  (** Concurrent worker threads (paper: 4). *)
  rate : float;  (** Target transactions/second per thread (paper: 1). *)
  ops_per_txn : int;  (** Operations per transaction (paper: 10). *)
  read_fraction : float;  (** Probability an operation is a read (0.5). *)
  attributes : int;  (** Total attributes in the entity group. *)
  distribution : Distribution.t;
      (** Attribute selection: the paper uses uniform; Zipfian skew is an
          extension knob (YCSB's default workloads use 0.99). *)
  stagger : float;  (** Start-time offset between threads, seconds. *)
  client_dcs : int list;
      (** Datacenters hosting the workers, round-robin. [[0]] = all workers
          in datacenter 0 (one YCSB instance); [[0;1;2]] spreads them. *)
  preload : bool;
      (** Populate every attribute with an initial committed transaction
          before the workers start. *)
  cross_ratio : float;
      (** Fraction of transactions that span two transaction groups and
          commit with the multi-shot atomic commit (PROTOCOL.md §10;
          requires [groups > 1] and the leader protocol). [0.0]
          (default) draws no RNG for the feature, keeping single-group
          runs byte-identical. *)
}

val default : config
(** The paper's defaults: 500 txns, 4 threads at 1 txn/s, 10 ops, 50%
    reads, 100 attributes, workers in datacenter 0, preloaded. *)

type handle = {
  mutable begin_failures : int;
      (** Transactions that could not even start (no service reachable). *)
  mutable finished : int;  (** Transactions that ran to an outcome. *)
}

val attribute_key : int -> string
(** Key of the [i]-th attribute. *)

val group_keys : config -> string list
(** The group keys this workload touches (for verification/reporting). *)

val preload_id : string
(** Client id of the preload transaction (its audit events carry
    transaction ids prefixed [preload/]). *)

val workload_events : Mdds_core.Audit.event list -> Mdds_core.Audit.event list
(** [events] without the harness's own transactions: the preload's and
    those of chaos availability probes (client ids prefixed [probe-]).
    Every harness reports workload statistics over this list. *)

val run : Mdds_core.Cluster.t -> config -> handle
(** Spawn the preload (if any) and all worker processes; the caller then
    drives the simulation with {!Mdds_core.Cluster.run}. Outcomes land in
    the cluster's audit trail. Raises [Invalid_argument] unless [threads]
    and [attributes] are positive, [client_dcs] is non-empty and [rate]
    is finite and positive. *)
