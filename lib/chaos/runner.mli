(** One chaos run: randomized workload + fault schedule + oracle suite.

    A run builds a cluster from [(seed, topology, protocol)], starts a
    YCSB workload spread over every datacenter, injects a generated (or
    supplied) {!Schedule}, heals everything at [duration], drains, and
    then checks, in order:

    + {b availability} — after healing, a client in every datacenter can
      commit a probe transaction;
    + {b bounded unavailability} — a live prober samples commit success
      in {!probe_window}-second windows throughout the run (the
      availability timeline); after the final heal at [duration], some
      probe commit must complete within {!max_heal_windows} windows;
    + {b convergence} — every datacenter catches up to the global log
      head (snapshot installation included);
    + {b progress} — the workload committed at least {!min_commits}
      transactions (the generator keeps a connected majority at all
      times, so this must hold);
    + {b safety} — the full {!Mdds_core.Verify} oracle suite per group
      (logs agree, outcome honesty, unique transaction per slot, no
      stale reads, value-level one-copy serializability), with entries
      archived by the nemesis before compactions merged back in;
    + {b cross-group atomicity} — when the workload's [cross_ratio]
      draws cross-group transactions, {!Mdds_core.Verify.check_cross}
      over the workload groups' merged logs: every prepare resolved per
      its coordinator's logged decision, commits applied atomically in
      every participant group, prepare windows exclusive, client
      reports honest against logged decisions.

    In addition, a {b cache-coherence} oracle
    ({!Mdds_core.Service.cache_coherent}) runs after {e every} injected
    fault and once more after the drain: each service's decoded WAL and
    acceptor-state caches must equal a fresh decode of its durable store,
    and the decoded view must never claim an entry the durable store
    could not re-produce after a dirty crash
    ({!Mdds_wal.Wal.durable_coherent}), proving the storage fast path is
    rebuildable from durable state across
    crash/restart/dirty-crash/torn-write/partition/compaction schedules.
    Clusters are created with {!Mdds_kvstore.Store.Sync_explicit} storage,
    so every run exercises the write-buffer/checksum layer even when the
    schedule draws no storage fault.

    Everything is driven by the deterministic simulator: the same spec
    (and optional explicit schedule) gives byte-identical results. *)

type spec = {
  seed : int;
  topology : string;  (** {!Mdds_net.Topology.ec2} name, e.g. ["VVV"]. *)
  config : Mdds_core.Config.t;
  duration : float;  (** Fault window; healing starts here. *)
  kinds : Schedule.kind list;
  workload : Mdds_workload.Ycsb.config;
}

val min_commits : int
(** Workload commits the progress oracle requires (1). *)

val probe_window : float
(** Width (seconds) of one availability-timeline sampling window (1 s). *)

val max_heal_windows : int
(** Bounded-unavailability budget: a probe commit must land within this
    many probe windows of the final heal at [duration] (8). *)

val spec :
  ?config:Mdds_core.Config.t ->
  ?duration:float ->
  ?kinds:Schedule.kind list ->
  ?workload:Mdds_workload.Ycsb.config ->
  seed:int ->
  string ->
  spec
(** [spec ~seed topology]. Defaults: Paxos-CP with chaos-friendly
    timeouts ([rpc_timeout = 0.5], [max_rounds = 8]) and the adaptive
    timeout + hedged failover machinery enabled ([adaptive = true]), 20 s
    duration, all fault kinds, a workload with one thread per datacenter
    spread across all datacenters. Raises [Invalid_argument] unless
    [duration] is finite and positive. *)

val default_config : Mdds_core.Config.protocol -> Mdds_core.Config.t
(** The chaos-friendly config for a protocol (shorter timeouts than
    {!Mdds_core.Config.default} so runs drain quickly; [adaptive] on, so
    every soak seed exercises the gray-failure client machinery). *)

val throughput_config : seed:int -> Mdds_core.Config.t -> Mdds_core.Config.t
(** The throughput schedule dimension (DESIGN.md §14): force the
    leader protocol and draw [batch_max ∈ {1,2,4,8}],
    [pipeline_depth ∈ {1,2,4}] and a fill window — the config's own
    [batch_fill] on half the draws, a long 0.05 s or 0.15 s window on
    the rest — deterministically from [seed] (on a stream distinct from
    the engine's and the fault schedule's; the fill draw comes after the
    batch/depth draws, so older seeds keep their historical
    batch/depth), never batch and depth both 1 — so a soak over a seed
    range exercises every batching/pipelining/fill combination under
    every fault kind. *)

val throughput_workload :
  dcs:int -> duration:float -> Mdds_workload.Ycsb.config
(** A denser soak workload for the throughput dimension: arrivals cluster
    inside one commit round-trip, so batches fill and pipelined positions
    overlap while faults land. *)

val default_workload : dcs:int -> duration:float -> Mdds_workload.Ycsb.config
(** The workload {!spec} builds when none is supplied: one thread per
    datacenter, paced to finish inside the fault window. Exposed so
    callers (the CLI) can override fields — e.g. [groups] and
    [cross_ratio] for cross-group soaks — without changing the
    single-group byte-identical default. *)

type report = {
  run_spec : spec;
  schedule : Schedule.t;
  commits : int;  (** Workload transactions committed (incl. read-only). *)
  aborts : int;
  unknowns : int;
  begin_failures : int;
  faults : int;  (** Fault events actually injected. *)
  net_stats : Mdds_net.Network.stats;
      (** Transport counters, including messages dropped to loss, outages
          and partitions. *)
  counters : Mdds_core.Counters.t;
      (** The services' {!Mdds_core.Counters}, summed over the cluster:
          crash recovery, duplicate delivery, hedged failover, the
          manager's batches and pipeline, and the multi-shot commit. *)
  timeline : bool array;
      (** Availability timeline: element [w] is true iff a live probe
          commit completed inside window
          [[w·probe_window, (w+1)·probe_window)]. Covers the fault window
          plus [max_heal_windows + 2] windows past the heal. *)
  recovery_times : (Schedule.event * float option) list;
      (** Per injected fault: seconds from injection to the first probe
          commit completed at-or-after it ([None] = none ever did). *)
  violation : string option;  (** [None] = every oracle passed. *)
  trace_tail : string list;
      (** A failed run's last trace events, oldest first, for repros
          ([[]] when every oracle passed). *)
}

val run :
  ?schedule:Schedule.t ->
  ?extra_oracle:(Mdds_core.Cluster.t -> (unit, string) result) ->
  ?trace_tail:int ->
  spec ->
  report
(** Execute one chaos run. [?schedule] replays an explicit schedule
    (repro/shrinking) instead of generating one; [?extra_oracle] runs
    after the built-in suite (tests use it to inject failures for the
    shrinker); a failed run's report keeps its last [trace_tail]
    (default 40) trace events. *)

val run_many :
  ?schedule:Schedule.t ->
  ?extra_oracle:(Mdds_core.Cluster.t -> (unit, string) result) ->
  ?trace_tail:int ->
  spec list ->
  report list
(** Run independent specs (typically a seed battery) in parallel with
    {!Mdds_parallel.Pool.map}, reports in input order. Results are
    identical to mapping {!run} sequentially — every run is deterministic
    in its spec. Shrinking is inherently sequential; do it on the returned
    failing reports. *)

val failed : report -> bool

val repro : report -> string
(** A copy-pastable [mdds chaos ...] command line replaying this exact
    run, explicit schedule included. *)

val pp_report : Format.formatter -> report -> unit

val up_windows : report -> int
(** Number of timeline windows with a completed probe commit. *)

val max_ttr : report -> float
(** Largest per-fault time-to-recovery (0 if no faults or no probes). *)

val pp_timeline : Format.formatter -> report -> unit
(** The availability timeline as a [#]/[.] strip plus one
    time-to-recovery line per injected fault. *)
