(** Open-loop throughput measurement (DESIGN.md §14.3).

    A closed-loop workload (every thread waits for its commit before
    submitting the next) can never expose a saturation point: offered
    load collapses to match capacity. This harness instead spawns one
    client fiber per transaction at fixed virtual-time arrivals
    ([i / rate] seconds), so the offered rate is independent of service
    latency and queues actually build when the system saturates.

    Each measured point runs a fresh deterministic cluster, drives
    [txns] single-shot transactions over a mostly-disjoint keyspace
    (a small fraction contend on one shared counter so the conflict
    path stays exercised), drains, runs the full {!Mdds_core.Verify}
    oracle suite, and reports committed throughput and the commit
    latency distribution. A {!sweep} repeats that over a list of
    offered rates for both the baseline ([batch_max = 1],
    [pipeline_depth = 1]) and a batched/pipelined mode, giving the
    throughput/latency-to-saturation curves of the PR-8 benchmark. *)

type mode = {
  label : string;
  batch_max : int;
  pipeline_depth : int;
  batch_fill : float;
}

val baseline : mode
(** [batch_max = 1], [pipeline_depth = 1]: one transaction per position,
    one position at a time (the paper's manager). *)

val batched :
  ?batch_max:int -> ?pipeline_depth:int -> ?fill:float -> unit -> mode
(** Throughput mode (defaults [batch_max = 8], [pipeline_depth = 4],
    [fill] = the config default's [batch_fill]). A long [fill] with a
    large [batch_max] is the long-fill-window point of PROTOCOL.md §9:
    the drainer holds each batch open for [fill] virtual seconds (or
    until [batch_max] are queued) and proposes it as one multi-record
    entry. *)

type point = {
  mode : mode;
  rate : float;  (** Offered load, transactions per virtual second. *)
  txns : int;  (** Transactions offered. *)
  committed : int;
  aborted : int;
  unknown : int;
  committed_per_s : float;
      (** Committed transactions divided by the virtual time of the last
          commit — the measured goodput at this offered rate. *)
  latency : Stats.summary;  (** Commit latency of committed txns. *)
  batches : int;  (** Log positions the managers proposed. *)
  batched_txns : int;  (** Transactions those positions carried. *)
  pipelined_rounds : int;
  sim_duration : float;  (** Virtual seconds until full drain. *)
  wall_seconds : float;
  verified : (unit, string) result;
}

val run_point :
  ?seed:int ->
  ?topology:string ->
  ?conflict_every:int ->
  ?groups:int ->
  mode:mode ->
  rate:float ->
  txns:int ->
  unit ->
  point
(** One cluster, one offered rate. [conflict_every] (default 16): every
    n-th transaction also reads-and-writes the shared counter key.
    [groups] (default 1) spreads transactions round-robin over that many
    independent transaction groups — the per-group-log scaling axis of
    the aggregate-throughput figure; [groups = 1] keeps the historical
    single group name, so existing sweeps are byte-identical.
    Deterministic in [(seed, topology, groups, mode, rate, txns)].
    Raises [Invalid_argument] unless [rate] is finite and positive. *)

val sweep :
  ?seed:int ->
  ?topology:string ->
  ?conflict_every:int ->
  ?groups:int ->
  ?modes:mode list ->
  rates:float list ->
  txns:int ->
  unit ->
  point list
(** Every mode at every rate (default modes: [baseline] and
    [batched ()]), in order — the saturation curves. *)

val saturation : point list -> mode -> point option
(** The point of peak committed throughput for a mode within a sweep. *)

val pp_table : Format.formatter -> point list -> unit

val to_json : point list -> string
(** The sweep as a JSON array (schema used by [mdds throughput --out]). *)

val knob_sweep :
  ?seed:int ->
  ?conflict_every:int ->
  ?groups:int ->
  ?topologies:string list ->
  ?batch_maxes:int list ->
  ?depths:int list ->
  ?fills:float list ->
  rate:float ->
  txns:int ->
  unit ->
  (string * point) list
(** The batch_max x pipeline_depth x batch_fill x topology grid at one
    offered rate ([mdds throughput --sweep], figure [ext-knobs]), tagged
    with the topology of each cell. Cells with batch and depth both 1
    run the verbatim baseline. Defaults: topologies [VVV; VVVOC],
    batch_maxes [1; 8], depths [1; 4], fills [0.005; 0.05].
    Deterministic and byte-identical at any job count. *)

val pp_knob_table : Format.formatter -> (string * point) list -> unit

val knob_to_json : (string * point) list -> string
(** The grid as a JSON array, one object per cell (topology included). *)

val knob_to_csv : (string * point) list -> string
(** The grid as CSV with a header row — the CI sweep artifact. *)
