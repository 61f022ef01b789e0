(** Experiment runner: one simulated deployment + one workload → metrics.

    Every figure reproduction is a set of these specs. A run always ends
    with the full {!Mdds_core.Verify} oracle; an experiment whose execution
    was not one-copy serializable reports it in [verified] and the figure
    drivers treat that as a hard failure. *)

module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Ycsb = Mdds_workload.Ycsb

type spec = {
  name : string;
  topology : string;  (** Region spec for {!Mdds_net.Topology.ec2}. *)
  seed : int;
  config : Config.t;
  workload : Ycsb.config;
  loss : float;  (** Link loss probability. *)
}

val spec :
  ?name:string ->
  ?seed:int ->
  ?config:Config.t ->
  ?workload:Ycsb.config ->
  ?loss:float ->
  string ->
  spec
(** [spec topology] with the paper's defaults. *)

type result = {
  spec : spec;
  total : int;  (** Transactions that reached an outcome. *)
  commits : int;
  commits_by_round : int array;
      (** [commits_by_round.(r)] = committed after exactly [r] promotions;
          index 0 is the first attempt. Always basic-compatible: under the
          basic protocol only index 0 is populated. *)
  aborts : int;
  aborts_conflict : int;
  aborts_lost : int;
  aborts_unavailable : int;
  max_promotions : int;
  combined_entries : int;  (** Log entries with more than one transaction. *)
  commit_latency : Stats.summary;  (** Committed transactions only. *)
  latency_by_round : Stats.summary array;
  sim_duration : float;  (** Virtual seconds. *)
  wall_seconds : float;  (** Real time the simulation took. *)
  events : Audit.event list;
      (** The workload's audit events ({!Ycsb.workload_events}): every
          count and latency above is their {!Audit.summarize}. *)
  messages_sent : int;  (** Total datagrams submitted to the network. *)
  leader_share : float;
      (** Fraction of delivered messages handled by the configured leader
          datacenter — the single-site load concentration of leader-based
          designs (§7). *)
  mean_rounds : float;
      (** Mean prepare+accept broadcasts per committed transaction. *)
  fast_path_rate : float;  (** Committed transactions that tried the fast path. *)
  verified : (unit, string) Stdlib.result;
  trace_tail : Mdds_sim.Trace.event list;
      (** The last [n] protocol trace events of a [run ~trace:n]; empty
          otherwise. *)
}

val run : ?trace:int -> spec -> result
(** Simulate [spec] to completion and verify every group. [~trace:n]
    enables the cluster's protocol trace and keeps its last [n] events. *)

val pp_brief : Format.formatter -> result -> unit
