module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Cluster = Mdds_core.Cluster
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology
module Ycsb = Mdds_workload.Ycsb

type spec = {
  name : string;
  topology : string;
  seed : int;
  config : Config.t;
  workload : Ycsb.config;
  loss : float;
}

let spec ?name ?(seed = 42) ?(config = Config.default) ?(workload = Ycsb.default)
    ?(loss = 0.002) topology =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s/%s" (Config.protocol_name config.protocol) topology
  in
  { name; topology; seed; config; workload; loss }

type result = {
  spec : spec;
  total : int;
  commits : int;
  commits_by_round : int array;
  aborts : int;
  aborts_conflict : int;
  aborts_lost : int;
  aborts_unavailable : int;
  max_promotions : int;
  combined_entries : int;
  commit_latency : Stats.summary;
  latency_by_round : Stats.summary array;
  sim_duration : float;
  wall_seconds : float;
  events : Audit.event list;
  messages_sent : int;
  leader_share : float;
  mean_rounds : float;
  fast_path_rate : float;
  verified : (unit, string) Stdlib.result;
  trace_tail : Mdds_sim.Trace.event list;
}

let run ?trace spec =
  let started = Unix.gettimeofday () in
  let topo = Topology.ec2 ~loss:spec.loss spec.topology in
  let cluster = Cluster.create ~seed:spec.seed ~config:spec.config topo in
  if trace <> None then Mdds_sim.Trace.enable (Cluster.trace cluster);
  let _handle = Ycsb.run cluster spec.workload in
  Cluster.run cluster;
  (* Workload statistics exclude the preload transaction; the correctness
     oracle below still checks the full execution. *)
  let events = Ycsb.workload_events (Audit.events (Cluster.audit cluster)) in
  let s = Audit.summarize events in
  let aborted reason = List.assoc reason s.aborts_by_reason in
  let net = Cluster.network cluster in
  let net_stats = Mdds_net.Network.stats net in
  {
    spec;
    total = s.total;
    commits = s.commits;
    commits_by_round = s.commits_by_round;
    aborts = s.aborts;
    aborts_conflict = aborted Audit.Conflict;
    aborts_lost = aborted Audit.Lost_position;
    aborts_unavailable = aborted Audit.Unavailable;
    max_promotions = s.max_promotions;
    combined_entries =
      List.fold_left
        (fun acc group -> acc + Cluster.combined_entries cluster ~group)
        0
        (Ycsb.group_keys spec.workload);
    commit_latency = Stats.summarize s.commit_lats;
    latency_by_round = Array.map Stats.summarize s.lats_by_round;
    sim_duration = Cluster.now cluster;
    wall_seconds = Unix.gettimeofday () -. started;
    events;
    messages_sent = net_stats.Mdds_net.Network.sent;
    leader_share =
      float_of_int
        (Mdds_net.Network.delivered_to net spec.config.Config.initial_leader)
      /. float_of_int (max 1 net_stats.Mdds_net.Network.delivered);
    mean_rounds = s.mean_rounds;
    fast_path_rate = s.fast_path_rate;
    verified =
      List.fold_left
        (fun acc group ->
          match acc with Error _ -> acc | Ok () -> Verify.check cluster ~group)
        (Ok ())
        (Ycsb.group_keys spec.workload);
    trace_tail =
      (match trace with
      | None -> []
      | Some n -> Mdds_sim.Trace.tail (Cluster.trace cluster) n);
  }

let pp_brief ppf r =
  Format.fprintf ppf
    "%s: %d/%d commits (%d conflict, %d lost, %d unavailable), latency %a, \
     combined=%d, max-promotions=%d, verified=%s [%.1fs sim, %.2fs wall]"
    r.spec.name r.commits r.total r.aborts_conflict r.aborts_lost
    r.aborts_unavailable Stats.pp_ms r.commit_latency.Stats.mean
    r.combined_entries r.max_promotions
    (match r.verified with Ok () -> "ok" | Error m -> "FAIL: " ^ m)
    r.sim_duration r.wall_seconds
