module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Counters = Mdds_core.Counters
module Service = Mdds_core.Service
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology

type mode = {
  label : string;
  batch_max : int;
  pipeline_depth : int;
  batch_fill : float;
}

let default_fill = Config.default.Config.batch_fill

let baseline =
  {
    label = "baseline";
    batch_max = 1;
    pipeline_depth = 1;
    batch_fill = default_fill;
  }

let batched ?(batch_max = 8) ?(pipeline_depth = 4) ?(fill = default_fill) () =
  {
    label =
      (if fill = default_fill then
         Printf.sprintf "batch%d/depth%d" batch_max pipeline_depth
       else
         Printf.sprintf "b%d/d%d/fill%gms" batch_max pipeline_depth
           (fill *. 1000.));
    batch_max;
    pipeline_depth;
    batch_fill = fill;
  }

type point = {
  mode : mode;
  rate : float;
  txns : int;
  committed : int;
  aborted : int;
  unknown : int;
  committed_per_s : float;
  latency : Stats.summary;
  batches : int;
  batched_txns : int;
  pipelined_rounds : int;
  sim_duration : float;
  wall_seconds : float;
  verified : (unit, string) result;
}

let group = "tp"

(* Scaling runs spread transactions round-robin over [groups] independent
   logs; [groups = 1] keeps the historical single group name so existing
   sweeps stay byte-identical. *)
let group_name ~groups gi =
  if groups = 1 then group else Printf.sprintf "%s-%d" group gi

(* All modes run the leader protocol so the comparison isolates
   batching/pipelining; the baseline's [batch_max = pipeline_depth = 1]
   proposes one transaction per position, one position at a time. *)
let config_of_mode mode =
  {
    Config.leader with
    batch_max = mode.batch_max;
    pipeline_depth = mode.pipeline_depth;
    batch_fill = mode.batch_fill;
  }

let run_point ?(seed = 42) ?(topology = "VVV") ?(conflict_every = 16)
    ?(groups = 1) ~mode ~rate ~txns () =
  if not (Float.is_finite rate && rate > 0.0) then
    invalid_arg "Throughput.run_point: rate must be finite and positive";
  if txns < 1 then invalid_arg "Throughput.run_point: txns must be positive";
  if groups < 1 then invalid_arg "Throughput.run_point: groups must be positive";
  let started = Unix.gettimeofday () in
  let topo = Topology.ec2 topology in
  let config = config_of_mode mode in
  let cluster = Cluster.create ~seed ~config topo in
  let dcs = Cluster.size cluster in
  (* Open loop: arrival [i] fires at [i / rate] virtual seconds no matter
     how far behind the service is — queues build at saturation instead of
     the offered load silently adapting. *)
  for i = 0 to txns - 1 do
    let at = float_of_int i /. rate in
    let dc = i mod dcs in
    Cluster.spawn ~at cluster (fun () ->
        let client = Cluster.client ~id:(Printf.sprintf "tp%06d" i) cluster ~dc in
        let txn = Client.begin_ client ~group:(group_name ~groups (i mod groups)) in
        if conflict_every > 0 && i mod conflict_every = 0 then (
          (* Shared-counter RMW: keeps the conflict/abort path honest. *)
          let v =
            match Client.read txn "ctr" with
            | None -> 1
            | Some s -> int_of_string s + 1
          in
          Client.write txn "ctr" (string_of_int v))
        else begin
          let key = Printf.sprintf "k%06d" i in
          ignore (Client.read txn key);
          Client.write txn key (string_of_int i)
        end;
        ignore (Client.commit txn))
  done;
  Cluster.run cluster;
  let s = Audit.summarize (Audit.events (Cluster.audit cluster)) in
  let committed_per_s =
    if s.commits = 0 then 0.0 else float_of_int s.commits /. s.last_commit
  in
  let count =
    Counters.get
      (Counters.sum (List.map Service.counters (Cluster.services cluster)))
  in
  {
    mode;
    rate;
    txns;
    committed = s.commits;
    aborted = s.aborts;
    unknown = s.unknowns;
    committed_per_s;
    latency = Stats.summarize s.commit_lats;
    batches = count Batches;
    batched_txns = count Batched_txns;
    pipelined_rounds = count Pipelined_rounds;
    sim_duration = Cluster.now cluster;
    wall_seconds = Unix.gettimeofday () -. started;
    verified =
      (let rec check_all gi =
         if gi >= groups then Ok ()
         else
           match Verify.check cluster ~group:(group_name ~groups gi) with
           | Ok () -> check_all (gi + 1)
           | Error e ->
               Error (Printf.sprintf "group %s: %s" (group_name ~groups gi) e)
       in
       check_all 0);
  }

let sweep ?seed ?topology ?conflict_every ?groups
    ?(modes = [ baseline; batched () ]) ~rates ~txns () =
  (* Independent cells fan out over domains (Pool.map); each point is
     deterministic in its parameters and results come back in input
     order, so output is byte-identical whatever the job count. *)
  let cells =
    List.concat_map (fun mode -> List.map (fun rate -> (mode, rate)) rates) modes
  in
  Mdds_parallel.Pool.map
    (fun (mode, rate) ->
      run_point ?seed ?topology ?conflict_every ?groups ~mode ~rate ~txns ())
    cells

let saturation points mode =
  List.fold_left
    (fun best p ->
      if p.mode.label <> mode.label then best
      else
        match best with
        | Some b when b.committed_per_s >= p.committed_per_s -> best
        | _ -> Some p)
    None points

let pp_table ppf points =
  Format.fprintf ppf "%-16s %9s %9s %9s %10s %9s %9s %8s %9s  %s@."
    "mode" "rate/s" "offered" "committed" "goodput/s" "p50(ms)" "p99(ms)"
    "batches" "pipelined" "verify";
  List.iter
    (fun p ->
      Format.fprintf ppf
        "%-16s %9.1f %9d %9d %10.1f %9.1f %9.1f %8d %9d  %s@."
        p.mode.label p.rate p.txns p.committed p.committed_per_s
        (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
        p.batches p.pipelined_rounds
        (match p.verified with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e))
    points

let to_json points =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"mode\": %S, \"batch_max\": %d, \"pipeline_depth\": %d, \
            \"batch_fill\": %.3f, \"rate\": %.3f, \"txns\": %d, \
            \"committed\": %d, \"aborted\": %d, \
            \"unknown\": %d, \"committed_per_s\": %.3f, \"p50_ms\": %.3f, \
            \"p95_ms\": %.3f, \"p99_ms\": %.3f, \"mean_ms\": %.3f, \
            \"batches\": %d, \"pipelined_rounds\": %d, \
            \"sim_duration\": %.3f, \"verified\": %b}"
           p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.batch_fill p.rate p.txns
           p.committed p.aborted p.unknown p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p95 *. 1000.)
           (p.latency.Stats.p99 *. 1000.) (p.latency.Stats.mean *. 1000.)
           p.batches p.pipelined_rounds p.sim_duration
           (match p.verified with Ok () -> true | Error _ -> false)))
    points;
  Buffer.add_string buf "\n  ]";
  Buffer.contents buf

(* The knob-sweep family (ext-knobs / `mdds throughput --sweep`): the
   full batch_max x pipeline_depth x batch_fill x topology grid at one
   offered rate. Cells with batch and depth both 1 run the baseline,
   whose drainer never waits on the fill. Cells are
   deterministic and fan out over domains in input order, so
   output is byte-identical whatever the job count. *)
let knob_mode ~batch_max ~pipeline_depth ~fill =
  if batch_max = 1 && pipeline_depth = 1 then { baseline with batch_fill = fill }
  else batched ~batch_max ~pipeline_depth ~fill ()

let knob_sweep ?seed ?conflict_every ?groups
    ?(topologies = [ "VVV"; "VVVOC" ]) ?(batch_maxes = [ 1; 8 ])
    ?(depths = [ 1; 4 ]) ?(fills = [ default_fill; 0.05 ]) ~rate ~txns () =
  let cells =
    List.concat_map
      (fun topology ->
        List.concat_map
          (fun fill ->
            List.concat_map
              (fun batch_max ->
                List.map
                  (fun pipeline_depth ->
                    (topology, knob_mode ~batch_max ~pipeline_depth ~fill))
                  depths)
              batch_maxes)
          fills)
      topologies
  in
  Mdds_parallel.Pool.map
    (fun (topology, mode) ->
      ( topology,
        run_point ?seed ~topology ?conflict_every ?groups ~mode ~rate ~txns ()
      ))
    cells

let pp_knob_table ppf cells =
  Format.fprintf ppf "%-6s %-16s %5s %5s %9s %9s %9s %10s %9s %9s  %s@."
    "topo" "mode" "batch" "depth" "fill(s)" "offered" "committed"
    "goodput/s" "p50(ms)" "p99(ms)" "verify";
  List.iter
    (fun (topology, p) ->
      Format.fprintf ppf
        "%-6s %-16s %5d %5d %9.3f %9d %9d %10.1f %9.1f %9.1f  %s@." topology
        p.mode.label p.mode.batch_max p.mode.pipeline_depth
        p.mode.batch_fill p.txns p.committed p.committed_per_s
        (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
        (match p.verified with Ok () -> "ok" | Error e -> "VIOLATION: " ^ e))
    cells

let knob_to_json cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i (topology, p) ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"topology\": %S, \"mode\": %S, \"batch_max\": %d, \
            \"pipeline_depth\": %d, \"batch_fill\": %.3f, \
            \"rate\": %.3f, \"txns\": %d, \"committed\": %d, \
            \"committed_per_s\": %.3f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
            \"batches\": %d, \"verified\": %b}"
           topology p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.batch_fill p.rate p.txns p.committed p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
           p.batches
           (match p.verified with Ok () -> true | Error _ -> false)))
    cells;
  Buffer.add_string buf "\n]";
  Buffer.contents buf

let knob_to_csv cells =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "topology,mode,batch_max,pipeline_depth,batch_fill,rate,txns,\
     committed,committed_per_s,p50_ms,p99_ms,batches,verified\n";
  List.iter
    (fun (topology, p) ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%d,%d,%.3f,%.3f,%d,%d,%.3f,%.3f,%.3f,%d,%b\n"
           topology p.mode.label p.mode.batch_max p.mode.pipeline_depth
           p.mode.batch_fill p.rate p.txns p.committed p.committed_per_s
           (p.latency.Stats.p50 *. 1000.) (p.latency.Stats.p99 *. 1000.)
           p.batches
           (match p.verified with Ok () -> true | Error _ -> false)))
    cells;
  Buffer.contents buf
