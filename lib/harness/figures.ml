module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Ycsb = Mdds_workload.Ycsb
module Pool = Mdds_parallel.Pool

let default_seeds = [ 11; 22; 33 ]

(* Every trial (one Experiment.run) owns its engine, cluster and RNG, so
   independent cells of a figure's (config × seed) grid run in parallel on
   several domains; Pool.map preserves input order and each trial is a pure
   function of its spec, so figures are byte-identical to a sequential run
   whatever the domain count.

   Trials within one batch differ widely in wall time (a 1500-txn fig8
   trial vs a 400-txn groups trial), so each spec carries a cost estimate —
   transactions to decide × topology size, a proxy for messages simulated —
   and the pool dispenses longest-estimated-first. Dispatch order never
   affects results, only tail latency of the batch. *)
let trial_cost (s : Experiment.spec) =
  float_of_int s.Experiment.workload.Ycsb.total_txns
  *. float_of_int (String.length s.Experiment.topology)

(* Run several groups of inputs as ONE pool batch and slice the results
   back per group. Figures used to put each cell (or each protocol) on the
   pool separately, which serialized a figure into many small barriers;
   flattening the whole grid lets the cost-aware scheduler fill every
   domain across cell boundaries. Order within and across groups is
   preserved, so aggregation sees exactly the sequences it used to. *)
let run_grouped ?cost f groups =
  let rec slice flat = function
    | [] -> []
    | g :: rest ->
        let k = List.length g in
        List.filteri (fun i _ -> i < k) flat
        :: slice (List.filteri (fun i _ -> i >= k) flat) rest
  in
  slice (Pool.map ?cost f (List.concat groups)) groups

let run_trials groups = run_grouped ~cost:trial_cost Experiment.run groups

(* ------------------------------------------------------------------ *)
(* Aggregation over seeds.                                              *)

type agg = {
  commits : float;
  by_round : float array;  (* mean commits with exactly r promotions *)
  aborts_conflict : float;
  combined : float;
  combined_max : int;
  max_promotions : int;
  lat_all : Stats.summary;  (* pooled over runs *)
  lat_by_round : Stats.summary array;
  txn_lat : Stats.summary;
}

let mean_of f runs =
  List.fold_left (fun acc r -> acc +. f r) 0. runs
  /. float_of_int (List.length runs)

(* Counts are pooled over runs and divided by the run count: the sum of
   small integers is exact in floating point, so this equals the mean of
   the per-run counts. *)
let aggregate runs =
  List.iter
    (fun (r : Experiment.result) ->
      match r.verified with
      | Ok () -> ()
      | Error msg ->
          failwith
            (Printf.sprintf "experiment %s: serializability violated: %s"
               r.spec.Experiment.name msg))
    runs;
  let s =
    Audit.summarize
      (List.concat_map (fun (r : Experiment.result) -> r.events) runs)
  in
  let per_run n = float_of_int n /. float_of_int (List.length runs) in
  {
    commits = per_run s.commits;
    by_round = Array.map per_run s.commits_by_round;
    aborts_conflict = per_run (List.assoc Audit.Conflict s.aborts_by_reason);
    combined = mean_of (fun r -> float_of_int r.Experiment.combined_entries) runs;
    combined_max =
      List.fold_left (fun m (r : Experiment.result) -> max m r.combined_entries) 0 runs;
    max_promotions = s.max_promotions;
    lat_all = Stats.summarize s.commit_lats;
    lat_by_round = Array.map Stats.summarize s.lats_by_round;
    txn_lat = Stats.summarize s.txn_lats;
  }

(* One (topology, workload, loss) cell of a figure grid -> (basic, cp)
   aggregates. All cells of the list become a single pool batch: per cell,
   basic's seeds then CP's, cells in input order. *)
let run_pairs ?(seeds = default_seeds) cells =
  let cp = { Config.default with protocol = Config.Cp } in
  let groups =
    List.concat_map
      (fun (topology, workload, loss) ->
        let specs config =
          List.map
            (fun seed -> Experiment.spec ~seed ~config ~workload ?loss topology)
            seeds
        in
        [ specs Config.basic; specs cp ])
      cells
  in
  let rec pair_up = function
    | basic :: cp :: rest -> (aggregate basic, aggregate cp) :: pair_up rest
    | [] -> []
    | [ _ ] -> assert false
  in
  pair_up (run_trials groups)

(* Commits with >= 3 promotions, for compact "r3+" columns. *)
let late_commits agg =
  let n = Array.length agg.by_round in
  let rec sum i acc = if i >= n then acc else sum (i + 1) (acc +. agg.by_round.(i)) in
  sum 3 0.

let round_col agg r =
  if r < Array.length agg.by_round then Table.fmt_f agg.by_round.(r) else "0.0"

let heading id what =
  Printf.printf "\n== %s: %s ==\n" id what

let footnote fmt = Printf.ksprintf (fun s -> Printf.printf "%s\n" s) fmt

(* ------------------------------------------------------------------ *)
(* Figure 4: replica count sweep.                                       *)

let replica_clusters = [ ("2", "VV"); ("3", "VVV"); ("4", "VVVO"); ("5", "VVVOC") ]

let fig4 ?seeds () =
  let pairs =
    run_pairs ?seeds
      (List.map (fun (_, t) -> (t, Ycsb.default, None)) replica_clusters)
  in
  List.map2
    (fun (label, topology) (basic, cp) -> (label, topology, basic, cp))
    replica_clusters pairs

let print_fig4a grid =
  heading "Figure 4(a)" "commits out of 500 vs number of replicas";
  let rows =
    List.map
      (fun (label, topology, basic, cp) ->
        [
          label; topology;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          round_col cp 0; round_col cp 1; round_col cp 2;
          Table.fmt_f (late_commits cp);
        ])
      grid
  in
  Table.print
    ~header:[ "replicas"; "cluster"; "paxos"; "paxos-cp"; "cp r0"; "cp r1"; "cp r2"; "cp r3+" ]
    rows;
  footnote
    "paper: basic 284..292 of 500 across replica counts; Paxos-CP total 434..445;\n\
     replica count has little effect on either; CP first-round commits below basic total."

let print_fig4b grid =
  heading "Figure 4(b)" "commit latency (ms) of committed transactions, by promotion round";
  let rows =
    List.map
      (fun (label, topology, basic, cp) ->
        let r summary = Table.fmt_ms summary.Stats.mean in
        [
          label; topology;
          r basic.lat_all;
          r cp.lat_all;
          (if Array.length cp.lat_by_round > 0 then r cp.lat_by_round.(0) else "-");
          (if Array.length cp.lat_by_round > 1 then r cp.lat_by_round.(1) else "-");
          (if Array.length cp.lat_by_round > 2 then r cp.lat_by_round.(2) else "-");
        ])
      grid
  in
  Table.print
    ~header:[ "replicas"; "cluster"; "paxos"; "cp all"; "cp r0"; "cp r1"; "cp r2" ]
    rows;
  footnote
    "paper: first CP round comparable to basic; each promotion adds rounds of\n\
     messaging; latency grows mildly with replica count (more messages per round)."

(* ------------------------------------------------------------------ *)
(* Figure 5: datacenter combinations.                                   *)

let combo_clusters = [ "VV"; "OV"; "VVV"; "COV"; "VVVO"; "VVVOC" ]

let fig5 ?seeds () =
  let pairs =
    run_pairs ?seeds
      (List.map (fun t -> (t, Ycsb.default, None)) combo_clusters)
  in
  List.map2 (fun topology (basic, cp) -> (topology, basic, cp)) combo_clusters
    pairs

let print_fig5a grid =
  heading "Figure 5(a)" "commits out of 500 for different datacenter combinations";
  let rows =
    List.map
      (fun (topology, basic, cp) ->
        [
          topology;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          round_col cp 0; round_col cp 1;
          Table.fmt_f (late_commits cp +. (if Array.length cp.by_round > 2 then cp.by_round.(2) else 0.));
        ])
      grid
  in
  Table.print
    ~header:[ "cluster"; "paxos"; "paxos-cp"; "cp r0"; "cp r1"; "cp r2+" ]
    rows;
  footnote
    "paper: CP improvement over basic roughly constant across combinations,\n\
     despite location-induced latency differences (VV vs OV, VVV vs COV)."

let print_fig5b grid =
  heading "Figure 5(b)" "average transaction latency (ms) per datacenter combination";
  let rows =
    List.map
      (fun (topology, basic, cp) ->
        [
          topology;
          Table.fmt_ms basic.txn_lat.Stats.mean;
          Table.fmt_ms cp.txn_lat.Stats.mean;
          Table.fmt_ms basic.lat_all.Stats.mean;
          Table.fmt_ms cp.lat_all.Stats.mean;
          (if Array.length cp.lat_by_round > 0 then
             Table.fmt_ms cp.lat_by_round.(0).Stats.mean
           else "-");
        ])
      grid
  in
  Table.print
    ~header:
      [ "cluster"; "txn paxos"; "txn cp"; "commit paxos"; "commit cp"; "commit cp r0" ]
    rows;
  footnote
    "paper: Virginia-only clusters (VV, VVV) significantly faster; quorums that\n\
     must cross regions (OV, COV) pay wide-area round trips."

let fig4a ?seeds () = print_fig4a (fig4 ?seeds ())
let fig4b ?seeds () = print_fig4b (fig4 ?seeds ())
let fig5a ?seeds () = print_fig5a (fig5 ?seeds ())
let fig5b ?seeds () = print_fig5b (fig5 ?seeds ())

(* ------------------------------------------------------------------ *)
(* Figure 6: data contention.                                           *)

let fig6 ?seeds () =
  heading "Figure 6" "commits out of 500 vs total attributes (data contention), VVV";
  let attrs = [ 20; 50; 100; 200; 500 ] in
  let pairs =
    run_pairs ?seeds
      (List.map
         (fun attributes -> ("VVV", { Ycsb.default with attributes }, None))
         attrs)
  in
  let rows =
    List.map2
      (fun attributes (basic, cp) ->
        [
          string_of_int attributes;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          round_col cp 0; round_col cp 1;
          Table.fmt_f (late_commits cp +. (if Array.length cp.by_round > 2 then cp.by_round.(2) else 0.));
          Table.fmt_f cp.aborts_conflict;
        ])
      attrs pairs
  in
  Table.print
    ~header:[ "attributes"; "paxos"; "paxos-cp"; "cp r0"; "cp r1"; "cp r2+"; "cp conflicts" ]
    rows;
  footnote
    "paper: basic flat (290..295) regardless of contention; CP from 370 (20 attrs,\n\
     heavy contention) up to 494 (500 attrs, minimal contention) — 27.5%% above\n\
     basic even in the worst case."

(* ------------------------------------------------------------------ *)
(* Figure 7: increasing concurrency.                                    *)

let fig7 ?seeds () =
  heading "Figure 7" "commits out of 500 vs target throughput (single YCSB instance), VVV";
  let rates = [ 1.; 2.; 4.; 8.; 16. ] in
  let pairs =
    run_pairs ?seeds
      (List.map
         (fun rate_total ->
           ( "VVV",
             { Ycsb.default with
               rate = rate_total /. float_of_int Ycsb.default.threads },
             None ))
         rates)
  in
  let rows =
    List.map2
      (fun rate_total (basic, cp) ->
        [
          Printf.sprintf "%.0f tps" rate_total;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          round_col cp 0; round_col cp 1;
          Table.fmt_f (late_commits cp +. (if Array.length cp.by_round > 2 then cp.by_round.(2) else 0.));
        ])
      rates pairs
  in
  Table.print
    ~header:[ "throughput"; "paxos"; "paxos-cp"; "cp r0"; "cp r1"; "cp r2+" ]
    rows;
  footnote
    "paper: both protocols lose commits as throughput grows; CP consistently ahead,\n\
     with promotions doing more of the work at higher concurrency."

(* ------------------------------------------------------------------ *)
(* Figure 8: one YCSB instance per datacenter.                          *)

let fig8 ?(seeds = default_seeds) () =
  heading "Figure 8" "per-datacenter commits (of 500) and latency, one YCSB instance each, VOC";
  (* Workers spread over all three datacenters; 500 transactions per
     datacenter at an aggregate 1 txn/s per instance. *)
  let workload =
    {
      Ycsb.default with
      total_txns = 1500;
      threads = 6;
      rate = 0.5;
      client_dcs = [ 0; 1; 2 ];
    }
  in
  let specs config =
    List.map (fun seed -> Experiment.spec ~seed ~config ~workload "VOC") seeds
  in
  let basic_runs, cp_runs =
    match run_trials [ specs Config.basic; specs Config.default ] with
    | [ b; c ] -> (b, c)
    | _ -> assert false
  in
  List.iter
    (fun (r : Experiment.result) ->
      match r.verified with
      | Ok () -> ()
      | Error m -> failwith ("fig8: serializability violated: " ^ m))
    (basic_runs @ cp_runs);
  (* Per run, the outcomes of the clients in [dc]. *)
  let at_dc dc runs =
    List.map
      (fun (r : Experiment.result) ->
        Audit.summarize
          (List.filter (fun (e : Audit.event) -> e.client_dc = dc) r.events))
      runs
  in
  let commits summaries =
    let n = List.fold_left (fun acc (s : Audit.summary) -> acc + s.commits) 0 summaries in
    Table.fmt_f (float_of_int n /. float_of_int (List.length seeds))
  in
  (* Mean over the runs with a commit at [dc] of their mean latency. *)
  let lat summaries =
    match
      List.filter_map
        (fun (s : Audit.summary) ->
          if s.commit_lats = [] then None else Some (Stats.mean s.commit_lats))
        summaries
    with
    | [] -> "-"
    | means -> Table.fmt_ms (Stats.mean means)
  in
  let rows =
    List.map
      (fun (dc, name) ->
        let basic = at_dc dc basic_runs and cp = at_dc dc cp_runs in
        [ name; commits basic; commits cp; lat basic; lat cp ])
      [ (0, "V"); (1, "O"); (2, "C") ]
  in
  Table.print
    ~header:[ "datacenter"; "paxos commits"; "cp commits"; "paxos lat"; "cp lat" ]
    rows;
  footnote
    "paper: O and C (20ms apart) form quorums more easily and commit slightly more;\n\
     CP commits at least 200%% more than basic at every datacenter, costing ~100%%\n\
     extra average latency (~50%% extra for first-round commits)."

(* ------------------------------------------------------------------ *)
(* In-text Paxos-CP statistics.                                         *)

let text_stats ?(seeds = default_seeds) () =
  heading "Text (§6)" "Paxos-CP combination and promotion profile, VVV, 100 attributes";
  let agg =
    aggregate
      (List.concat
         (run_trials
            [
              List.map
                (fun seed ->
                  Experiment.spec ~seed ~config:Config.default
                    ~workload:Ycsb.default "VVV")
                seeds;
            ]))
  in
  Printf.printf "combined log entries per experiment: mean %.1f, max %d (paper: 6.8, 24)\n"
    agg.combined agg.combined_max;
  Printf.printf "max promotions before outcome: %d (paper: 7)\n" agg.max_promotions;
  let within2 =
    (if Array.length agg.by_round > 0 then agg.by_round.(0) else 0.)
    +. (if Array.length agg.by_round > 1 then agg.by_round.(1) else 0.)
    +. if Array.length agg.by_round > 2 then agg.by_round.(2) else 0.
  in
  Printf.printf "commits within two promotions: %.1f of %.1f committed (paper: the majority)\n"
    within2 agg.commits;
  Printf.printf "promotion histogram (commits by round):";
  Array.iteri (fun i n -> if n > 0. then Printf.printf " r%d=%.1f" i n) agg.by_round;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* In-text claim: same per-instance message complexity (§5).             *)

let text_messages ?(seeds = default_seeds) () =
  heading "Text (§5)"
    "message complexity: Paxos-CP requires no extra messages per log position";
  let grouped =
    run_trials
      (List.map
         (fun config ->
           List.map
             (fun seed ->
               Experiment.spec ~seed ~config ~workload:Ycsb.default "VVV")
             seeds)
         [ Config.basic; Config.default ])
  in
  let per_position runs =
    (* Messages per decided log position: total datagrams divided by log
       entries; CP decides more transactions per run, so also report
       messages per *committed transaction*, plus the measured broadcast
       rounds and fast-path attempt rate. *)
    let msgs = mean_of (fun (r : Experiment.result) -> float_of_int r.messages_sent) runs in
    let commits = mean_of (fun (r : Experiment.result) -> float_of_int r.commits) runs in
    let rounds = mean_of (fun (r : Experiment.result) -> r.mean_rounds) runs in
    let fast = mean_of (fun (r : Experiment.result) -> r.fast_path_rate) runs in
    (msgs, msgs /. commits, rounds, fast)
  in
  let basic_runs, cp_runs =
    match grouped with [ b; c ] -> (b, c) | _ -> assert false
  in
  let b_msgs, b_per, b_rounds, b_fast = per_position basic_runs in
  let c_msgs, c_per, c_rounds, c_fast = per_position cp_runs in
  Table.print
    ~header:[ "protocol"; "messages"; "messages/commit"; "rounds/commit"; "fast-path" ]
    [
      [ "paxos"; Table.fmt_f b_msgs; Table.fmt_f b_per; Table.fmt_f b_rounds;
        Printf.sprintf "%.0f%%" (100. *. b_fast) ];
      [ "paxos-cp"; Table.fmt_f c_msgs; Table.fmt_f c_per; Table.fmt_f c_rounds;
        Printf.sprintf "%.0f%%" (100. *. c_fast) ];
    ];
  footnote
    "paper claim: Paxos-CP has the same per-instance message complexity as basic\n\
     Paxos; it wins by committing more transactions with those messages, so its\n\
     messages-per-commit should be no worse (promotions re-run instances, but each\n\
     aborted basic transaction wasted a full instance too)."

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper's evaluation.                             *)

(* The long-term-leader design the paper leaves as future work (§8),
   compared against both published protocols on a local-quorum cluster and
   a spread one. *)
let ext_leader ?(seeds = default_seeds) () =
  heading "Extension (§8)"
    "long-term leader vs basic Paxos vs Paxos-CP (paper's future work)";
  (* Clients spread evenly over the three datacenters, so any excess load
     at dc0 is the manager's own concentration, not client co-location. *)
  let workload =
    { Ycsb.default with threads = 6; client_dcs = [ 0; 1; 2 ] }
  in
  let protocols =
    [
      ("paxos", Config.basic);
      ("paxos-cp", Config.default);
      ("leader", Config.leader);
    ]
  in
  let grid =
    List.concat_map
      (fun topology ->
        List.map (fun (name, config) -> (topology, name, config)) protocols)
      [ "VVV"; "VOC" ]
  in
  let grouped =
    run_trials
      (List.map
         (fun (topology, _, config) ->
           List.map
             (fun seed -> Experiment.spec ~seed ~config ~workload topology)
             seeds)
         grid)
  in
  let rows =
    List.map2
      (fun (topology, name, _) runs ->
        let agg = aggregate runs in
            let msgs_per_commit =
              mean_of
                (fun (r : Experiment.result) ->
                  float_of_int r.messages_sent /. float_of_int (max 1 r.commits))
                runs
            in
            let leader_share =
              mean_of (fun (r : Experiment.result) -> r.leader_share) runs
            in
            [
              topology;
              name;
              Table.fmt_f agg.commits;
              Table.fmt_ms agg.lat_all.Stats.mean;
              Table.fmt_f msgs_per_commit;
              Printf.sprintf "%.0f%%" (100. *. leader_share);
            ])
      grid grouped
  in
  Table.print
    ~header:
      [ "cluster"; "protocol"; "commits"; "commit ms"; "msgs/commit"; "dc0 load share" ]
    rows;
  footnote
    "the paper (S7) predicts: fewer message rounds per transaction, but 'a greater\n\
     amount of work would fall on a single site' - visible in dc0's share of\n\
     delivered messages - and remote clients pay a wide-area hop to the manager."

(* Ablation of Paxos-CP's mechanisms: what do combination, promotion and
   the fast path each contribute? *)
let ablation_configs =
  [
    ("basic paxos", Config.basic);
    ("cp: promotion only", { Config.default with enable_combination = false });
    ("cp: promotions <= 1", { Config.default with max_promotions = Some 1 });
    ("cp: promotions <= 2", { Config.default with max_promotions = Some 2 });
    ("cp: no fast path", { Config.default with enable_fast_path = false });
    ("paxos-cp (full)", Config.default);
  ]

let ext_ablation ?(seeds = default_seeds) () =
  heading "Extension" "Paxos-CP mechanism ablation, VVV, 100 attributes";
  let grouped =
    run_trials
      (List.map
         (fun (_, config) ->
           List.map
             (fun seed ->
               Experiment.spec ~seed ~config ~workload:Ycsb.default "VVV")
             seeds)
         ablation_configs)
  in
  let rows =
    List.map2
      (fun (name, _) runs ->
        let agg = aggregate runs in
        [
          name;
          Table.fmt_f agg.commits;
          Table.fmt_f agg.aborts_conflict;
          Table.fmt_f agg.combined;
          string_of_int agg.max_promotions;
          Table.fmt_ms agg.lat_all.Stats.mean;
        ])
      ablation_configs grouped
  in
  Table.print
    ~header:[ "configuration"; "commits"; "conflicts"; "combined"; "max-prom"; "commit ms" ]
    rows;
  footnote
    "promotion does most of CP's work; combination adds a little on top (the paper\n\
     observes the same: 6.8 combinations on average, 'little effect'); capping\n\
     promotions at 2 keeps most of the benefit (most txns settle within 2)."

(* Sensitivity to message loss: the protocols under degrading networks. *)
let ext_loss ?(seeds = default_seeds) () =
  heading "Extension" "sensitivity to message loss, VVV";
  let losses = [ 0.0; 0.01; 0.05; 0.1 ] in
  let pairs =
    run_pairs ~seeds
      (List.map (fun loss -> ("VVV", Ycsb.default, Some loss)) losses)
  in
  let rows =
    List.map2
      (fun loss (basic, cp) ->
        [
          Printf.sprintf "%.1f%%" (100. *. loss);
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          Table.fmt_ms basic.lat_all.Stats.mean;
          Table.fmt_ms cp.lat_all.Stats.mean;
        ])
      losses pairs
  in
  Table.print
    ~header:[ "loss"; "paxos"; "paxos-cp"; "paxos ms"; "cp ms" ]
    rows;
  footnote
    "loss costs retries (latency) before it costs commits: both protocols keep\n\
     committing as long as quorums eventually answer within the 2s timeout."

(* The in-text claim that promotion beats application-level retry (§6):
   run the same intents as retry loops under basic Paxos vs as single
   CP commits, and compare eventual success and time-to-success. *)
let ext_retry ?(seeds = default_seeds) () =
  heading "Extension (§6 claim)"
    "promotion vs application-level retry: time until a transaction's intent commits";
  let module Cluster = Mdds_core.Cluster in
  let module Client = Mdds_core.Client in
  let module Runner = Mdds_core.Runner in
  let module Engine = Mdds_sim.Engine in
  let module Rng = Mdds_sim.Rng in
  let intents = 125 and threads = 4 in
  let run_one config seed =
    let cluster = Cluster.create ~seed ~config (Mdds_net.Topology.ec2 "VVV") in
    let committed = ref 0 and failed = ref 0 in
    let durations = ref [] and attempts_total = ref 0 in
    for worker = 0 to threads - 1 do
      let client = Cluster.client cluster ~dc:0 in
      let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
      Cluster.spawn cluster ~at:(0.25 *. float_of_int worker) (fun () ->
          let scheduled = ref (Engine.now (Cluster.engine cluster)) in
          for _i = 1 to intents do
            scheduled := !scheduled +. Rng.exponential rng 1.0;
            let now = Engine.now (Cluster.engine cluster) in
            if !scheduled > now then Engine.sleep (!scheduled -. now);
            let started = Engine.now (Cluster.engine cluster) in
            let outcome =
              Runner.run client ~group:"retry" ~max_attempts:10 (fun txn ->
                  for op = 0 to 9 do
                    let key = Printf.sprintf "a%03d" (Rng.int rng 100) in
                    if Rng.bool rng 0.5 then ignore (Client.read txn key)
                    else
                      Client.write txn key
                        (Printf.sprintf "%s#%d" (Client.txn_id txn) op)
                  done)
            in
            attempts_total := !attempts_total + outcome.Runner.attempts;
            (match outcome.Runner.final with
            | Mdds_core.Audit.Committed _ | Mdds_core.Audit.Read_only_committed ->
                incr committed;
                durations :=
                  (Engine.now (Cluster.engine cluster) -. started) :: !durations
            | _ -> incr failed)
          done)
    done;
    Cluster.run cluster;
    (match Mdds_core.Verify.check cluster ~group:"retry" with
    | Ok () -> ()
    | Error m -> failwith ("ext-retry: " ^ m));
    ( float_of_int !committed,
      float_of_int !attempts_total /. float_of_int (intents * threads),
      Stats.mean !durations )
  in
  let strategies =
    [ ("paxos + app retries", Config.basic); ("paxos-cp", Config.default) ]
  in
  (* Both strategies' seeds go to the pool as one batch; every trial has
     the same intents × threads load, so no cost estimate is needed. *)
  let grouped =
    run_grouped
      (fun (config, seed) -> run_one config seed)
      (List.map
         (fun (_, config) -> List.map (fun seed -> (config, seed)) seeds)
         strategies)
  in
  let rows =
    List.map2
      (fun (name, _) runs ->
        let avg f = Stats.mean (List.map f runs) in
        [
          name;
          Table.fmt_f (avg (fun (c, _, _) -> c));
          Table.fmt_f (avg (fun (_, a, _) -> a));
          Table.fmt_ms (avg (fun (_, _, d) -> d));
        ])
      strategies grouped
  in
  Table.print
    ~header:[ "strategy"; "eventual commits"; "attempts/intent"; "time-to-commit ms" ]
    rows;
  footnote
    "paper claim (S6): promotion costs less than an application retry, which must\n\
     re-read the data items and restart the commit protocol; here both strategies\n\
     eventually commit nearly everything, and CP gets there in fewer attempts and\n\
     less time per intent."

(* Scalability across transaction groups (§2.1): groups have independent
   logs and no cross-group coordination, so spreading a fixed load over
   more groups removes log-position contention. *)
let ext_groups ?seeds () =
  heading "Extension (§2.1)"
    "independent transaction groups: fixed 8 tps load spread over N groups";
  let group_counts = [ 1; 2; 4; 8 ] in
  let pairs =
    run_pairs ?seeds
      (List.map
         (fun groups ->
           ( "VVV",
             { Ycsb.default with
               groups; rate = 2.0; threads = 4; total_txns = 400 },
             None ))
         group_counts)
  in
  let rows =
    List.map2
      (fun groups (basic, cp) ->
        [
          string_of_int groups;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          Table.fmt_ms basic.lat_all.Stats.mean;
          Table.fmt_ms cp.lat_all.Stats.mean;
        ])
      group_counts pairs
  in
  Table.print
    ~header:[ "groups"; "paxos (of 400)"; "paxos-cp"; "paxos ms"; "cp ms" ]
    rows;
  footnote
    "the paper's §2.1 scalability argument measured: each group has its own log,\n\
     so the same aggregate load spread over more groups collides on log positions\n\
     less; even basic Paxos approaches full commits with enough groups."

(* Cross-group transactions (PROTOCOL.md §10): the paper's §2.1 design
   deliberately has no cross-group coordination; the multi-shot atomic
   commit is the extension that adds it. This figure measures what that
   coordination costs: the same load with a growing fraction of
   transactions spanning two groups. *)
let ext_cross ?(seeds = default_seeds) () =
  heading "Extension (PROTOCOL.md §10)"
    "multi-shot atomic commit: commit rate vs cross-group fraction, VVV, 4 groups";
  let module Cluster = Mdds_core.Cluster in
  let module Verify = Mdds_core.Verify in
  let module Twopc = Mdds_core.Twopc in
  let ratios = [ 0.0; 0.1; 0.3; 0.5 ] in
  let workload ratio =
    { Ycsb.default with
      groups = 4;
      cross_ratio = ratio;
      total_txns = 200;
      threads = 4;
      rate = 2.0;
      ops_per_txn = 4;
      attributes = 40;
    }
  in
  let run_one (ratio, seed) =
    let cluster =
      Cluster.create ~seed ~config:Config.leader (Mdds_net.Topology.ec2 "VVV")
    in
    let wl = workload ratio in
    ignore (Ycsb.run cluster wl);
    Cluster.run cluster;
    let groups = Ycsb.group_keys wl in
    List.iter (fun group -> Verify.check_exn cluster ~group) groups;
    Verify.check_cross_exn cluster ~groups;
    let cross, single =
      List.partition
        (fun (e : Audit.event) -> Twopc.is_audit_group e.group)
        (Ycsb.workload_events (Audit.events (Cluster.audit cluster)))
    in
    (* Read-only cross commits count here, unlike in [commit_lats]. *)
    let lats =
      List.filter_map
        (fun (e : Audit.event) ->
          match e.outcome with
          | Audit.Committed _ | Audit.Read_only_committed ->
              Some (e.committed_at -. e.commit_started_at)
          | Audit.Aborted _ | Audit.Unknown -> None)
        cross
    in
    (Audit.summarize cross, Audit.summarize single, lats)
  in
  let grouped =
    run_grouped run_one
      (List.map (fun r -> List.map (fun s -> (r, s)) seeds) ratios)
  in
  let rows =
    List.map2
      (fun ratio runs ->
        let avg f = Stats.mean (List.map (fun x -> float_of_int (f x)) runs) in
        let cross_lats = List.concat_map (fun (_, _, l) -> l) runs in
        [
          Printf.sprintf "%.0f%%" (100. *. ratio);
          Table.fmt_f (avg (fun (c, _, _) -> c.Audit.total));
          Table.fmt_f (avg (fun (c, _, _) -> c.Audit.commits));
          Table.fmt_f (avg (fun (_, s, _) -> s.Audit.total));
          Table.fmt_f (avg (fun (_, s, _) -> s.Audit.commits));
          (if cross_lats = [] then "-" else Table.fmt_ms (Stats.mean cross_lats));
        ])
      ratios grouped
  in
  Table.print
    ~header:
      [ "cross fraction"; "cross txns"; "cross commits"; "single txns";
        "single commits"; "cross commit ms" ]
    rows;
  footnote
    "a cross-group commit is multi-shot — one durable prepare per participant\n\
     log plus a decision and outcomes — so it pays a small multiple of the\n\
     single-group commit latency, and its prepare windows block conflicting\n\
     single-group admissions; both costs grow with the cross fraction."

(* Composition with the PR-8 throughput mode: aggregate goodput as the same
   offered load is spread over more independent group logs. *)
let ext_cross_tp ?(seed = 42) () =
  heading "Extension (PROTOCOL.md §10 x DESIGN.md §14)"
    "aggregate throughput vs transaction-group count, VVV, open loop at 60/s";
  let counts = [ 1; 2; 4; 8 ] in
  let modes = [ Throughput.baseline; Throughput.batched () ] in
  let grouped =
    run_grouped
      (fun (groups, mode) ->
        Throughput.run_point ~seed ~groups ~mode ~rate:60.0 ~txns:300 ())
      (List.map (fun g -> List.map (fun m -> (g, m)) modes) counts)
  in
  List.iter2
    (fun groups points ->
      List.iter
        (fun (p : Throughput.point) ->
          match p.Throughput.verified with
          | Ok () -> ()
          | Error m ->
              failwith (Printf.sprintf "ext-cross-tp: groups=%d: %s" groups m))
        points)
    counts grouped;
  let rows =
    List.map2
      (fun groups points ->
        let base, batched =
          match points with [ b; p ] -> (b, p) | _ -> assert false
        in
        [
          string_of_int groups;
          Printf.sprintf "%.1f" base.Throughput.committed_per_s;
          Printf.sprintf "%.1f" batched.Throughput.committed_per_s;
          string_of_int batched.Throughput.batches;
          string_of_int batched.Throughput.pipelined_rounds;
        ])
      counts grouped
  in
  Table.print
    ~header:
      [ "groups"; "baseline goodput/s"; "batched goodput/s"; "batches";
        "pipelined" ]
    rows;
  footnote
    "groups have independent logs (§2.1), so aggregate goodput scales with the\n\
     group count on both paths; batching/pipelining (§14) and group-level\n\
     parallelism compose — each group's leader batches its own admissions."

(* The knob grid: batch_max x pipeline_depth x batch_fill x topology. *)
let ext_knobs ?(seed = 42) () =
  heading "Extension (DESIGN.md §14.3)"
    "throughput knob grid: batch x depth x fill x topology, open loop at \
     120/s";
  let cells =
    Throughput.knob_sweep ~seed ~topologies:[ "VVV"; "VVVOC" ]
      ~batch_maxes:[ 1; 8 ] ~depths:[ 1; 4 ] ~fills:[ 0.005; 0.05 ]
      ~rate:120.0 ~txns:240 ()
  in
  List.iter
    (fun (topology, (p : Throughput.point)) ->
      match p.Throughput.verified with
      | Ok () -> ()
      | Error m ->
          failwith
            (Printf.sprintf "ext-knobs: %s %s: %s" topology
               p.Throughput.mode.Throughput.label m))
    cells;
  let rows =
    List.map
      (fun (topology, (p : Throughput.point)) ->
        [
          topology;
          string_of_int p.Throughput.mode.Throughput.batch_max;
          string_of_int p.Throughput.mode.Throughput.pipeline_depth;
          Printf.sprintf "%.3f" p.Throughput.mode.Throughput.batch_fill;
          Printf.sprintf "%.1f" p.Throughput.committed_per_s;
          Printf.sprintf "%.1f" (p.Throughput.latency.Stats.p50 *. 1000.);
        ])
      cells
  in
  Table.print
    ~header:
      [ "topology"; "batch"; "depth"; "fill(s)"; "goodput/s"; "p50(ms)" ]
    rows;
  footnote
    "every knob combination is measured at the same offered rate, so the grid\n\
     shows which knob pays where: depth without batching, batching without\n\
     depth, a long fill window (one entry per window) with and without\n\
     pipelining, and how the wide-area topology (VVVOC) moves the trade-off."

(* Access skew: the paper evaluates uniform access; YCSB's zipfian knob is
   the natural extension (hot keys sharpen read/write conflicts). *)
let ext_skew ?seeds () =
  heading "Extension" "access skew (YCSB zipfian) vs commits, VVV, 100 attributes";
  let dists =
    [
      ("uniform", Mdds_workload.Distribution.Uniform);
      ("zipfian 0.5", Mdds_workload.Distribution.Zipfian 0.5);
      ("zipfian 0.9", Mdds_workload.Distribution.Zipfian 0.9);
      ("zipfian 0.99", Mdds_workload.Distribution.Zipfian 0.99);
    ]
  in
  let pairs =
    run_pairs ?seeds
      (List.map
         (fun (_, distribution) ->
           ("VVV", { Ycsb.default with distribution }, None))
         dists)
  in
  let rows =
    List.map2
      (fun (label, _) (basic, cp) ->
        [
          label;
          Table.fmt_f basic.commits;
          Table.fmt_f cp.commits;
          Table.fmt_f cp.aborts_conflict;
        ])
      dists pairs
  in
  Table.print ~header:[ "distribution"; "paxos"; "paxos-cp"; "cp conflicts" ] rows;
  footnote
    "skew does not move basic Paxos (it aborts on position collisions, not data\n\
     conflicts) but erodes Paxos-CP's advantage: hot keys turn position losers\n\
     into true read-write conflicts that promotion cannot save."

(* ------------------------------------------------------------------ *)

(* Figures 4(a)/(b) print the same grid, as do 5(a)/(b); [fig4] and [fig5]
   say how a registry obtains it. *)
let registry ~fig4 ~fig5 =
  [
    ("fig4a", "commits vs replica count", fun () -> print_fig4a (fig4 ()));
    ("fig4b", "commit latency vs replica count", fun () -> print_fig4b (fig4 ()));
    ("fig5a", "commits per datacenter combination", fun () -> print_fig5a (fig5 ()));
    ("fig5b", "latency per datacenter combination", fun () -> print_fig5b (fig5 ()));
    ("fig6", "commits vs data contention", fun () -> fig6 ());
    ("fig7", "commits vs concurrency", fun () -> fig7 ());
    ("fig8", "per-datacenter instances", fun () -> fig8 ());
    ("text-cp", "combination/promotion profile", fun () -> text_stats ());
    ("text-msgs", "message complexity per commit", fun () -> text_messages ());
    ("ext-leader", "long-term-leader protocol (future work, §8)", fun () -> ext_leader ());
    ("ext-ablation", "Paxos-CP mechanism ablation", fun () -> ext_ablation ());
    ("ext-loss", "message-loss sensitivity", fun () -> ext_loss ());
    ("ext-retry", "promotion vs application retry (§6 claim)", fun () -> ext_retry ());
    ("ext-skew", "access-skew sensitivity (zipfian)", fun () -> ext_skew ());
    ("ext-groups", "scalability across transaction groups (§2.1)", fun () -> ext_groups ());
    ("ext-cross", "cross-group commit rate vs cross fraction (PROTOCOL.md §10)", fun () -> ext_cross ());
    ("ext-cross-tp", "aggregate throughput vs group count (§10 x §14)", fun () -> ext_cross_tp ());
    ("ext-knobs", "throughput knob grid: batch x depth x fill x topology", fun () -> ext_knobs ());
  ]

(* Every run computes its grid afresh. *)
let all = registry ~fig4 ~fig5

let resolve_in registry ids =
  let ids = if ids = [] then List.map (fun (id, _, _) -> id) registry else ids in
  List.map
    (fun id ->
      match List.find_opt (fun (id', _, _) -> id = id') registry with
      | Some (_, _, run) -> (id, run)
      | None -> invalid_arg ("Figures.resolve: unknown figure " ^ id))
    ids

let resolve = resolve_in all

(* Within one call each shared grid runs at most once. *)
let run_ids ids =
  let fig4 = lazy (fig4 ()) and fig5 = lazy (fig5 ()) in
  resolve_in
    (registry ~fig4:(fun () -> Lazy.force fig4) ~fig5:(fun () -> Lazy.force fig5))
    ids
  |> List.iter (fun (_, run) -> run ())
