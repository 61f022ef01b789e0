(* Tests for the experiment harness: statistics, table rendering, and the
   experiment runner itself. *)

module Stats = Mdds_harness.Stats
module Table = Mdds_harness.Table
module Experiment = Mdds_harness.Experiment
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Ycsb = Mdds_workload.Ycsb

(* ------------------------------------------------------------------ *)
(* Stats.                                                               *)

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean empty" 0.0 (Stats.mean []);
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "stddev singleton" 0.0 (Stats.stddev [ 5.0 ]);
  Alcotest.(check (float 1e-6)) "stddev" 1.0 (Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p95" 95.0 (Stats.percentile xs 95.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p0 clamps to min" 1.0 (Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.percentile [] 50.0);
  (* Unsorted input is handled. *)
  Alcotest.(check (float 1e-9)) "unsorted" 2.0 (Stats.percentile [ 3.0; 1.0; 2.0 ] 50.0)

let test_summarize () =
  let s = Stats.summarize [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "count" 4 s.Stats.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.Stats.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.Stats.max;
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.Stats.p50;
  let e = Stats.summarize [] in
  Alcotest.(check int) "empty count" 0 e.Stats.count

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles are monotone in p" ~count:200
    QCheck.(list_of_size Gen.(1 -- 30) (float_bound_inclusive 100.0))
    (fun xs ->
      let p1 = Stats.percentile xs 25.0
      and p2 = Stats.percentile xs 50.0
      and p3 = Stats.percentile xs 90.0 in
      p1 <= p2 && p2 <= p3)

(* ------------------------------------------------------------------ *)
(* Table.                                                               *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bbbb" ] [ [ "xx"; "y" ]; [ "z" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "header + sep + rows" 4 (List.length lines);
  (match lines with
  | header :: sep :: _ ->
      Alcotest.(check bool) "header padded" true
        (String.length header >= String.length "a   bbbb");
      Alcotest.(check bool) "separator dashes" true (String.contains sep '-')
  | _ -> Alcotest.fail "shape");
  Alcotest.(check string) "fmt_f" "3.5" (Table.fmt_f 3.49);
  Alcotest.(check string) "fmt_ms" "250.0" (Table.fmt_ms 0.25);
  Alcotest.(check string) "fmt_pct" "50.0%" (Table.fmt_pct ~num:1 ~den:2);
  Alcotest.(check string) "fmt_pct zero den" "-" (Table.fmt_pct ~num:1 ~den:0)

(* ------------------------------------------------------------------ *)
(* Experiment runner.                                                   *)

let small_workload =
  { Ycsb.default with total_txns = 30; threads = 3; rate = 3.0; attributes = 20 }

let test_experiment_run () =
  let spec =
    Experiment.spec ~seed:7 ~config:Config.default ~workload:small_workload "VVV"
  in
  let r = Experiment.run spec in
  Alcotest.(check int) "total excludes preload" 30 r.Experiment.total;
  Alcotest.(check bool) "commits + aborts = total" true
    (r.Experiment.commits + r.Experiment.aborts = r.Experiment.total);
  Alcotest.(check bool) "verified" true (r.Experiment.verified = Ok ());
  Alcotest.(check bool) "sim time positive" true (r.Experiment.sim_duration > 0.0);
  let by_round = Array.fold_left ( + ) 0 r.Experiment.commits_by_round in
  (* Read-only transactions count as commits but not rounds. *)
  Alcotest.(check bool) "rounds <= commits" true (by_round <= r.Experiment.commits);
  Alcotest.(check bool) "brief printable" true
    (String.length (Format.asprintf "%a" Experiment.pp_brief r) > 0)

let test_experiment_deterministic () =
  let spec =
    Experiment.spec ~seed:11 ~config:Config.basic ~workload:small_workload "VVV"
  in
  let a = Experiment.run spec and b = Experiment.run spec in
  Alcotest.(check int) "same commits" a.Experiment.commits b.Experiment.commits;
  Alcotest.(check int) "same aborts" a.Experiment.aborts b.Experiment.aborts;
  Alcotest.(check (float 1e-9)) "same sim duration" a.Experiment.sim_duration
    b.Experiment.sim_duration

let test_experiment_seed_changes_outcome () =
  let r seed =
    Experiment.run
      (Experiment.spec ~seed ~config:Config.default ~workload:small_workload "VVV")
  in
  let a = r 1 and b = r 2 in
  (* Different seeds must at least shuffle timings; durations coincide
     only with vanishing probability. *)
  Alcotest.(check bool) "different executions" true
    (a.Experiment.sim_duration <> b.Experiment.sim_duration)

let test_commits_by_dc () =
  let workload = { small_workload with Ycsb.client_dcs = [ 0; 1; 2 ] } in
  let r =
    Experiment.run (Experiment.spec ~seed:3 ~config:Config.default ~workload "VVV")
  in
  let per_dc =
    List.map
      (fun dc ->
        Audit.summarize
          (List.filter (fun (e : Audit.event) -> e.client_dc = dc) r.Experiment.events))
      [ 0; 1; 2 ]
  in
  Alcotest.(check bool) "three datacenters" true
    (List.for_all (fun (s : Audit.summary) -> s.total > 0) per_dc);
  let total = List.fold_left (fun acc (s : Audit.summary) -> acc + s.total) 0 per_dc in
  Alcotest.(check int) "totals add up" 30 total

(* ------------------------------------------------------------------ *)
(* Knob sweep (DESIGN.md §14.3): the grid behind [mdds throughput
   --sweep] and the CI sweep artifact.                                  *)

module Throughput = Mdds_harness.Throughput

let small_grid () =
  Throughput.knob_sweep ~seed:5 ~topologies:[ "VVV" ] ~batch_maxes:[ 1; 2 ]
    ~depths:[ 1 ] ~fills:[ 0.005; 0.05 ] ~rate:40.0 ~txns:40 ()

let test_knob_sweep_shape () =
  let cells = small_grid () in
  (* One cell per point of the cartesian product, every cell tagged with
     its topology and oracle-clean. *)
  Alcotest.(check int) "topology x batch x depth x fill" 4 (List.length cells);
  Alcotest.(check (list (float 0.0))) "fill axis, in grid order"
    [ 0.005; 0.005; 0.05; 0.05 ]
    (List.map (fun (_, p) -> p.Throughput.mode.Throughput.batch_fill) cells);
  List.iter
    (fun (topo, (p : Throughput.point)) ->
      Alcotest.(check string) "topology tag" "VVV" topo;
      Alcotest.(check bool) "verified" true (p.Throughput.verified = Ok ());
      Alcotest.(check bool) "positions were proposed" true
        (p.Throughput.batches > 0);
      Alcotest.(check bool) "unbatched cells carry one txn per position" true
        (p.Throughput.mode.Throughput.batch_max > 1
        || p.Throughput.batched_txns = p.Throughput.batches))
    cells

let test_knob_sweep_deterministic () =
  let a = small_grid () and b = small_grid () in
  List.iter2
    (fun (_, (pa : Throughput.point)) (_, (pb : Throughput.point)) ->
      Alcotest.(check int) "same committed" pa.Throughput.committed
        pb.Throughput.committed;
      Alcotest.(check (float 1e-9)) "same goodput" pa.Throughput.committed_per_s
        pb.Throughput.committed_per_s)
    a b

let test_knob_sweep_csv () =
  let cells = small_grid () in
  let csv = Throughput.knob_to_csv cells in
  (match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
      Alcotest.(check string) "csv header"
        "topology,mode,batch_max,pipeline_depth,batch_fill,rate,txns,committed,committed_per_s,p50_ms,p99_ms,batches,verified"
        header;
      Alcotest.(check int) "one row per cell" (List.length cells)
        (List.length rows)
  | [] -> Alcotest.fail "empty csv");
  let json = Throughput.knob_to_json cells in
  Alcotest.(check bool) "json is an array" true
    (String.length json > 0 && json.[0] = '[')

(* An offered rate must be finite and positive: an infinite rate used to
   run and write ["rate": inf], which is not JSON. *)
let test_bad_rate_rejected rate () =
  Alcotest.check_raises "rejected"
    (Invalid_argument "Throughput.run_point: rate must be finite and positive")
    (fun () ->
      ignore
        (Throughput.run_point ~mode:Throughput.baseline ~rate ~txns:10 ()))

(* Saturation floors (DESIGN.md §14): virtual-time goodput ratios at
   over-saturated offered rates, deterministic in the seed, so the floors
   can be tight. At 150/s, far past the unbatched baseline's ~20
   committed/s on VVV, batching and a long fill window (fill bound 64,
   depth 1, 50 ms) must each sustain [throughput_floor] x the baseline.
   At 2000/s a fill bound of 8 keeps one group consensus-round bound, so
   four independent group logs must lift aggregate goodput by
   [groups_floor] x. *)
let throughput_floor = 2.0
let groups_floor = 1.8

let long_fill ~batch_max =
  Throughput.batched ~batch_max ~pipeline_depth:1 ~fill:0.05 ()

let test_saturation_floors ~txns ~groups_txns () =
  let goodput ?groups ~rate ~txns mode =
    let p = Throughput.run_point ~seed:42 ?groups ~mode ~rate ~txns () in
    Alcotest.(check bool)
      (Printf.sprintf "%s at %.0f/s verified" mode.Throughput.label rate)
      true
      (p.Throughput.verified = Ok ());
    p.Throughput.committed_per_s
  in
  let floor name ratio min =
    if not (ratio >= min) then
      Alcotest.failf "%s: %.2fx is below the %.1fx floor" name ratio min
  in
  let base = goodput ~rate:150.0 ~txns Throughput.baseline in
  let batched = goodput ~rate:150.0 ~txns (Throughput.batched ()) in
  let long = goodput ~rate:150.0 ~txns (long_fill ~batch_max:64) in
  floor "batched / baseline" (batched /. base) throughput_floor;
  floor "long fill / baseline" (long /. base) throughput_floor;
  let groups n =
    goodput ~groups:n ~rate:2000.0 ~txns:groups_txns (long_fill ~batch_max:8)
  in
  floor "4 groups / 1 group" (groups 4 /. groups 1) groups_floor

(* Allocation budget: minor words per commit, which unlike CPU time do
   not move with the host, for one small instance of each benchmark
   shape. The simulation and the oracle phase
   ([Verify.check] per group, plus [Verify.check_cross] on cross-group)
   are counted separately, on one domain. Each instance runs once
   unmeasured first, so the process-wide key interner holds its keys
   whatever ran before it, then twice measured: the two counts must be
   identical. A ceiling holds for the compiler it was recorded with
   (minor words depend on code generation); it only ever goes down, in
   the change that cuts the allocation. *)
module Cluster = Mdds_core.Cluster
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology

(* Recorded with dune's default (dev) profile on a compiler without
   flambda; a release build or an flambda switch of the same version
   generates other code and may need ceilings of its own. *)
let recorded_on = "5.1.1"

(* Per commit at most [recorded * (1 + headroom)]. *)
let headroom = 0.02

(* shape, simulation words/commit, oracle words/commit *)
let ceilings =
  [
    ("ycsb-cp", 4747.6, 103.5);
    ("batched leader", 5720.5, 104.7);
    ("failover", 7792.3, 110.8);
    ("cross-group", 9739.8, 650.2);
  ]

let batched = Config.throughput ~batch_max:8 ~pipeline_depth:4 Config.leader

(* Each shape: a cluster set up with its workload, its groups, and
   whether it runs cross-group transactions. *)
let budget_shapes =
  let ycsb ?storage ?(topology = Topology.ec2 "VVV") ~config workload () =
    let cluster = Cluster.create ~seed:3 ~config ?storage topology in
    ignore (Ycsb.run cluster workload);
    (cluster, Ycsb.group_keys workload, workload.Ycsb.cross_ratio > 0.0)
  in
  [
    ( "ycsb-cp",
      ycsb ~config:Config.default { Ycsb.default with total_txns = 120 } );
    ( "batched leader",
      ycsb ~config:batched ~topology:(Topology.ec2 ~loss:0.0 "VVV")
        { Ycsb.default with total_txns = 200; rate = 20.0 } );
    ( "failover",
      fun () ->
        let ((cluster, _, _) as shape) =
          ycsb ~config:batched ~storage:Mdds_kvstore.Store.Sync_explicit
            ~topology:(Topology.ec2 "VVVOC")
            {
              Ycsb.default with
              total_txns = 150;
              threads = 5;
              rate = 2.0;
              client_dcs = [ 0; 1; 2; 3; 4 ];
            }
            ()
        in
        Cluster.spawn cluster ~at:5.0 (fun () ->
            Cluster.take_down cluster 0;
            Mdds_sim.Engine.sleep 4.0;
            Cluster.bring_up cluster 0;
            Cluster.dirty_restart cluster 0);
        shape );
    ( "cross-group",
      ycsb ~config:Config.leader
        {
          Ycsb.default with
          total_txns = 120;
          groups = 4;
          cross_ratio = 0.3;
          threads = 6;
          rate = 0.5;
          client_dcs = [ 0; 1; 2 ];
        } );
  ]

(* Minor words per commit of the simulation, of the per-group oracles
   and of the cross-group oracle. *)
let words_per_commit setup =
  let cluster, groups, cross = setup () in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let sim = words (fun () -> Cluster.run cluster) in
  let check =
    words (fun () ->
        List.iter (fun group -> Verify.check_exn cluster ~group) groups)
  in
  let check_cross =
    words (fun () -> if cross then Verify.check_cross_exn cluster ~groups)
  in
  let commits =
    float_of_int (Audit.summarize (Audit.events (Cluster.audit cluster))).commits
  in
  (commits, sim /. commits, (check /. commits, check_cross /. commits))

let test_alloc_budget name setup () =
  Mdds_parallel.Pool.set_jobs (Some 1);
  Fun.protect ~finally:(fun () -> Mdds_parallel.Pool.set_jobs None)
  @@ fun () ->
  ignore (words_per_commit setup);
  let ((commits, sim, (per_group, cross_group)) as first) = words_per_commit setup in
  Alcotest.(check (triple (float 0.0) (float 0.0) (pair (float 0.0) (float 0.0))))
    "identical words on a second run" first (words_per_commit setup);
  let _, sim_ceiling, oracle_ceiling =
    List.find (fun (n, _, _) -> String.equal n name) ceilings
  in
  let oracle = per_group +. cross_group in
  Printf.printf "%s on OCaml %s, %.0f commits: simulate %.1f, oracle %.1f words/commit"
    name Sys.ocaml_version commits sim oracle;
  if cross_group > 0.0 then
    Printf.printf " (check %.1f + check_cross %.1f)" per_group cross_group;
  print_newline ();
  if String.equal Sys.ocaml_version recorded_on then begin
    let within what words ceiling =
      if words > ceiling *. (1.0 +. headroom) then
        Alcotest.failf "%s: %s %.1f words/commit is above its ceiling %.1f (+%.0f%%)"
          name what words ceiling (100.0 *. headroom)
    in
    within "simulate" sim sim_ceiling;
    within "oracle" oracle oracle_ceiling
  end

(* Resident budget: the words the cluster still holds once its run is
   over ([Obj.reachable_words] of the whole cluster: stores, logs,
   decoded views, audit trail), per commit, on the same four shapes.
   Like minor words, the count is a pure function of the shape and the
   compiler, so the same warm-up and identity rules apply; what it
   prices is the per-position footprint a replica keeps, which the major
   GC marks on every cycle. *)
let resident_ceilings =
  [
    ("ycsb-cp", 438.7);
    ("batched leader", 505.0);
    ("failover", 1004.2);
    ("cross-group", 1189.7);
  ]

let resident_per_commit setup =
  let cluster, _, _ = setup () in
  Cluster.run cluster;
  let commits =
    float_of_int (Audit.summarize (Audit.events (Cluster.audit cluster))).commits
  in
  (commits, float_of_int (Obj.reachable_words (Obj.repr cluster)) /. commits)

let test_resident_budget name setup () =
  Mdds_parallel.Pool.set_jobs (Some 1);
  Fun.protect ~finally:(fun () -> Mdds_parallel.Pool.set_jobs None)
  @@ fun () ->
  ignore (resident_per_commit setup);
  let ((commits, words) as first) = resident_per_commit setup in
  Alcotest.(check (pair (float 0.0) (float 0.0)))
    "identical words on a second run" first (resident_per_commit setup);
  Printf.printf "%s on OCaml %s, %.0f commits: resident %.1f words/commit\n"
    name Sys.ocaml_version commits words;
  let ceiling = List.assoc name resident_ceilings in
  if String.equal Sys.ocaml_version recorded_on && words > ceiling *. (1.0 +. headroom)
  then
    Alcotest.failf "%s: resident %.1f words/commit is above its ceiling %.1f (+%.0f%%)"
      name words ceiling (100.0 *. headroom)

(* Every id resolves before any figure runs: an unknown one is refused
   without first printing the tables of the ids before it. *)
let test_unknown_figure_rejected () =
  let module Figures = Mdds_harness.Figures in
  Alcotest.(check int) "no ids means every figure"
    (List.length Figures.all)
    (List.length (Figures.resolve []));
  Alcotest.check_raises "unknown id"
    (Invalid_argument "Figures.resolve: unknown figure nope")
    (fun () -> Figures.run_ids [ "fig4a"; "nope" ])

let () =
  Alcotest.run "harness"
    [
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "summarize" `Quick test_summarize;
          QCheck_alcotest.to_alcotest prop_percentile_monotone;
        ] );
      ("table", [ Alcotest.test_case "render" `Quick test_table_render ]);
      ( "experiment",
        [
          Alcotest.test_case "run" `Quick test_experiment_run;
          Alcotest.test_case "deterministic" `Quick test_experiment_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_experiment_seed_changes_outcome;
          Alcotest.test_case "commits by datacenter" `Quick test_commits_by_dc;
        ] );
      ( "knob-sweep",
        [
          Alcotest.test_case "grid shape and oracle" `Quick test_knob_sweep_shape;
          Alcotest.test_case "deterministic" `Quick test_knob_sweep_deterministic;
          Alcotest.test_case "csv/json artifacts" `Quick test_knob_sweep_csv;
          Alcotest.test_case "infinite rate rejected" `Quick
            (test_bad_rate_rejected Float.infinity);
          Alcotest.test_case "NaN rate rejected" `Quick
            (test_bad_rate_rejected Float.nan);
        ] );
      ( "saturation-floors",
        [
          Alcotest.test_case "short runs (300/1200 txns)" `Quick
            (test_saturation_floors ~txns:300 ~groups_txns:1200);
          Alcotest.test_case "long runs (1200/2400 txns)" `Quick
            (test_saturation_floors ~txns:1200 ~groups_txns:2400);
        ] );
      ( "alloc-budget",
        List.map
          (fun (name, setup) ->
            Alcotest.test_case name `Quick (test_alloc_budget name setup))
          budget_shapes );
      ( "resident-budget",
        List.map
          (fun (name, setup) ->
            Alcotest.test_case name `Quick (test_resident_budget name setup))
          budget_shapes );
      ( "figures",
        [
          Alcotest.test_case "unknown id rejected before any runs" `Quick
            test_unknown_figure_rejected;
        ] );
    ]
