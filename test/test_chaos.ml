(* Chaos engine: soak battery, determinism, schedule round-trip, the
   generator's connected-majority invariant, and the shrinker. *)

module Schedule = Mdds_chaos.Schedule
module Runner = Mdds_chaos.Runner
module Shrink = Mdds_chaos.Shrink
module Config = Mdds_core.Config
module Cluster = Mdds_core.Cluster
module Counters = Mdds_core.Counters
module Network = Mdds_net.Network

(* ------------------------------------------------------------------ *)
(* Soak: every protocol on two topologies, several seeds each, full
   fault mix, full oracle suite. Any violation prints its repro line. *)

let protocols = [ Config.Basic; Config.Cp; Config.Leader ]

let battery_combos =
  List.concat_map
    (fun proto ->
      List.concat_map
        (fun (topo, seeds) -> List.map (fun seed -> (proto, topo, seed)) seeds)
        [ ("VVV", [ 1; 2; 3; 4 ]); ("VVVOC", [ 1; 2; 3 ]) ])
    protocols

let test_battery () =
  Alcotest.(check bool)
    "at least 20 combos" true
    (List.length battery_combos >= 20);
  List.iter
    (fun (proto, topo, seed) ->
      let spec =
        Runner.spec ~config:(Runner.default_config proto) ~seed topo
      in
      let report = Runner.run spec in
      (match report.Runner.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "%s/%s seed %d: %s@.repro: %s" topo
            (Config.protocol_name proto) seed v (Runner.repro report));
      Alcotest.(check bool)
        "made progress" true
        (report.Runner.commits >= Runner.min_commits))
    battery_combos

(* ------------------------------------------------------------------ *)
(* Throughput dimension (PR 8): batched/pipelined commit under the full
   fault mix. batch_max/pipeline_depth are drawn per seed (never both 1)
   and the workload is dense enough that batches fill and pipelined
   positions overlap while faults land; the full oracle suite must still
   pass, and across the battery both mechanisms must actually engage. *)

let test_throughput_battery () =
  let topo = "VVV" in
  let duration = 20.0 in
  let seeds = List.init 25 (fun i -> i + 1) in
  let workload =
    Runner.throughput_workload ~dcs:(String.length topo) ~duration
  in
  let specs =
    List.map
      (fun seed ->
        let config =
          Runner.throughput_config ~seed (Runner.default_config Config.Leader)
        in
        Runner.spec ~config ~duration ~workload ~seed topo)
      seeds
  in
  let reports = Runner.run_many specs in
  List.iter
    (fun (r : Runner.report) ->
      (match r.Runner.violation with
      | None -> ()
      | Some v ->
          Alcotest.failf "throughput seed %d (batch %d, depth %d): %s@.repro: %s"
            r.Runner.run_spec.Runner.seed
            r.Runner.run_spec.Runner.config.Config.batch_max
            r.Runner.run_spec.Runner.config.Config.pipeline_depth v
            (Runner.repro r));
      Alcotest.(check bool)
        "throughput mode actually on" true
        (Config.throughput_mode r.Runner.run_spec.Runner.config);
      Alcotest.(check bool)
        "made progress" true
        (r.Runner.commits >= Runner.min_commits))
    reports;
  let count =
    Counters.get (Counters.sum (List.map (fun r -> r.Runner.counters) reports))
  in
  let batched = count Batched_txns
  and pipelined = count Pipelined_rounds
  and stalls = count Pipeline_stalls in
  Alcotest.(check bool) "batched txns flowed" true (batched > 0);
  Alcotest.(check bool) "pipelined rounds overlapped" true (pipelined > 0);
  Alcotest.(check bool) "stalled windows were resolved" true (stalls > 0)

(* A failed run keeps as many trace events as asked for, past the old
   fixed 40; a passing run keeps none. *)
let test_trace_tail_length () =
  let spec = Runner.spec ~seed:1 "VVV" in
  let forced _ = Error "injected failure" in
  let tail n = (Runner.run ~extra_oracle:forced ~trace_tail:n spec).Runner.trace_tail in
  Alcotest.(check int) "100 asked, 100 kept" 100 (List.length (tail 100));
  Alcotest.(check int) "5 asked, 5 kept" 5 (List.length (tail 5));
  Alcotest.(check (list string)) "the 5 are the newest of the 100"
    (List.filteri (fun i _ -> i >= 95) (tail 100))
    (tail 5);
  Alcotest.(check (list string)) "a passing run keeps none" []
    (Runner.run ~trace_tail:100 spec).Runner.trace_tail

(* ------------------------------------------------------------------ *)
(* Reproducibility: the same spec twice gives byte-identical schedules,
   outcome counts and repro line. *)

let test_determinism () =
  let spec = Runner.spec ~seed:11 "VVV" in
  let a = Runner.run spec in
  let b = Runner.run spec in
  Alcotest.(check string)
    "schedules identical"
    (Schedule.to_string a.Runner.schedule)
    (Schedule.to_string b.Runner.schedule);
  Alcotest.(check (list string)) "repro identical" [ Runner.repro a ] [ Runner.repro b ];
  Alcotest.(check int) "commits identical" a.Runner.commits b.Runner.commits;
  Alcotest.(check int) "aborts identical" a.Runner.aborts b.Runner.aborts;
  Alcotest.(check int) "faults identical" a.Runner.faults b.Runner.faults

(* ------------------------------------------------------------------ *)
(* Schedule text form is exact: parse (print s) = s for generated
   schedules across seeds, datacenter counts and durations. *)

let test_roundtrip () =
  for seed = 1 to 20 do
    let dcs = if seed mod 2 = 0 then 3 else 5 in
    let s = Schedule.generate ~seed ~dcs ~duration:25.0 () in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d generates events" seed)
      true (s <> []);
    let s' = Schedule.of_string (Schedule.to_string s) in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d round-trips" seed)
      true (s = s')
  done

(* ------------------------------------------------------------------ *)
(* Generator invariant: replaying any generated schedule against a model
   of the fault state never disconnects a majority — at every step the
   datacenters that are up and outside the partition minority form a
   quorum. This is what entitles the runner to assert availability. *)

let test_connected_majority () =
  for seed = 1 to 30 do
    let dcs = 3 + (seed mod 3) in
    let quorum = (dcs / 2) + 1 in
    let s = Schedule.generate ~seed ~dcs ~duration:30.0 () in
    let down = Array.make dcs false in
    let minority = ref [] in
    let check () =
      let main =
        List.length
          (List.filter
             (fun i -> (not down.(i)) && not (List.mem i !minority))
             (List.init dcs Fun.id))
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d (dcs=%d): connected majority" seed dcs)
        true (main >= quorum)
    in
    check ();
    List.iter
      (fun { Schedule.fault; _ } ->
        (match fault with
        | Schedule.Crash d -> down.(d) <- true
        | Schedule.Recover d -> down.(d) <- false
        | Schedule.Partition parts ->
            (* The generator emits [minority; majority]. *)
            minority := List.hd parts
        | Schedule.Heal -> minority := []
        | Schedule.Restart _ | Schedule.Dirty_crash _ | Schedule.Torn_write _
        | Schedule.Storm _ | Schedule.Compact _ | Schedule.One_way_cut _
        | Schedule.Slow_node _ | Schedule.Flap _ | Schedule.Dup_storm _
        | Schedule.Mid_2pc _ -> ());
        check ())
      s
  done

(* ------------------------------------------------------------------ *)
(* Shrinker: inject an artificial oracle violation (fails iff any
   message was dropped at a downed datacenter, i.e. iff the run had an
   effective crash window) and check the minimized schedule is strictly
   smaller, still failing, and replayable from its printed form. *)

let test_shrinker () =
  let spec = Runner.spec ~seed:1 "VVV" in
  let oracle cluster =
    if (Network.stats (Cluster.network cluster)).Network.dropped_down > 0 then
      Error "injected: a message was dropped at a downed datacenter"
    else Ok ()
  in
  let report = Runner.run ~extra_oracle:oracle spec in
  Alcotest.(check bool) "original run fails" true (Runner.failed report);
  Alcotest.(check bool)
    "original schedule is not already minimal" true
    (List.length report.Runner.schedule > 1);
  let fails sch =
    Runner.failed (Runner.run ~schedule:sch ~extra_oracle:oracle spec)
  in
  let minimal, runs = Shrink.minimize ~fails report.Runner.schedule in
  Alcotest.(check bool)
    "strictly smaller" true
    (List.length minimal < List.length report.Runner.schedule);
  Alcotest.(check bool) "spent re-runs" true (runs > 0);
  Alcotest.(check bool) "minimal still fails" true (fails minimal);
  (* The minimal counterexample for "some crash window had traffic" is a
     single crash event. *)
  Alcotest.(check int) "minimal is one event" 1 (List.length minimal);
  (match minimal with
  | [ { Schedule.fault = Schedule.Crash _; _ } ] -> ()
  | _ -> Alcotest.fail "expected a lone crash event");
  (* Replayable: the printed schedule reproduces the failure verbatim. *)
  let replayed = Schedule.of_string (Schedule.to_string minimal) in
  Alcotest.(check bool) "replay equals minimal" true (replayed = minimal);
  Alcotest.(check bool) "replay still fails" true (fails replayed)

(* ------------------------------------------------------------------ *)
(* An explicitly supplied schedule is used verbatim (repro path). *)

let test_explicit_schedule () =
  let spec = Runner.spec ~seed:13 "VVV" in
  let schedule =
    Schedule.of_string "((2.5 (crash 2)) (6.0 (recover 2)) (8.0 (compact 0)))"
  in
  let report = Runner.run ~schedule spec in
  Alcotest.(check string)
    "schedule taken verbatim"
    (Schedule.to_string schedule)
    (Schedule.to_string report.Runner.schedule);
  match report.Runner.violation with
  | None -> ()
  | Some v -> Alcotest.failf "explicit schedule run failed: %s" v

(* ------------------------------------------------------------------ *)
(* Gray failures: an explicit schedule drawing every new fault kind must
   pass all oracles — including the bounded-unavailability one — and the
   report must carry a meaningful availability timeline and per-fault
   time-to-recovery. The dup-storm window is made aggressive enough that
   duplicated deliveries demonstrably reached the services. *)

let test_gray_failures () =
  let spec = Runner.spec ~seed:7 "VVV" in
  let schedule =
    Schedule.of_string
      "((2 (one-way-cut 0 1 5)) (4 (slow-node 2 4 8)) (6 (flap 1 2 0.4 10)) \
       (9 (dup-storm 0.5 14)) (12 (one-way-cut 2 0 16)))"
  in
  (match Schedule.validate ~dcs:3 schedule with
  | Ok () -> ()
  | Error m -> Alcotest.failf "gray schedule invalid: %s" m);
  let report = Runner.run ~schedule spec in
  (match report.Runner.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "gray-failure run violated an oracle: %s@.repro: %s" v
        (Runner.repro report));
  let stats = report.Runner.net_stats in
  Alcotest.(check bool)
    "one-way cut or flap dropped traffic" true
    (stats.Network.dropped_oneway > 0);
  Alcotest.(check bool) "messages were duplicated" true (stats.Network.duplicated > 0);
  Alcotest.(check bool)
    "requests hedged to another datacenter" true
    (Counters.get report.Runner.counters Hedges > 0);
  Alcotest.(check bool)
    "timeline covers run + heal windows" true
    (Array.length report.Runner.timeline
    >= int_of_float (spec.Runner.duration /. Runner.probe_window));
  Alcotest.(check bool) "some windows were up" true (Runner.up_windows report > 0);
  Alcotest.(check int)
    "one ttr entry per fault"
    (List.length schedule)
    (List.length report.Runner.recovery_times);
  List.iter
    (fun (_, ttr) ->
      match ttr with
      | None -> Alcotest.fail "a fault never saw a probe commit after it"
      | Some t -> Alcotest.(check bool) "ttr non-negative" true (t >= 0.0))
    report.Runner.recovery_times

(* Duplicated deliveries must be absorbed idempotently: under a
   full-duration dup-storm, replayed Apply notifications hit the services
   (counted by the dedup telemetry) while every safety oracle still
   passes — nothing is applied or granted twice. *)

let test_dup_storm_idempotence () =
  let spec = Runner.spec ~seed:3 "VVV" in
  let schedule = Schedule.of_string "((1 (dup-storm 0.8 19)))" in
  let report = Runner.run ~schedule spec in
  (match report.Runner.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "dup-storm run violated an oracle: %s@.repro: %s" v
        (Runner.repro report));
  Alcotest.(check bool)
    "duplicates were injected" true
    (report.Runner.net_stats.Network.duplicated > 0);
  Alcotest.(check bool)
    "services saw and absorbed replayed applies" true
    (Counters.get report.Runner.counters Dup_applies > 0)

(* The shrinker understands the new kinds: a violation that requires a
   one-way cut shrinks to a schedule that still contains one, and window
   halving applies to gray-failure windows too. *)

let test_shrink_gray () =
  let spec = Runner.spec ~seed:5 "VVV" in
  let oracle cluster =
    if (Network.stats (Cluster.network cluster)).Network.dropped_oneway > 0 then
      Error "injected: a message was dropped by a directed cut or flap"
    else Ok ()
  in
  let report = Runner.run ~extra_oracle:oracle spec in
  (* Seed 5 must draw at least one one-way cut or flap with traffic for
     this test to bite; if not, fall back to an explicit schedule. *)
  let report =
    if Runner.failed report then report
    else
      Runner.run
        ~schedule:(Schedule.of_string "((2 (crash 1)) (3 (one-way-cut 0 1 12)) (5 (compact 0)) (8 (recover 1)))")
        ~extra_oracle:oracle spec
  in
  Alcotest.(check bool) "run fails" true (Runner.failed report);
  let fails sch =
    Runner.failed (Runner.run ~schedule:sch ~extra_oracle:oracle spec)
  in
  let minimal, _runs = Shrink.minimize ~fails report.Runner.schedule in
  Alcotest.(check bool) "minimal still fails" true (fails minimal);
  Alcotest.(check bool)
    "minimal keeps a gray fault" true
    (List.exists
       (fun { Schedule.fault; _ } ->
         match fault with
         | Schedule.One_way_cut _ | Schedule.Flap _ -> true
         | _ -> false)
       minimal);
  let replayed = Schedule.of_string (Schedule.to_string minimal) in
  Alcotest.(check bool) "replay equals minimal" true (replayed = minimal)

(* ------------------------------------------------------------------ *)
(* Regression: restart with a warm cache. Each service builds up decoded
   WAL/acceptor caches under traffic, then restarts (dropping the
   volatile view), keeps serving, is compacted (pruning the view) and
   restarts again. The runner's cache-coherence oracle fires after every
   one of these events; any decoded state that survived a restart without
   matching the durable store — or went stale after compaction — fails
   the run. *)

(* Shrunk repro (review fix, seed 134: storm + torn-write on the
   manager): a service restart while a batch is mid-[propose_sync].
   Restart-time orphan resolution must not answer No_quorum for a
   pending already handed to a proposal — the proposer fiber survives
   the restart and can still drive the batch to a decision, and telling
   the client "aborted" for a transaction that then lands in the log is
   an L1 violation. Only still-queued pendings may get No_quorum; the
   rest are In_doubt. *)
let test_restart_mid_propose_honesty () =
  let seed = 134 in
  let duration = 20.0 in
  let config =
    Runner.throughput_config ~seed (Runner.default_config Config.Leader)
  in
  let workload = Runner.throughput_workload ~dcs:3 ~duration in
  let spec = Runner.spec ~config ~duration ~workload ~seed "VVV" in
  let schedule =
    Schedule.of_string
      "((4.155 (storm 0.169 0.6 5.578)) (7.116 (torn-write 0)))"
  in
  let report = Runner.run ~schedule spec in
  match report.Runner.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "restart-mid-propose regression: %s@.repro: %s" v
        (Runner.repro report)

(* The cross-group soak's spec: [mdds chaos --groups 4 --cross-ratio
   0.3], plus [--throughput] when [throughput]. *)
let cross_spec ?(throughput = false) seed =
  let duration = 20.0 in
  let base = Runner.default_config Config.Leader in
  let config =
    if throughput then Runner.throughput_config ~seed base else base
  in
  let workload =
    let w =
      if throughput then Runner.throughput_workload ~dcs:3 ~duration
      else Runner.default_workload ~dcs:3 ~duration
    in
    { w with Mdds_workload.Ycsb.groups = 4; cross_ratio = 0.3 }
  in
  Runner.spec ~config ~duration ~kinds:Schedule.cross_kinds ~workload ~seed
    "VVV"

let expect_clean what (r : Runner.report) =
  match r.Runner.violation with
  | None -> ()
  | Some v -> Alcotest.failf "%s: %s@.repro: %s" what v (Runner.repro r)

(* Regressions from the batched cross-group soak. Seeds 63, 105 and 219
   broke L1: a restart answered queued submissions No_quorum while the
   orphaned drainer, blocked in the learner, went on to commit them.
   Seeds 71 and 249 broke window exclusivity: a batch admitted records
   conflicting with an earlier batch-mate's prepare footprint. Seed 184
   broke it through a window resolution that re-validated a diverged
   entry without the in-doubt footprints. Seeds 17, 125 and 349 lost the
   whole run: a fault landed on the preload, whose failed commit ended
   the simulation before any worker started. *)
let test_throughput_cross_seeds () =
  let seeds = [ 17; 63; 71; 105; 125; 184; 219; 249; 349 ] in
  List.iter2
    (fun seed r ->
      expect_clean (Printf.sprintf "throughput x cross seed %d" seed) r)
    seeds
    (Runner.run_many (List.map (cross_spec ~throughput:true) seeds))

(* Seed 178 of both cross-group soaks: dc0 came back with its log ending
   below positions its peers had compacted. Its learner spent all its
   prepare rounds on a position every peer refused as compacted, and its
   manager kept proposing there, so the post-heal probe in dc0 never
   committed. A majority of [Compacted] refusals now ends the learner's
   ladder at a snapshot install, and the manager's proposal with one. *)
let test_compacted_catch_up_seed () =
  List.iter2
    (fun mode r -> expect_clean (Printf.sprintf "%s cross seed 178" mode) r)
    [ "unbatched"; "throughput" ]
    (Runner.run_many [ cross_spec 178; cross_spec ~throughput:true 178 ])

(* Seed 61 of [mdds chaos --throughput --faults
   dirty-crash,torn-write,crash,compact]: dc0's leader had a pipelined
   window open at position 7 when its peers compacted past it. The
   window's resolution treated the [Compacted] refusal as unavailability
   and installed no snapshot, so every later drain reopened position 7
   through the fast path, and the post-heal probe in dc0 could not commit
   until 38.8 s. The resolution now installs a peer's snapshot there. *)
let test_compacted_window_seed () =
  let duration = 20.0 in
  let spec =
    Runner.spec
      ~config:(Runner.throughput_config ~seed:61 (Runner.default_config Config.Cp))
      ~duration
      ~kinds:Schedule.[ Dirty_crashes; Torn_writes; Crashes; Compactions ]
      ~workload:(Runner.throughput_workload ~dcs:3 ~duration)
      ~seed:61 "VVV"
  in
  expect_clean "compacted window seed 61" (Runner.run spec)

(* Shrunk repro (cross-group soak seed 129, unbatched leader): the same
   orphaned-drainer L1 violation with batch 1 / depth 1. A drainer
   blocked in the learner's catch-up survived the manager's restart,
   which had already answered the queued submissions No_quorum, and then
   admitted and committed one of them. *)
let test_unbatched_restart_during_catch_up () =
  let schedule =
    Schedule.of_string
      "((1.855 (crash 0)) (2.974 (mid-2pc 0 torn)) (4.494 (recover 0)) \
       (4.659 (partition (1) (0 2))))"
  in
  expect_clean "unbatched restart during catch-up"
    (Runner.run ~schedule (cross_spec 129))

(* The fill draw (the former epoch-interval draw, now mapped onto
   batch_fill) is appended after the batch/depth draws on the same
   stream, so older seeds must keep their historical batch/depth — a
   reordered draw would silently re-shuffle which seed exercised which
   regression. Pin determinism, the value table, and the mix. *)
let test_throughput_config_fill_draw () =
  let draw seed =
    Runner.throughput_config ~seed (Runner.default_config Config.Leader)
  in
  (* Deterministic: same seed, same knobs. *)
  List.iter
    (fun seed ->
      let a = draw seed and b = draw seed in
      Alcotest.(check int) "batch_max stable" a.Config.batch_max
        b.Config.batch_max;
      Alcotest.(check int) "pipeline_depth stable" a.Config.pipeline_depth
        b.Config.pipeline_depth;
      Alcotest.(check (float 0.0)) "batch_fill stable" a.Config.batch_fill
        b.Config.batch_fill)
    [ 1; 42; 134; 300 ];
  (* Every draw lands in the documented tables and never leaves the
     whole throughput dimension off. *)
  let long_fill = ref 0 in
  List.iter
    (fun seed ->
      let c = draw seed in
      Alcotest.(check bool) "batch_max in {1,2,4,8}" true
        (List.mem c.Config.batch_max [ 1; 2; 4; 8 ]);
      Alcotest.(check bool) "pipeline_depth in {1,2,4}" true
        (List.mem c.Config.pipeline_depth [ 1; 2; 4 ]);
      Alcotest.(check bool) "batch_fill in {base, 0.05, 0.15}" true
        (List.mem c.Config.batch_fill [ Config.default.batch_fill; 0.05; 0.15 ]);
      Alcotest.(check bool) "never all off" true
        (c.Config.batch_max > 1 || c.Config.pipeline_depth > 1);
      if c.Config.batch_fill > Config.default.batch_fill then incr long_fill)
    (List.init 300 (fun i -> i + 1));
  (* Roughly half the seeds should run a long fill window (2 of 4 table
     entries keep the base fill): with 300 seeds, anywhere outside
     [90, 210] means the draw or the table changed. *)
  Alcotest.(check bool) "long-fill mix plausible" true
    (!long_fill >= 90 && !long_fill <= 210)

let test_restart_warm_cache () =
  let spec = Runner.spec ~seed:42 "VVV" in
  let schedule =
    Schedule.of_string
      "((3.0 (restart 0)) (5.0 (restart 1)) (7.0 (compact 2)) (9.0 (restart \
       2)) (11.0 (compact 0)) (13.0 (restart 0)) (15.0 (restart 2)))"
  in
  let report = Runner.run ~schedule spec in
  Alcotest.(check int)
    "all scheduled faults injected"
    (List.length schedule)
    report.Runner.faults;
  match report.Runner.violation with
  | None -> ()
  | Some v ->
      Alcotest.failf "restart-with-warm-cache regression: %s@.repro: %s" v
        (Runner.repro report)

(* The fault window must be finite and positive: NaN used to die inside
   the engine's scheduler, zero and negative windows ran silently, and an
   infinite one reported a bogus failure. *)
let test_bad_duration_rejected duration () =
  Alcotest.check_raises "rejected"
    (Invalid_argument "Runner.spec: duration must be finite and positive")
    (fun () -> ignore (Runner.spec ~duration ~seed:1 "VVV"))

let () =
  Alcotest.run "chaos"
    [
      ( "engine",
        [
          Alcotest.test_case "schedules round-trip" `Quick test_roundtrip;
          Alcotest.test_case "connected majority invariant" `Quick
            test_connected_majority;
          Alcotest.test_case "deterministic runs" `Quick test_determinism;
          Alcotest.test_case "explicit schedule replay" `Quick
            test_explicit_schedule;
          Alcotest.test_case "shrinker minimizes to one crash" `Quick
            test_shrinker;
          Alcotest.test_case "restart with warm cache stays coherent" `Quick
            test_restart_warm_cache;
          Alcotest.test_case "gray failures pass oracles with timeline" `Quick
            test_gray_failures;
          Alcotest.test_case "dup-storm deliveries absorbed idempotently"
            `Quick test_dup_storm_idempotence;
          Alcotest.test_case "shrinker keeps gray faults" `Quick
            test_shrink_gray;
          Alcotest.test_case "restart mid-propose stays honest" `Quick
            test_restart_mid_propose_honesty;
          Alcotest.test_case "throughput config epoch draw pinned" `Quick
            test_throughput_config_fill_draw;
          Alcotest.test_case "batched cross-group seeds stay clean" `Quick
            test_throughput_cross_seeds;
          Alcotest.test_case "unbatched restart during catch-up stays honest"
            `Quick test_unbatched_restart_during_catch_up;
          Alcotest.test_case "compacted catch-up seed stays available" `Quick
            test_compacted_catch_up_seed;
          Alcotest.test_case "compacted pipelined window seed stays available"
            `Quick test_compacted_window_seed;
          Alcotest.test_case "failed run keeps the trace tail asked for" `Quick
            test_trace_tail_length;
        ] );
      ( "spec",
        List.map
          (fun (name, d) ->
            Alcotest.test_case (name ^ " duration rejected") `Quick
              (test_bad_duration_rejected d))
          [
            ("NaN", Float.nan);
            ("negative", -5.0);
            ("zero", 0.0);
            ("infinite", Float.infinity);
          ] );
      ( "soak",
        [
          Alcotest.test_case "battery: 21 seed/topology/protocol combos" `Slow
            test_battery;
          Alcotest.test_case "throughput dimension: 25 batched/pipelined seeds"
            `Slow test_throughput_battery;
        ] );
    ]
