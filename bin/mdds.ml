(* Command-line interface to the simulated multi-datacenter datastore.

   mdds run      — run one experiment with explicit parameters
   mdds figures  — reproduce figures from the paper's evaluation
   mdds list     — list available figure reproductions
   mdds chaos    — randomized fault-injection runs with oracle checking *)

module Config = Mdds_core.Config
module Experiment = Mdds_harness.Experiment
module Figures = Mdds_harness.Figures
module Stats = Mdds_harness.Stats
module Table = Mdds_harness.Table
module Ycsb = Mdds_workload.Ycsb
open Cmdliner

(* ------------------------------------------------------------------ *)
(* mdds run                                                            *)

(* Durations, rates and fill windows must be finite and positive: NaN,
   infinities, zero and negatives are a cmdliner error (exit 124), never
   an internal error, a silent no-op run or an invalid JSON number. *)
let positive_ok v = Float.is_finite v && v > 0.0

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when positive_ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not a positive, finite number" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* Probabilities lie in [0,1] (NaN fails both comparisons). *)
let probability =
  let parse s =
    match float_of_string_opt s with
    | Some v when v >= 0.0 && v <= 1.0 -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not a probability in [0,1]" s))
  in
  Arg.conv (parse, Arg.conv_printer Arg.float)

(* Counts with a lower bound: below it a run would do nothing, or die
   inside the library instead of at the command line. *)
let int_at_least lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not an integer >= %d" s lo))
  in
  Arg.conv (parse, Arg.conv_printer Arg.int)

let jobs_arg =
  let doc =
    "Run independent trials (figure cells, chaos seeds) on $(docv) domains. \
     Defaults to $(b,MDDS_JOBS) if set, else the machine's recommended \
     domain count. Output is byte-identical whatever the value."
  in
  Arg.(
    value
    & opt (some (int_at_least 1)) None
    & info [ "j"; "jobs" ] ~docv:"N" ~env:(Cmd.Env.info "MDDS_JOBS") ~doc)

(* Comma-separated lists whose every element passes [ok]. *)
let list_conv ~name ~of_string ~ok ~to_string =
  let parse s =
    let parts =
      String.split_on_char ',' s |> List.map String.trim
      |> List.filter (fun r -> r <> "")
    in
    match List.map of_string parts with
    | [] -> Error (`Msg (Printf.sprintf "empty %s list" name))
    | l when List.for_all (function Some v -> ok v | None -> false) l ->
        Ok (List.map Option.get l)
    | _ -> Error (`Msg (Printf.sprintf "bad %s list %S" name s))
  in
  let print ppf l =
    Format.pp_print_string ppf (String.concat "," (List.map to_string l))
  in
  Arg.conv (parse, print)

let positive_floats_conv ~name =
  list_conv ~name ~of_string:float_of_string_opt ~ok:positive_ok
    ~to_string:(Printf.sprintf "%g")

(* A datacenter spec is checked by building it, so a bad one is refused
   here instead of dying inside the run. *)
let topology_ok spec =
  match Mdds_net.Topology.ec2 spec with
  | _ -> true
  | exception Invalid_argument _ -> false

let topology =
  let parse s =
    if topology_ok s then Ok s
    else
      Error
        (`Msg (Printf.sprintf "%S is not a datacenter spec (V, O or C each)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let topology_arg =
  let doc =
    "Datacenter spec: one character per datacenter, V = Virginia AZ, O = \
     Oregon, C = N. California (e.g. VVV, COV, VVVOC)."
  in
  Arg.(value & opt topology "VVV" & info [ "t"; "topology" ] ~docv:"SPEC" ~doc)

let protocol_arg =
  let doc = "Commit protocol: 'paxos' (basic), 'cp' (Paxos-CP) or 'leader'." in
  let proto =
    Arg.enum
      [
        ("paxos", Config.Basic);
        ("basic", Config.Basic);
        ("cp", Config.Cp);
        ("leader", Config.Leader);
        (* Display names, so printed repro commands paste back verbatim. *)
        ("paxos-basic", Config.Basic);
        ("paxos-cp", Config.Cp);
      ]
  in
  Arg.(value & opt proto Config.Cp & info [ "p"; "protocol" ] ~docv:"PROTO" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Simulation seed.")

let txns_arg =
  Arg.(value & opt (int_at_least 1) 500 & info [ "n"; "txns" ] ~docv:"N" ~doc:"Total transactions.")

let threads_arg =
  Arg.(value & opt (int_at_least 1) 4 & info [ "threads" ] ~docv:"N" ~doc:"Concurrent worker threads.")

let rate_arg =
  Arg.(value & opt positive_float 1.0 & info [ "rate" ] ~docv:"TPS" ~doc:"Target txns/s per thread.")

let attributes_arg =
  Arg.(value & opt (int_at_least 1) 100 & info [ "attributes" ] ~docv:"N" ~doc:"Entity-group attributes.")

let ops_arg =
  Arg.(value & opt (int_at_least 1) 10 & info [ "ops" ] ~docv:"N" ~doc:"Operations per transaction.")

let loss_arg =
  Arg.(value & opt probability 0.002 & info [ "loss" ] ~docv:"P" ~doc:"Message loss probability.")

let no_fast_arg =
  Arg.(value & flag & info [ "no-fast-path" ] ~doc:"Disable the leader fast path.")

let no_combination_arg =
  Arg.(value & flag & info [ "no-combination" ] ~doc:"Disable Paxos-CP combination.")

let max_promotions_arg =
  let doc = "Cap promotions (default: unlimited)." in
  Arg.(value & opt (some (int_at_least 0)) None & info [ "max-promotions" ] ~docv:"N" ~doc)

let trace_arg =
  Arg.(value & opt (some (int_at_least 1)) None
       & info [ "trace" ] ~docv:"N"
           ~doc:"Print the last N protocol trace events after the run.")

let run_cmd =
  let run topology protocol seed txns threads rate attributes ops loss no_fast
      no_combination max_promotions trace =
    let config =
      {
        Config.default with
        protocol;
        enable_fast_path = not no_fast;
        enable_combination = not no_combination;
        max_promotions;
      }
    in
    let workload =
      { Ycsb.default with total_txns = txns; threads; rate; attributes; ops_per_txn = ops }
    in
    let spec = Experiment.spec ~seed ~config ~workload ~loss topology in
    (* A network too lossy for the preload to commit (e.g. --loss 1) is a
       reportable outcome, not an internal error. *)
    let simulate f =
      try f ()
      with Failure msg ->
        Format.eprintf "mdds: %s@." msg;
        exit 1
    in
    let result = simulate (fun () -> Experiment.run ?trace spec) in
    List.iter
      (fun e -> Format.printf "%a@." Mdds_sim.Trace.pp_event e)
      result.trace_tail;
    Format.printf "%a@." Experiment.pp_brief result;
    let rows =
      Array.to_list result.commits_by_round
      |> List.mapi (fun round commits ->
             [
               string_of_int round;
               string_of_int commits;
               (if round < Array.length result.latency_by_round then
                  Table.fmt_ms result.latency_by_round.(round).Stats.mean
                else "-");
             ])
      |> List.filter (fun row -> row <> [])
    in
    Table.print ~header:[ "promotions"; "commits"; "mean latency (ms)" ] rows;
    match result.verified with
    | Ok () -> ()
    | Error _ -> exit 1
  in
  let term =
    Term.(
      const run $ topology_arg $ protocol_arg $ seed_arg $ txns_arg $ threads_arg
      $ rate_arg $ attributes_arg $ ops_arg $ loss_arg $ no_fast_arg
      $ no_combination_arg $ max_promotions_arg $ trace_arg)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one workload experiment and print its outcome profile.")
    term

(* ------------------------------------------------------------------ *)
(* mdds chaos                                                          *)

let chaos_cmd =
  let module Schedule = Mdds_chaos.Schedule in
  let module Runner = Mdds_chaos.Runner in
  let module Shrink = Mdds_chaos.Shrink in
  let seeds_conv =
    let parse s =
      let fail () =
        Error (`Msg (Printf.sprintf "bad seed range %S (expected A..B with A <= B)" s))
      in
      match String.index_opt s '.' with
      | Some i when i > 0 && i + 2 < String.length s && s.[i + 1] = '.' -> (
          let a = String.sub s 0 i in
          let b = String.sub s (i + 2) (String.length s - i - 2) in
          match (int_of_string_opt a, int_of_string_opt b) with
          | Some a, Some b when a <= b ->
              Ok (List.init (b - a + 1) (fun k -> a + k))
          | _ -> fail ())
      | _ -> fail ()
    in
    let print ppf = function
      | [] -> ()
      | seeds ->
          Format.fprintf ppf "%d..%d" (List.hd seeds)
            (List.nth seeds (List.length seeds - 1))
    in
    Arg.conv (parse, print)
  in
  let seeds_arg =
    let doc = "Run a seed range, e.g. '1..20' (overrides --seed)." in
    Arg.(value & opt (some seeds_conv) None & info [ "seeds" ] ~docv:"A..B" ~doc)
  in
  let duration_arg =
    Arg.(
      value & opt positive_float 20.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Fault-injection window (virtual seconds); healing starts here.")
  in
  let kinds_conv =
    let parse s =
      try
        Ok
          (String.split_on_char ',' s
          |> List.map String.trim
          |> List.filter (fun k -> k <> "")
          |> List.map Schedule.kind_of_string)
      with Invalid_argument m -> Error (`Msg m)
    in
    let print ppf ks =
      Format.pp_print_string ppf
        (String.concat "," (List.map Schedule.kind_to_string ks))
    in
    Arg.conv (parse, print)
  in
  let faults_arg =
    let doc =
      "Comma-separated fault kinds to draw from: crash, restart, \
       dirty-crash, torn-write, partition, storm, compact, one-way-cut, \
       slow-node, flap, dup-storm (default: all)."
    in
    Arg.(
      value & opt (some kinds_conv) None & info [ "faults" ] ~docv:"KINDS" ~doc)
  in
  let schedule_conv =
    let parse s =
      try Ok (Schedule.of_string s) with Invalid_argument m -> Error (`Msg m)
    in
    let print ppf t = Format.pp_print_string ppf (Schedule.to_string t) in
    Arg.conv (parse, print)
  in
  let schedule_arg =
    let doc =
      "Replay this exact fault schedule (s-expression printed by a failing \
       run) instead of generating one."
    in
    Arg.(
      value
      & opt (some schedule_conv) None
      & info [ "schedule" ] ~docv:"SEXP" ~doc)
  in
  let shrink_arg =
    Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"On an oracle violation, minimize the failing schedule and \
                print a replayable repro.")
  in
  let trace_tail_arg =
    Arg.(
      value & opt (int_at_least 0) 15
      & info [ "trace-tail" ] ~docv:"N"
          ~doc:"Trace events to print after a violation.")
  in
  let throughput_arg =
    Arg.(
      value & flag
      & info [ "throughput" ]
          ~doc:
            "Add the throughput schedule dimension: force the leader \
             protocol and draw batch_max/pipeline_depth/batch_fill per \
             seed (DESIGN.md \xc2\xa714), so the soak exercises batched, \
             pipelined and long-fill commit under every fault kind.")
  in
  let groups_arg =
    Arg.(
      value & opt (int_at_least 1) 1
      & info [ "groups" ] ~docv:"N"
          ~doc:
            "Spread the workload over $(docv) independent transaction \
             groups (round-robin per thread).")
  in
  let cross_ratio_arg =
    Arg.(
      value & opt probability 0.0
      & info [ "cross-ratio" ] ~docv:"R"
          ~doc:
            "Fraction of workload transactions that span two transaction \
             groups and commit with the multi-shot atomic commit \
             (PROTOCOL.md \xc2\xa710). Requires --groups >= 2; forces the \
             leader protocol; adds the mid-2pc fault kind to the default \
             schedule dimensions.")
  in
  let run topology protocol seed seeds duration faults explicit_schedule
      shrink trace_tail throughput groups cross_ratio jobs =
    Mdds_parallel.Pool.set_jobs jobs;
    let seeds = match seeds with None -> [ seed ] | Some s -> s in
    let cross = cross_ratio > 0.0 in
    if cross && groups < 2 then (
      Format.eprintf "mdds: --cross-ratio requires --groups >= 2@.";
      exit 124);
    let kinds =
      match faults with
      | Some k -> k
      | None -> if cross then Schedule.cross_kinds else Schedule.all_kinds
    in
    (match explicit_schedule with
    | None -> ()
    | Some sch -> (
        match Schedule.validate ~dcs:(String.length topology) sch with
        | Ok () -> ()
        | Error m ->
            Format.eprintf "mdds: --schedule: %s@." m;
            exit 124));
    let config =
      Runner.default_config (if cross then Config.Leader else protocol)
    in
    let failures = ref 0 in
    (* Independent seeds fan out over domains; reporting (and any
       shrinking, which is sequential by nature) happens afterwards in
       seed order, so the output is identical to a sequential run. *)
    let workload =
      let dcs = String.length topology in
      let base =
        if throughput then Runner.throughput_workload ~dcs ~duration
        else Runner.default_workload ~dcs ~duration
      in
      { base with Ycsb.groups; cross_ratio }
    in
    let specs =
      List.map
        (fun seed ->
          let config =
            if throughput then Runner.throughput_config ~seed config else config
          in
          Runner.spec ~config ~duration ~kinds ~workload ~seed topology)
        seeds
    in
    let reports = Runner.run_many ?schedule:explicit_schedule ~trace_tail specs in
    List.iter2
      (fun spec report ->
        Format.printf "%a@." Runner.pp_report report;
        Format.printf "  %a" Runner.pp_timeline report;
        if Runner.failed report then (
          incr failures;
          Format.printf "  schedule: %s@." (Schedule.to_string report.schedule);
          Format.printf "  repro:    %s@." (Runner.repro report);
          List.iter (Format.printf "  trace  %s@.") report.trace_tail;
          if shrink then (
            Format.printf "  shrinking...@.";
            let fails sch =
              Runner.failed (Runner.run ~schedule:sch spec)
            in
            let minimal, runs =
              Shrink.minimize ~fails report.schedule
            in
            let final = Runner.run ~schedule:minimal spec in
            Format.printf
              "  minimal schedule after %d re-runs (%d of %d events):@." runs
              (List.length minimal)
              (List.length report.schedule);
            Format.printf "%a" Schedule.pp minimal;
            Format.printf "  repro:    %s@." (Runner.repro final))))
      specs reports;
    if !failures > 0 then (
      Format.printf "%d of %d seeds FAILED@." !failures (List.length seeds);
      exit 1)
    else Format.printf "all %d seeds passed@." (List.length seeds)
  in
  let term =
    Term.(
      const run $ topology_arg $ protocol_arg $ seed_arg $ seeds_arg
      $ duration_arg $ faults_arg $ schedule_arg $ shrink_arg $ trace_tail_arg
      $ throughput_arg $ groups_arg $ cross_ratio_arg $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Randomized fault-schedule runs (crashes, dirty/torn storage \
          crashes, partitions, restarts, storms, compactions, and the \
          gray failures: one-way cuts, slow nodes, flapping links, \
          duplication storms) with full oracle checking — including an \
          availability timeline with per-fault time-to-recovery and a \
          bounded-unavailability bound — and automatic schedule \
          shrinking.")
    term

(* ------------------------------------------------------------------ *)
(* mdds throughput                                                     *)

let throughput_cmd =
  let module Throughput = Mdds_harness.Throughput in
  let rates_arg =
    let doc =
      "Comma-separated offered rates (txns per virtual second). The sweep \
       runs every rate under both modes; pick a range that straddles the \
       baseline's saturation point (about 20/s on VVV)."
    in
    Arg.(
      value
      & opt (positive_floats_conv ~name:"rate") [ 10.0; 20.0; 40.0; 80.0; 160.0 ]
      & info [ "rates" ] ~docv:"R1,R2,.." ~doc)
  in
  let tp_txns_arg =
    let doc =
      "Transactions offered per measured point (the open-loop generator \
       scales to 1e4..1e6; CI smoke uses a few hundred)."
    in
    Arg.(value & opt (int_at_least 1) 400 & info [ "n"; "txns" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    Arg.(value & opt (int_at_least 1) 8
         & info [ "batch" ] ~docv:"N" ~doc:"batch_max of the batched mode.")
  in
  let depth_arg =
    Arg.(value & opt (int_at_least 1) 4
         & info [ "depth" ] ~docv:"K"
             ~doc:"pipeline_depth of the batched mode.")
  in
  let baseline_only_arg =
    Arg.(value & flag
         & info [ "baseline-only" ]
             ~doc:"Sweep only the unbatched baseline mode.")
  in
  let fill_arg =
    Arg.(value & opt positive_float Config.default.batch_fill
         & info [ "fill" ] ~docv:"SECONDS"
             ~doc:"batch_fill of the batched mode: how long the drainer \
                   holds a batch open for more submissions. A long window \
                   with a large --batch puts the whole window in one log \
                   entry (PROTOCOL.md \xc2\xa79).")
  in
  let sweep_arg =
    Arg.(value & flag
         & info [ "sweep" ]
             ~doc:"Run the knob grid instead of the rate sweep: \
                   batch_max x pipeline_depth x batch_fill x topology \
                   at one offered rate (the ext-knobs family).")
  in
  let ints_conv =
    list_conv ~name:"int" ~of_string:int_of_string_opt ~ok:(fun v -> v >= 1)
      ~to_string:string_of_int
  in
  let topologies_conv =
    list_conv ~name:"topology" ~of_string:Option.some ~ok:topology_ok
      ~to_string:Fun.id
  in
  let sweep_batches_arg =
    Arg.(value & opt ints_conv [ 1; 8 ]
         & info [ "sweep-batches" ] ~docv:"N1,N2,.."
             ~doc:"batch_max values of the --sweep grid.")
  in
  let sweep_depths_arg =
    Arg.(value & opt ints_conv [ 1; 4 ]
         & info [ "sweep-depths" ] ~docv:"K1,K2,.."
             ~doc:"pipeline_depth values of the --sweep grid.")
  in
  let sweep_fills_arg =
    Arg.(value & opt (positive_floats_conv ~name:"fill") [ Config.default.batch_fill; 0.05 ]
         & info [ "sweep-fills" ] ~docv:"S1,S2,.."
             ~doc:"batch_fill values of the --sweep grid (positive \
                   virtual seconds).")
  in
  let topologies_arg =
    Arg.(value & opt topologies_conv [ "VVV"; "VVVOC" ]
         & info [ "topologies" ] ~docv:"T1,T2,.."
             ~doc:"Topologies of the --sweep grid.")
  in
  let sweep_rate_arg =
    Arg.(value & opt positive_float 120.0
         & info [ "sweep-rate" ] ~docv:"R"
             ~doc:"Offered rate of every --sweep cell (txns per virtual \
                   second).")
  in
  let csv_arg =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"PATH"
             ~doc:"With --sweep: also write the grid as CSV to $(docv).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"PATH"
             ~doc:"Also write the sweep as a JSON array to $(docv).")
  in
  let tp_groups_arg =
    Arg.(value & opt (int_at_least 1) 1
         & info [ "groups" ] ~docv:"N"
             ~doc:"Spread transactions round-robin over $(docv) independent \
                   transaction groups (aggregate-throughput scaling axis).")
  in
  let write_file path contents =
    let oc = open_out path in
    output_string oc contents;
    output_char oc '\n';
    close_out oc;
    (* stderr, so jobs-1-vs-jobs-4 stdout diffs don't see the filenames *)
    Format.eprintf "wrote %s@." path
  in
  let run topology seed txns rates batch depth baseline_only fill sweep
      sweep_batches sweep_depths sweep_fills topologies sweep_rate csv groups
      out jobs =
    Mdds_parallel.Pool.set_jobs jobs;
    if sweep then begin
      (* Knob grid: one rate, every batch x depth x fill x topology cell. *)
      let cells =
        Throughput.knob_sweep ~seed ~groups ~topologies
          ~batch_maxes:sweep_batches ~depths:sweep_depths ~fills:sweep_fills
          ~rate:sweep_rate ~txns ()
      in
      Throughput.pp_knob_table Format.std_formatter cells;
      (match out with
      | None -> ()
      | Some path -> write_file path (Throughput.knob_to_json cells));
      (match csv with
      | None -> ()
      | Some path -> write_file path (Throughput.knob_to_csv cells));
      if
        List.exists
          (fun (_, p) -> Result.is_error p.Throughput.verified)
          cells
      then exit 1
    end
    else begin
      let modes =
        if baseline_only then [ Throughput.baseline ]
        else
          [ Throughput.baseline;
            Throughput.batched ~batch_max:batch ~pipeline_depth:depth ~fill ()
          ]
      in
      let points =
        Throughput.sweep ~seed ~topology ~groups ~modes ~rates ~txns ()
      in
      Throughput.pp_table Format.std_formatter points;
      List.iter
        (fun mode ->
          match Throughput.saturation points mode with
          | None -> ()
          | Some p ->
              Format.printf
                "%s saturates at %.1f committed/s (offered %.0f/s)@."
                mode.Throughput.label p.Throughput.committed_per_s
                p.Throughput.rate)
        modes;
      (match out with
      | None -> ()
      | Some path -> write_file path (Throughput.to_json points));
      if List.exists (fun p -> Result.is_error p.Throughput.verified) points
      then exit 1
    end
  in
  let term =
    Term.(
      const run $ topology_arg $ seed_arg $ tp_txns_arg $ rates_arg $ batch_arg
      $ depth_arg $ baseline_only_arg $ fill_arg $ sweep_arg
      $ sweep_batches_arg $ sweep_depths_arg $ sweep_fills_arg
      $ topologies_arg $ sweep_rate_arg $ csv_arg $ tp_groups_arg $ out_arg
      $ jobs_arg)
  in
  Cmd.v
    (Cmd.info "throughput"
       ~doc:
         "Open-loop saturation sweep: offered-rate curves for the unbatched \
          baseline vs throughput mode (transaction batching + k-deep \
          pipelined log positions, --fill sets its fill window), with \
          commit-latency percentiles and full oracle checking per point \
          (DESIGN.md \xc2\xa714). --sweep runs the batch x depth x fill x \
          topology knob grid instead.")
    term

(* ------------------------------------------------------------------ *)
(* mdds figures                                                        *)

let figures_cmd =
  let ids_arg =
    let doc = "Figure ids (default: all). See 'mdds list'." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids jobs =
    Mdds_parallel.Pool.set_jobs jobs;
    try Figures.run_ids ids
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce figures from the paper's evaluation (§6).")
    Term.(const run $ ids_arg $ jobs_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (id, description, _) -> Printf.printf "%-8s %s\n" id description)
      Figures.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List available figure reproductions.") Term.(const run $ const ())

let () =
  let doc =
    "Multi-datacenter transactional datastore simulator (Paxos vs Paxos-CP; \
     Patterson et al., VLDB 2012)."
  in
  let info = Cmd.info "mdds" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; chaos_cmd; throughput_cmd; figures_cmd; list_cmd ]))
