module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Service = Mdds_core.Service
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Counters = Mdds_core.Counters
module Verify = Mdds_core.Verify
module Messages = Mdds_core.Messages
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Trace = Mdds_sim.Trace
module Wal = Mdds_wal.Wal
module Ycsb = Mdds_workload.Ycsb

type spec = {
  seed : int;
  topology : string;
  config : Config.t;
  duration : float;
  kinds : Schedule.kind list;
  workload : Ycsb.config;
}

(* Progress: the workload must commit at least this many transactions
   (a majority is connected throughout). *)
let min_commits = 1

(* Width (seconds) of one availability-timeline sampling window. *)
let probe_window = 1.0

(* Bounded-unavailability budget: a probe commit must land within this
   many probe windows of the final heal at [duration]. *)
let max_heal_windows = 8

(* Chaos runs turn the adaptive-timeout/hedged-failover machinery on
   (the figure harness keeps the paper's fixed-timeout defaults): gray
   failures are exactly the regime it exists for, and every soak seed
   should exercise it. *)
let default_config protocol =
  { (Config.with_protocol protocol Config.default) with
    rpc_timeout = 0.5;
    max_rounds = 8;
    adaptive = true;
  }

(* The throughput schedule dimension: batched/pipelined commit under
   chaos. Drawn deterministically from the seed on a stream distinct from
   both the engine's (raw seed) and the fault schedule's
   (seed lxor 0x5DEECE66D); never leaves both knobs at 1, because that
   is the plain leader soak ([-p leader]) and would test nothing new. The
   fill draw comes last, so seeds keep the batch/depth they had before it
   existed; roughly half the seeds run a long fill window (PROTOCOL.md
   §9), the rest keep the config's own [batch_fill]. *)
let throughput_config ~seed config =
  let rng = Mdds_sim.Rng.create (seed lxor 0x7F4A7C15) in
  let batch_max = [| 1; 2; 4; 8 |].(Mdds_sim.Rng.int rng 4) in
  let pipeline_depth =
    if batch_max = 1 then [| 2; 4 |].(Mdds_sim.Rng.int rng 2)
    else [| 1; 2; 4 |].(Mdds_sim.Rng.int rng 3)
  in
  let batch_fill =
    let base = config.Config.batch_fill in
    [| base; base; 0.05; 0.15 |].(Mdds_sim.Rng.int rng 4)
  in
  { (Config.with_protocol Config.Leader config) with
    batch_max;
    pipeline_depth;
    batch_fill;
  }

(* Denser than the default soak workload: with the ~90 ms leader commit
   path, arrivals must cluster inside one round-trip for batches to fill
   and pipelined positions to actually overlap under faults. *)
let throughput_workload ~dcs ~duration =
  let threads = dcs * 2 in
  let txns_per_thread = 12 in
  { Ycsb.default with
    total_txns = threads * txns_per_thread;
    threads;
    rate = float_of_int txns_per_thread /. (duration *. 0.75);
    ops_per_txn = 3;
    attributes = 20;
    stagger = 0.01;
    client_dcs = List.init dcs Fun.id;
  }

let default_workload ~dcs ~duration =
  let threads = dcs in
  let txns_per_thread = 6 in
  { Ycsb.default with
    total_txns = threads * txns_per_thread;
    threads;
    rate = float_of_int txns_per_thread /. duration;
    ops_per_txn = 4;
    attributes = 20;
    client_dcs = List.init dcs Fun.id;
  }

let spec ?config ?(duration = 20.) ?(kinds = Schedule.all_kinds) ?workload
    ~seed topology =
  let config = Option.value config ~default:(default_config Config.Cp) in
  let dcs = Topology.size (Topology.ec2 topology) in
  let workload =
    Option.value workload ~default:(default_workload ~dcs ~duration)
  in
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Runner.spec: duration must be finite and positive";
  if workload.Ycsb.cross_ratio > 0.0 then begin
    if workload.Ycsb.groups < 2 then
      invalid_arg "Runner.spec: cross_ratio > 0 requires groups >= 2";
    if config.Config.protocol <> Config.Leader then
      invalid_arg "Runner.spec: cross_ratio > 0 requires the leader protocol"
  end;
  { seed; topology; config; duration; kinds; workload }

type report = {
  run_spec : spec;
  schedule : Schedule.t;
  commits : int;
  aborts : int;
  unknowns : int;
  begin_failures : int;
  faults : int;
  net_stats : Mdds_net.Network.stats;
  counters : Counters.t;
  timeline : bool array;
  recovery_times : (Schedule.event * float option) list;
  violation : string option;
  trace_tail : string list;
}

let failed r = r.violation <> None

(* Post-heal availability: from every datacenter, a fresh client must be
   able to commit a read-write probe. Retries tolerate transient
   Lost_position races against stragglers still draining. Probing every
   group also drives each group's log head past any "orphan" position
   (decided while its Apply messages were being dropped) via the normal
   promotion path, so the convergence pass below has a meaningful head
   to catch up to. *)
let run_probes cluster ~groups ~dcs =
  let failures = ref [] in
  Cluster.spawn cluster (fun () ->
      List.iter
        (fun group ->
          for dc = 0 to dcs - 1 do
            let client =
              Cluster.client ~id:(Printf.sprintf "probe-%s-%d" group dc) cluster
                ~dc
            in
            (* Each probe owns a private key: probes must not conflict
               with each other (a datacenter still catching up serves
               stale read positions, which would make a shared hot key
               abort with Conflict forever). *)
            let key = Printf.sprintf "chaos-probe-%d" dc in
            let committed = ref false in
            let attempts = ref 0 in
            while (not !committed) && !attempts < 8 do
              incr attempts;
              try
                let txn = Client.begin_ client ~group in
                ignore (Client.read txn key);
                Client.write txn key
                  (Printf.sprintf "probe-%s-%d-%d" group dc !attempts);
                match Client.commit txn with
                | Audit.Committed _ -> committed := true
                | _ -> ()
              with Client.Unavailable _ -> ()
            done;
            if not !committed then failures := (dc, group) :: !failures
          done)
        groups);
  Cluster.run cluster;
  List.rev !failures

(* Post-heal convergence: a Read pinned at the global head forces every
   datacenter's learner (and, for compacted peers, snapshot
   installation) to catch up; any non-Value reply means the datacenter
   failed to converge. *)
let run_convergence cluster ~groups ~dcs =
  let heads =
    List.map
      (fun group ->
        let head = ref 0 in
        for dc = 0 to dcs - 1 do
          head :=
            max !head
              (Wal.last_position (Service.wal (Cluster.service cluster dc)) ~group)
        done;
        (group, !head))
      groups
  in
  let failures = ref [] in
  Cluster.spawn cluster (fun () ->
      List.iter
        (fun (group, head) ->
          for dc = 0 to dcs - 1 do
            let service = Cluster.service cluster dc in
            match
              Service.handle service ~src:dc
                (Messages.Read
                   { group; key = Ycsb.attribute_key 0; position = head })
            with
            | Messages.Value _ -> ()
            | resp ->
                failures :=
                  (dc, group, Format.asprintf "%a" Messages.pp_response resp)
                  :: !failures
          done)
        heads);
  Cluster.run cluster;
  List.rev !failures

let first_error checks =
  List.fold_left
    (fun acc check -> match acc with Some _ -> acc | None -> check ())
    None checks

let run ?schedule ?extra_oracle spec =
  let topo = Topology.ec2 spec.topology in
  let dcs = Topology.size topo in
  let schedule =
    match schedule with
    | Some s -> s
    | None ->
        Schedule.generate ~kinds:spec.kinds ~seed:spec.seed ~dcs
          ~duration:spec.duration ()
  in
  (* Explicit sync points so dirty/torn crashes have unsynced state to
     lose: every chaos run exercises the durability layer, even when the
     schedule draws no storage fault. *)
  let cluster =
    Cluster.create ~seed:spec.seed ~config:spec.config
      ~storage:Mdds_kvstore.Store.Sync_explicit topo
  in
  Trace.enable (Cluster.trace cluster);
  let groups = Ycsb.group_keys spec.workload in
  (* The availability prober's dedicated group (never a workload group,
     so probes and workload threads do not race for log positions); it
     still goes through every oracle. *)
  let av_group = "chaos-av" in
  let all_groups = groups @ [ av_group ] in
  let handle = Ycsb.run cluster spec.workload in
  (* Cache-coherence oracle: after every fault event (and once more after
     the run drains) every service's decoded WAL/acceptor view must equal
     a fresh decode of its durable store. Checked at fault boundaries
     because those are the moments that drop or prune the caches. *)
  let incoherence = ref None in
  let check_coherence context =
    if !incoherence = None then
      for dc = 0 to dcs - 1 do
        List.iter
          (fun group ->
            if !incoherence = None then
              match
                Service.cache_coherent (Cluster.service cluster dc) ~group
              with
              | Ok () -> ()
              | Error e ->
                  incoherence :=
                    Some
                      (Printf.sprintf "cache coherence (%s) at dc%d: %s"
                         context dc e))
          all_groups
      done
  in
  let nemesis =
    Nemesis.create
      ~on_fault:(fun fault ->
        check_coherence (Format.asprintf "after %a" Schedule.pp_fault fault))
      ()
  in
  Nemesis.apply nemesis ~cluster ~groups schedule;
  Engine.schedule (Cluster.engine cluster) ~at:spec.duration (fun () ->
      Nemesis.heal_all cluster);
  (* Availability timeline: one live probe per window throughout the run
     and for [max_heal_windows + 2] windows past the heal at [duration].
     Probes commit to a dedicated group so they never contend with the
     workload's log positions; each owns a private key so they never
     conflict with each other. A window is "up" iff some probe commit
     *completed* inside it; the completion times also give per-fault
     time-to-recovery and the bounded-unavailability oracle below. *)
  let stop_probing =
    spec.duration +. (float_of_int (max_heal_windows + 2) *. probe_window)
  in
  let windows = int_of_float (Float.ceil (stop_probing /. probe_window)) in
  let successes = ref [] in
  (* newest first *)
  let probe_counter = ref 0 in
  for w = 0 to windows - 1 do
    Cluster.spawn ~at:(float_of_int w *. probe_window) cluster (fun () ->
        incr probe_counter;
        let n = !probe_counter in
        (* Rotate the probing datacenter by window so a single slow or
           half-cut datacenter cannot bias the whole timeline; skip
           datacenters currently down (their clients cannot even talk to
           the local service). *)
        let dc =
          let rec pick i tries =
            if tries >= dcs then 0
            else if Cluster.is_down cluster i then pick ((i + 1) mod dcs) (tries + 1)
            else i
          in
          pick (w mod dcs) 0
        in
        let client =
          Cluster.client ~id:(Printf.sprintf "probe-live-%d" n) cluster ~dc
        in
        try
          let txn = Client.begin_ client ~group:av_group in
          let key = Printf.sprintf "chaos-live-%d" n in
          ignore (Client.read txn key);
          Client.write txn key (string_of_int w);
          match Client.commit txn with
          | Audit.Committed _ -> successes := Cluster.now cluster :: !successes
          | _ -> ()
        with Client.Unavailable _ -> ())
  done;
  (* A crash anywhere in the simulation (e.g. a learner hitting a log
     conflict) is itself an oracle violation — capture it so a crashing
     schedule can be shrunk like any other failure. *)
  let crashed = ref None in
  (try
     Cluster.run cluster ~until:(spec.duration +. 600.);
     (* Safety net: if the run hit the time bound mid-storm, heal before
        the oracle phase (oracles judge the healed system). *)
     Nemesis.heal_all cluster
   with Failure msg -> crashed := Some (Printf.sprintf "crash: %s" msg));
  let probe_failures =
    if !crashed = None then
      try run_probes cluster ~groups:all_groups ~dcs
      with Failure msg ->
        crashed := Some (Printf.sprintf "crash: %s" msg);
        []
    else []
  in
  let convergence_failures =
    if !crashed = None then
      try run_convergence cluster ~groups:all_groups ~dcs
      with Failure msg ->
        crashed := Some (Printf.sprintf "crash: %s" msg);
        []
    else []
  in
  let outcomes =
    Audit.summarize (Ycsb.workload_events (Audit.events (Cluster.audit cluster)))
  in
  if !crashed = None then check_coherence "after drain";
  let successes = List.sort Float.compare !successes in
  let timeline = Array.make windows false in
  List.iter
    (fun s ->
      let w = int_of_float (s /. probe_window) in
      if w >= 0 && w < windows then timeline.(w) <- true)
    successes;
  let first_success_after t = List.find_opt (fun s -> s >= t) successes in
  let recovery_times =
    List.map
      (fun (ev : Schedule.event) ->
        (ev, Option.map (fun s -> s -. ev.Schedule.at) (first_success_after ev.Schedule.at)))
      schedule
  in
  let violation =
    first_error
      [
        (fun () -> !crashed);
        (fun () -> !incoherence);
        (fun () ->
          match convergence_failures with
          | [] -> None
          | (dc, group, resp) :: _ ->
              Some
                (Printf.sprintf
                   "convergence: dc%d did not catch up to the head of group \
                    %s after healing (read replied %s)"
                   dc group resp));
        (fun () ->
          match probe_failures with
          | [] -> None
          | (dc, group) :: _ ->
              Some
                (Printf.sprintf
                   "availability: probe client in dc%d could not commit to \
                    group %s after healing"
                   dc group));
        (fun () ->
          (* Bounded unavailability: heal_all runs at [duration], so from
             there the cluster is fault-free; a probe commit must land
             within [max_heal_windows] probe windows or recovery is
             unbounded. *)
          let deadline =
            spec.duration +. (float_of_int max_heal_windows *. probe_window)
          in
          if
            List.exists
              (fun s -> s >= spec.duration && s <= deadline)
              successes
          then None
          else
            Some
              (Printf.sprintf
                 "bounded unavailability: no probe commit within %d windows \
                  (%.3gs) of the final heal at %gs"
                 max_heal_windows
                 (float_of_int max_heal_windows *. probe_window)
                 spec.duration));
        (fun () ->
          if outcomes.commits >= min_commits then None
          else
            Some
              (Printf.sprintf
                 "progress: only %d workload commits (expected >= %d; a \
                  majority was connected throughout)"
                 outcomes.commits min_commits));
        (fun () ->
          List.fold_left
            (fun acc group ->
              match acc with
              | Some _ -> acc
              | None -> (
                  let archive = Nemesis.archive nemesis ~group in
                  match Verify.check ~archive cluster ~group with
                  | Ok () -> None
                  | Error e -> Some (Printf.sprintf "group %s: %s" group e)))
            None all_groups);
        (fun () ->
          (* Cross-group atomicity (PROTOCOL.md §10) over the workload
             groups' merged logs. Gated on the workload actually drawing
             cross-group transactions: without them the logs carry no
             marker records and the oracle is vacuous. *)
          if spec.workload.Ycsb.cross_ratio <= 0.0 then None
          else
            let archives =
              List.map (fun g -> (g, Nemesis.archive nemesis ~group:g)) groups
            in
            match Verify.check_cross ~archives cluster ~groups with
            | Ok () -> None
            | Error e -> Some e);
        (fun () ->
          match extra_oracle with
          | None -> None
          | Some oracle -> (
              match oracle cluster with Ok () -> None | Error e -> Some e));
      ]
  in
  let trace_tail =
    List.map
      (Format.asprintf "%a" Trace.pp_event)
      (Trace.tail (Cluster.trace cluster) 40)
  in
  {
    run_spec = spec;
    schedule;
    commits = outcomes.commits;
    aborts = outcomes.aborts;
    unknowns = outcomes.unknowns;
    begin_failures = handle.begin_failures;
    faults = Nemesis.faults_injected nemesis;
    net_stats = Mdds_net.Network.stats (Cluster.network cluster);
    counters =
      Counters.sum (List.map Service.counters (Cluster.services cluster));
    timeline;
    recovery_times;
    violation;
    trace_tail;
  }

(* Chaos seeds are independent trials like experiment cells: each run owns
   its cluster and engine, so a seed battery fans out across the domain
   pool. Batteries mix fault windows and cluster sizes, so the cost hint
   (virtual fault-window seconds × sites simulated) lets the pool dispense
   the long soaks first. Shrinking stays sequential (each ddmin step
   depends on the last), so callers shrink from the returned reports
   afterwards. *)
let run_many ?schedule ?extra_oracle specs =
  let cost (s : spec) =
    s.duration *. float_of_int (String.length s.topology)
  in
  Mdds_parallel.Pool.map ~cost (fun spec -> run ?schedule ?extra_oracle spec) specs

let repro r =
  Printf.sprintf
    "mdds chaos --seed %d --topology %s --protocol %s --duration %g%s%s \
     --schedule '%s'"
    r.run_spec.seed r.run_spec.topology
    (Config.protocol_name r.run_spec.config.protocol)
    r.run_spec.duration
    (* --throughput re-derives batch/depth/fill from the seed, so the
       replay gets the same drainer discipline as the failing run. *)
    (if Config.throughput_mode r.run_spec.config then " --throughput" else "")
    (if r.run_spec.workload.Ycsb.cross_ratio > 0.0 then
       Printf.sprintf " --groups %d --cross-ratio %g"
         r.run_spec.workload.Ycsb.groups r.run_spec.workload.Ycsb.cross_ratio
     else "")
    (Schedule.to_string r.schedule)

let up_windows r =
  Array.fold_left (fun acc up -> if up then acc + 1 else acc) 0 r.timeline

let max_ttr r =
  List.fold_left
    (fun acc (_, ttr) ->
      match ttr with Some t when t > acc -> t | _ -> acc)
    0.0 r.recovery_times

let pp_report ppf r =
  let count = Counters.get r.counters in
  Format.fprintf ppf
    "seed %d  %s/%s  %d faults  %d commits  %d aborts  %d unknown  %d \
     begin-failures  drops %d/%d/%d/%d  dup %d  recoveries %d (%d scrubbed, \
     %d relearned)  dedup %d/%d/%d  hedges %d  avail %d/%d windows  max-ttr \
     %.3gs  %s"
    r.run_spec.seed r.run_spec.topology
    (Config.protocol_name r.run_spec.config.protocol)
    r.faults r.commits r.aborts r.unknowns r.begin_failures
    r.net_stats.Mdds_net.Network.dropped_loss
    r.net_stats.Mdds_net.Network.dropped_down
    r.net_stats.Mdds_net.Network.dropped_cut
    r.net_stats.Mdds_net.Network.dropped_oneway
    r.net_stats.Mdds_net.Network.duplicated (count Recoveries)
    (count Scrubbed) (count Relearned) (count Dup_applies) (count Dup_claims)
    (count Dup_submits) (count Hedges)
    (up_windows r) (Array.length r.timeline) (max_ttr r)
    ((if Config.throughput_mode r.run_spec.config then
        Printf.sprintf "batch%d/depth%d %d batches (%d txns, %d pipelined, \
                        %d stalls)  "
          r.run_spec.config.batch_max r.run_spec.config.pipeline_depth
          (count Batches) (count Batched_txns) (count Pipelined_rounds)
          (count Pipeline_stalls)
      else "")
    ^ (if
         r.run_spec.workload.Ycsb.cross_ratio > 0.0
         || count Twopc_prepares > 0
         || count In_doubt_replies > 0
       then
         Printf.sprintf "2pc %d prepares (%d resolved, %d in-doubt replies)  "
           (count Twopc_prepares) (count Twopc_resolved)
           (count In_doubt_replies)
       else "")
    ^
    match r.violation with
    | None -> "OK"
    | Some v -> Printf.sprintf "VIOLATION: %s" v)

let pp_timeline ppf r =
  Format.fprintf ppf "availability timeline (%gs windows): " probe_window;
  Array.iter (fun up -> Format.pp_print_char ppf (if up then '#' else '.')) r.timeline;
  Format.pp_print_newline ppf ();
  List.iter
    (fun ((ev : Schedule.event), ttr) ->
      Format.fprintf ppf "  %8.3fs  %-40s ttr %s@."
        ev.Schedule.at
        (Format.asprintf "%a" Schedule.pp_fault ev.Schedule.fault)
        (match ttr with
        | None -> "never"
        | Some t -> Printf.sprintf "%.3fs" t))
    r.recovery_times
