(* The benchmark's four workloads, and one measured pass over a workload.

   Everything here drives the system through its public entry points:
   [Cluster], [Client], [Ycsb.run], the oracles in [Verify], the audit
   trail, [Network.stats], the [Service] statistics and the WAL, store
   and codec. A pass is a pure function of (workload, size, seed) in
   virtual time; only its CPU cost varies from run to run. *)

module Audit = Mdds_core.Audit
module Client = Mdds_core.Client
module Cluster = Mdds_core.Cluster
module Config = Mdds_core.Config
module Service = Mdds_core.Service
module Verify = Mdds_core.Verify
module Network = Mdds_net.Network
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Wal = Mdds_wal.Wal
module Store = Mdds_kvstore.Store
module Codec = Mdds_codec.Codec
module Txn = Mdds_types.Txn
module Ycsb = Mdds_workload.Ycsb

type t = Ycsb_cp | Open_batched | Failover | Cross_group

let all =
  [
    ("ycsb-cp", Ycsb_cp);
    ("open-batched", Open_batched);
    ("failover", Failover);
    ("cross-group", Cross_group);
  ]

let name w = fst (List.find (fun (_, w') -> w' = w) all)

type size = {
  instances : int;
      (** Independent clusters per workload and pass, each with its own
          seed derived from the run's seed; samples are pooled. *)
  ycsb_txns : int;
  rates : float list;  (** Offered rates of [open-batched], txn/s. *)
  ref_rate : float;  (** The rate whose point gives the end-to-end metrics. *)
  rate_txns : int;  (** Arrivals per rate and instance. *)
  ref_txns : int;
      (** Arrivals per instance at [ref_rate]: more than elsewhere, because
          latency there is bimodal (batches that leave at once, and those
          that wait on the pipeline), and its median needs the samples. *)
  failover_txns : int;
  faults : int;
  fault_first : float;
  fault_period : float;
  fault_down : float;
  cross_txns : int;
}

let full =
  {
    instances = 4;
    ycsb_txns = 6_000;
    rates = [ 40.; 60.; 80.; 100.; 120.; 140.; 160. ];
    ref_rate = 80.;
    rate_txns = 1_500;
    ref_txns = 6_000;
    failover_txns = 3_000;
    faults = 3;
    fault_first = 60.;
    fault_period = 120.;
    fault_down = 20.;
    cross_txns = 2_000;
  }

(* Small enough for a unit test, large enough to take every path: every
   rate of the sweep, two faults, some cross-group transactions. *)
let tiny =
  {
    full with
    instances = 1;
    ycsb_txns = 200;
    rate_txns = 30;
    ref_txns = 30;
    failover_txns = 200;
    faults = 2;
    fault_first = 4.;
    fault_period = 10.;
    fault_down = 4.;
    cross_txns = 200;
  }

let failover_rate = 8.0

(* The latency limit of [max_rate_at_slo]: p99 from due, failures
   counted as misses. *)
let slo = 1.0

let ycsb_cp size = { Ycsb.default with total_txns = size.ycsb_txns }

let cross_group size =
  {
    Ycsb.default with
    total_txns = size.cross_txns;
    groups = 4;
    cross_ratio = 0.3;
    threads = 6;
    rate = 0.5;
    client_dcs = [ 0; 1; 2 ];
  }

(* Batch 8, depth 4: the throughput mode every batched workload uses. *)
let batched = Config.throughput ~batch_max:8 ~pipeline_depth:4 Config.leader

let describe size = function
  | Ycsb_cp ->
      Printf.sprintf
        "closed loop, %d txns: 4 threads x 1 txn/s in V1, Paxos-CP, VVV, \
         loss 0.002, 10 ops, 50%% reads, 100 attributes, preloaded"
        size.ycsb_txns
  | Open_batched ->
      Printf.sprintf
        "open loop, %d arrivals at each of %s txn/s (%d at the reference %g): \
         leader, batch 8, depth 4, VVV, loss 0"
        size.rate_txns
        (String.concat "," (List.map (Printf.sprintf "%g") size.rates))
        size.ref_txns size.ref_rate
  | Failover ->
      Printf.sprintf
        "open loop, %d arrivals at %g txn/s from all 5 DCs: leader, batch 8, \
         depth 4, VVVOC, Sync_explicit; DC 0 down %gs at %g + %gk s, %d faults"
        size.failover_txns failover_rate size.fault_down size.fault_first
        size.fault_period size.faults
  | Cross_group ->
      Printf.sprintf
        "closed loop, %d txns: 6 threads x 0.5 txn/s over V1-V3, unbatched \
         leader, VVV, loss 0.002, 4 groups, 30%% cross-group"
        size.cross_txns

(* One transaction as the benchmark saw it. [due] is when it was due: its
   begin in a closed loop, its scheduled arrival in an open loop. *)
type txn = {
  id : string;
  due : float;
  began : float;
  started : float;
  replied : float;
  outcome : Audit.outcome;
  rounds : int;
  fast : bool;
}

let committed t =
  match t.outcome with
  | Audit.Committed _ | Audit.Read_only_committed -> true
  | Audit.Aborted _ | Audit.Unknown -> false

(* A set of transactions plus those that never reached the audit trail
   because [begin] or a read found no datacenter. *)
type sample = { txns : txn list; begin_failed : int }

let attempted s = List.length s.txns + s.begin_failed

(* One cluster of a workload, set up and ready to run. *)
type prepared = {
  cluster : Cluster.t;
  groups : string list;
  cross : bool;
  dues : (string, float) Hashtbl.t;  (** open loop: txn id -> due time *)
  begin_failures : unit -> int;
  outages : float list;  (** failover: when DC 0 goes down *)
  catchups : float list ref;  (** failover: catch-up seconds per fault *)
}

(* [rate] is set on the points of the [open-batched] rate sweep. *)
type job = { label : string; rate : float option; setup : unit -> prepared }

let shared_counter = "ctr"

(* Open loop: arrival [i] is due at [i / rate] however far behind the
   service is, from datacenter [i mod size]. Each transaction reads and
   writes a fresh key; every 64th is a read-modify-write of one shared
   counter, so the conflict path stays exercised. *)
let open_loop cluster ~group ~rate ~txns =
  let dues = Hashtbl.create txns in
  let failures = ref 0 in
  let dcs = Cluster.size cluster in
  for i = 0 to txns - 1 do
    let due = float_of_int i /. rate in
    Cluster.spawn ~at:due cluster (fun () ->
        let client =
          Cluster.client ~id:(Printf.sprintf "%s%06d" group i) cluster
            ~dc:(i mod dcs)
        in
        match
          let txn = Client.begin_ client ~group in
          Hashtbl.replace dues (Client.txn_id txn) due;
          if i mod 64 = 0 then
            Client.write txn shared_counter
              (match Client.read txn shared_counter with
              | None -> "1"
              | Some v -> string_of_int (int_of_string v + 1))
          else begin
            let key = Printf.sprintf "k%06d" i in
            ignore (Client.read txn key);
            Client.write txn key (string_of_int i)
          end;
          txn
        with
        | txn -> ignore (Client.commit txn)
        | exception Client.Unavailable _ -> incr failures)
  done;
  (dues, fun () -> !failures)

(* The manager, DC 0, goes down for [down] seconds and comes back with a
   dirty restart: its unsynced store writes are lost and recovery runs.
   DC 0's log is then sampled every 0.25 s until it reaches the head
   position the group had at bring-up, or [window] seconds have passed.
   The sampler runs whether or not the benchmark traces, so both modes
   simulate the same events. *)
let fault cluster ~group ~down ~window catchups () =
  Cluster.take_down cluster 0;
  Engine.sleep down;
  Cluster.bring_up cluster 0;
  Cluster.dirty_restart cluster 0;
  let up = Cluster.now cluster in
  let head =
    List.fold_left
      (fun m s -> max m (Wal.last_position (Service.wal s) ~group))
      0 (Cluster.services cluster)
  in
  let wal0 = Service.wal (Cluster.service cluster 0) in
  let rec sample () =
    let waited = Cluster.now cluster -. up in
    if Wal.last_position wal0 ~group >= head || waited >= window then
      catchups := waited :: !catchups
    else begin
      Engine.sleep 0.25;
      sample ()
    end
  in
  sample ()

let fault_times size =
  List.init size.faults (fun k ->
      size.fault_first +. (size.fault_period *. float_of_int k))

let ycsb_job ~label ~seed ~config workload =
  {
    label;
    rate = None;
    setup =
      (fun () ->
        let cluster = Cluster.create ~seed ~config (Topology.ec2 "VVV") in
        let handle = Ycsb.run cluster workload in
        {
          cluster;
          groups = Ycsb.group_keys workload;
          cross = workload.Ycsb.cross_ratio > 0.0;
          dues = Hashtbl.create 1;
          begin_failures = (fun () -> handle.Ycsb.begin_failures);
          outages = [];
          catchups = ref [];
        });
  }

(* [faults]: the size whose fault schedule the cluster runs, if any. *)
let open_job ?storage ?faults ~label ~point ~seed ~topology ~group ~rate ~txns
    () =
  {
    label;
    rate = (if point then Some rate else None);
    setup =
      (fun () ->
        let cluster = Cluster.create ~seed ~config:batched ?storage topology in
        let dues, begin_failures = open_loop cluster ~group ~rate ~txns in
        let catchups = ref [] in
        let outages = Option.fold ~none:[] ~some:fault_times faults in
        Option.iter
          (fun size ->
            List.iter
              (fun at ->
                Cluster.spawn ~at cluster
                  (fault cluster ~group ~down:size.fault_down
                     ~window:(size.fault_period -. size.fault_down)
                     catchups))
              outages)
          faults;
        {
          cluster;
          groups = [ group ];
          cross = false;
          dues;
          begin_failures;
          outages;
          catchups;
        });
  }

let instance_jobs size w ~seed ~instance =
  let label = Printf.sprintf "%s#%d" (name w) instance in
  match w with
  | Ycsb_cp -> [ ycsb_job ~label ~seed ~config:Config.default (ycsb_cp size) ]
  | Cross_group ->
      [ ycsb_job ~label ~seed ~config:Config.leader (cross_group size) ]
  | Open_batched ->
      List.map
        (fun rate ->
          open_job
            ~label:(Printf.sprintf "%s@%g" label rate)
            ~point:true ~seed ~topology:(Topology.ec2 ~loss:0.0 "VVV")
            ~group:"ob" ~rate
            ~txns:
              (if rate = size.ref_rate then size.ref_txns else size.rate_txns)
            ())
        size.rates
  | Failover ->
      [
        open_job ~storage:Store.Sync_explicit ~faults:size ~label ~point:false
          ~seed ~topology:(Topology.ec2 "VVVOC") ~group:"fo" ~rate:failover_rate
          ~txns:size.failover_txns ();
      ]

(* Instance 0 runs on the run's seed itself. *)
let jobs size ~seed w =
  List.concat
    (List.init size.instances (fun instance ->
         instance_jobs size w ~seed:(seed + (1_000_003 * instance)) ~instance))

(* ------------------------------------------------------------------ *)
(* One pass: set up, simulate, check, collect, for every cluster.      *)

type observation = {
  counters : (string, float) Hashtbl.t;
      (** Additive over the pass's clusters (events, messages, ...). *)
  e2e : sample;  (** The sample the end-to-end metrics come from. *)
  curve : (float * sample) list;  (** Open loop: one sample per rate. *)
  gaps : float list;
      (** Failover: per fault, from the fault to the first commit of a
          transaction due at or after it. *)
  catchups : float list;
  errors : string list;  (** Oracle violations, empty when clean. *)
  failed : int;  (** Transactions of clusters an oracle rejected. *)
  minor_words : float;  (** Allocated while simulating. *)
  major_collections : int;  (** Run while simulating and checking. *)
  codec_entries : int;  (** Log entries the codec replay covered. *)
}

let txns_of p =
  List.filter_map
    (fun (e : Audit.event) ->
      let id = e.record.Txn.txn_id in
      if String.starts_with ~prefix:Ycsb.preload_id id then None
      else
        Some
          {
            id;
            due = Option.value (Hashtbl.find_opt p.dues id) ~default:e.began_at;
            began = e.began_at;
            started = e.commit_started_at;
            replied = e.committed_at;
            outcome = e.outcome;
            rounds = e.stats.prepare_rounds + e.stats.accept_rounds;
            fast = e.stats.fast_path;
          })
    (Audit.events (Cluster.audit p.cluster))

let verify spans p =
  let per_group =
    List.filter_map
      (fun group ->
        Spans.cpu spans ~tags:[ ("group", group) ] "verify" (fun () ->
            match Verify.check p.cluster ~group with
            | Ok () -> None
            | Error e -> Some (Printf.sprintf "group %s: %s" group e)))
      p.groups
  in
  let cross =
    if not p.cross then []
    else
      Spans.cpu spans "verify.cross" (fun () ->
          match Verify.check_cross p.cluster ~groups:p.groups with
          | Ok () -> []
          | Error e -> [ "check_cross: " ^ e ])
  in
  per_group @ cross

let add counters name v =
  Hashtbl.replace counters name
    (v +. Option.value (Hashtbl.find_opt counters name) ~default:0.0)

let count_counters counters p logs =
  let count name v = add counters name (float_of_int v) in
  let c = p.cluster in
  let net = Network.stats (Cluster.network c) in
  count "events" (Engine.processed (Cluster.engine c));
  add counters "virtual_s" (Cluster.now c);
  count "sent" net.sent;
  count "delivered" net.delivered;
  count "dropped"
    (net.dropped_loss + net.dropped_down + net.dropped_cut
   + net.dropped_oneway);
  count "leader_delivered"
    (Network.delivered_to (Cluster.network c)
       (Cluster.config c).initial_leader);
  List.iter
    (fun s ->
      count "learns" (Service.learns s);
      count "snapshots" (Service.snapshots s);
      let r = Service.recovery_stats s in
      count "scrubbed" r.scrubbed;
      count "relearned" r.relearned;
      let b = Service.throughput_stats s in
      count "batches" b.batches;
      count "batched_txns" b.batched_txns;
      count "pipelined" b.pipelined_rounds;
      count "stalls" b.pipeline_stalls;
      let x = Service.twopc_stats s in
      count "twopc_resolved" x.twopc_resolved;
      count "in_doubt" x.in_doubt_replies;
      count "rows" (Store.row_count (Service.store s)))
    (Cluster.services c);
  List.iter
    (fun log ->
      count "positions" (List.fold_left (fun m (pos, _) -> max m pos) 0 log);
      List.iter
        (fun (_, entry) ->
          if List.length entry > 1 then count "combined" 1;
          count "log_bytes"
            (String.length (Codec.encode Txn.entry_codec entry)))
        log)
    logs

(* Replay the committed log through the entry codec: every entry encoded,
   then every encoding decoded. Traced runs only. *)
let codec_replay spans logs =
  let entries = List.concat_map (List.map snd) logs in
  let encoded =
    Spans.cpu spans "codec.encode" (fun () ->
        List.map (Codec.encode Txn.entry_codec) entries)
  in
  Spans.cpu spans "codec.decode" (fun () ->
      List.iter (fun s -> ignore (Codec.decode_exn Txn.entry_codec s)) encoded);
  List.length entries

let outcome_tag = function
  | Audit.Committed _ | Audit.Read_only_committed -> "committed"
  | Audit.Aborted { reason; _ } ->
      Format.asprintf "aborted:%a" Audit.pp_reason reason
  | Audit.Unknown -> "unknown"

let promotions = function
  | Audit.Committed { promotions; _ } | Audit.Aborted { promotions; _ } ->
      promotions
  | Audit.Read_only_committed | Audit.Unknown -> 0

let txn_spans spans ~label txns =
  List.iter
    (fun t ->
      let tags =
        [
          ("run", label);
          ("outcome", outcome_tag t.outcome);
          ("promotions", string_of_int (promotions t.outcome));
          ("rounds", string_of_int t.rounds);
          ("fast_path", string_of_bool t.fast);
        ]
      in
      Spans.virtual_span spans ~txn:t.id ~tags "txn.exec" ~start:t.began
        ~stop:t.started;
      Spans.virtual_span spans ~txn:t.id ~tags "txn.commit" ~start:t.started
        ~stop:t.replied)
    txns

let merge a b =
  { txns = a.txns @ b.txns; begin_failed = a.begin_failed + b.begin_failed }

let empty = { txns = []; begin_failed = 0 }

(* For each fault: the first commit of a transaction due at or after it,
   less the fault time. *)
let first_commit_gaps faults s =
  List.filter_map
    (fun f ->
      List.fold_left
        (fun gap t ->
          if committed t && t.due >= f then
            Some
              (Float.min (t.replied -. f)
                 (Option.value gap ~default:infinity))
          else gap)
        None s.txns)
    faults

let run_pass size w ~seed ~spans =
  let counters = Hashtbl.create 32 in
  let curve = List.map (fun r -> (r, ref empty)) size.rates in
  let e2e = ref empty and gaps = ref [] and catchups = ref [] in
  let errors = ref [] and failed = ref 0 and codec_entries = ref 0 in
  let minor_words = ref 0.0 and major = ref 0 in
  List.iter
    (fun job ->
      (* Each cluster starts on a collected heap, so the heap peak is that
         of one cluster and not of whichever garbage the collector had
         yet to reach. *)
      Spans.cpu spans "heap-reset" Gc.full_major;
      let p = Spans.cpu spans "setup" job.setup in
      let words = Gc.minor_words () in
      let majors = (Gc.quick_stat ()).Gc.major_collections in
      Spans.cpu spans "simulate" (fun () -> Cluster.run p.cluster);
      minor_words := !minor_words +. (Gc.minor_words () -. words);
      let errs = verify spans p in
      major := !major + (Gc.quick_stat ()).Gc.major_collections - majors;
      let sample, logs =
        Spans.cpu spans "collect" (fun () ->
            let logs =
              List.filter_map
                (fun group ->
                  match Cluster.committed_log p.cluster ~group with
                  | log -> Some log
                  | exception Failure _ -> None)
                p.groups
            in
            count_counters counters p logs;
            let txns = txns_of p in
            if Spans.traced spans then txn_spans spans ~label:job.label txns;
            ({ txns; begin_failed = p.begin_failures () }, logs))
      in
      if Spans.traced spans then
        codec_entries :=
          !codec_entries
          + Spans.cpu spans "codec-replay" (fun () -> codec_replay spans logs);
      add counters "commits"
        (float_of_int (List.length (List.filter committed sample.txns)));
      if errs <> [] then begin
        errors := !errors @ List.map (fun e -> job.label ^ ": " ^ e) errs;
        failed := !failed + attempted sample
      end;
      let job_catchups = List.rev !(p.catchups) in
      catchups := !catchups @ job_catchups;
      gaps := !gaps @ first_commit_gaps p.outages sample;
      if Spans.traced spans then
        List.iter2
          (fun f c ->
            let tags = [ ("run", job.label) ] in
            let up = f +. size.fault_down in
            Spans.virtual_span spans ~tags "fault" ~start:f ~stop:up;
            Spans.virtual_span spans ~tags "catchup" ~start:up ~stop:(up +. c))
          p.outages job_catchups;
      Option.iter
        (fun r ->
          let point = List.assoc r curve in
          point := merge !point sample)
        job.rate;
      if job.rate = None || job.rate = Some size.ref_rate then
        e2e := merge !e2e sample)
    (jobs size ~seed w);
  {
    counters;
    e2e = !e2e;
    curve =
      (if w = Open_batched then List.map (fun (r, s) -> (r, !s)) curve
       else []);
    gaps = !gaps;
    catchups = !catchups;
    errors = !errors;
    failed = !failed;
    minor_words = !minor_words;
    major_collections = !major;
    codec_entries = !codec_entries;
  }

(* Set-up alone: every cluster of the workload created and loaded with
   its workload, then dropped unrun. *)
let setup_only size w ~seed =
  List.iter
    (fun job -> ignore (Sys.opaque_identity (job.setup ())))
    (jobs size ~seed w)
