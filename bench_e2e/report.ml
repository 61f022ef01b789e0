(* Every metric the benchmark emits: its definition, how one pass yields
   it, how passes are combined, and how a result is printed.

   Two clocks. Virtual-time metrics and counts are a pure function of
   (workload, seed): they are taken from the first pass and every later
   pass must reproduce them bit for bit. CPU metrics vary from run to
   run: each is the median over the passes that measured it. *)

module W = Workloads

type def = {
  name : string;
  unit : string;
  layer : string;  (** "end-to-end" or the layer the metric belongs to *)
  cpu : bool;  (** CPU-clock metric: median over passes *)
  traced_only : bool;
}

let def ?(cpu = false) ?(traced_only = false) layer name unit =
  { name; unit; layer; cpu; traced_only }

let end_to_end =
  let e ?cpu = def ?cpu "end-to-end" in
  [
    e "latency_p50_ms" "ms";
    e "latency_p99_ms" "ms";
    e "commit_frac" "fraction";
    e ~cpu:true "cpu_us_per_commit" "us";
    e ~cpu:true "setup_s" "s";
    e ~cpu:true "heap_peak_mb" "MB";
  ]

let curve_defs =
  List.concat_map
    (fun rate ->
      let n = Printf.sprintf "curve.%g.%s" rate in
      [
        def "workload" (n "p50_ms") "ms";
        def "workload" (n "p99_ms") "ms";
        def "workload" (n "fail_frac") "fraction";
      ])
    W.full.rates

let per_layer =
  [
    def "sim" "sim.events_per_commit" "count";
    def ~cpu:true "sim" "sim.ns_per_event" "ns";
    def "sim" "sim.virtual_s" "s";
    def "net" "net.msgs_per_commit" "count";
    def "net" "net.drop_frac" "fraction";
    def "net" "net.leader_share" "fraction";
    def "paxos" "paxos.rounds_per_commit" "count";
    def "paxos" "paxos.fast_path_rate" "fraction";
    def "paxos" "cp.promoted_frac" "fraction";
    def "paxos" "cp.combined_entries" "count";
    def "paxos" "txn.exec_ms_p50" "ms";
    def "paxos" "txn.commit_ms_p50" "ms";
    def "paxos" "txn.commit_ms_p99" "ms";
    def "paxos" "abort.conflict_frac" "fraction";
    def "paxos" "abort.lost_frac" "fraction";
    def "paxos" "abort.unavailable_frac" "fraction";
    def "paxos" "abort.unknown_frac" "fraction";
    def "paxos" "abort.begin_fail_frac" "fraction";
    def "service" "batch.txns_per_position" "count";
    def "service" "batch.pipelined_frac" "fraction";
    def "service" "batch.stalls_per_1k" "count";
    def "service" "service.learns_per_1k" "count";
    def "service" "service.snapshots" "count";
    def "service" "recovery.scrubbed" "count";
    def "service" "recovery.relearned" "count";
    def "service" "twopc.resolved" "count";
    def "service" "twopc.in_doubt_replies" "count";
    def "storage" "wal.positions_per_commit" "count";
    def "storage" "wal.catchup_s" "s";
    def "storage" "store.rows_per_commit" "count";
    def "storage" "codec.log_bytes_per_commit" "B";
    def ~cpu:true ~traced_only:true "storage" "codec.encode_ns_per_entry" "ns";
    def ~cpu:true ~traced_only:true "storage" "codec.decode_ns_per_entry" "ns";
    def ~cpu:true "oracles" "verify.cpu_us_per_commit" "us";
    def ~cpu:true "oracles" "simulate.cpu_us_per_commit" "us";
    def ~cpu:true "oracles" "gc.minor_words_per_commit" "words";
    def ~cpu:true "oracles" "gc.major_collections" "count";
    def ~cpu:true ~traced_only:true "oracles" "trace.overhead_frac" "fraction";
    def "workload" "max_rate_at_slo" "txn/s";
    def "workload" "unavail_s" "s";
  ]
  @ curve_defs

let all_defs = end_to_end @ per_layer
let find name = List.find (fun d -> d.name = name) all_defs
let is_end_to_end name = List.exists (fun d -> d.name = name) end_to_end

(* ------------------------------------------------------------------ *)
(* One pass -> metric values.                                           *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* Nearest-rank percentile; [infinity] stands for a failure. *)
let percentile p = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(max 1 (min n (int_of_float (ceil (p /. 100. *. fi n)))) - 1)

let median = percentile 50.
let ms s = s *. 1000.

let committed_txns (s : W.sample) = List.filter W.committed s.txns

(* Latency from due to the final reply, committed transactions only. *)
let latencies s =
  List.map (fun (t : W.txn) -> t.replied -. t.due) (committed_txns s)

let fail_frac (s : W.sample) =
  1.0 -. ratio (fi (List.length (committed_txns s))) (fi (W.attempted s))

(* The highest offered rate whose p99 from due, with every failed
   transaction counted as a miss, is within the SLO. *)
let max_rate_at_slo curve =
  List.fold_left
    (fun best (rate, (s : W.sample)) ->
      let lats =
        List.map
          (fun (t : W.txn) ->
            if W.committed t then t.replied -. t.due else infinity)
          s.txns
        @ List.init s.begin_failed (fun _ -> infinity)
      in
      if percentile 99. lats <= W.slo then Float.max best rate else best)
    0.0 curve

(* Deterministic metrics of one pass, with the sample count of each
   latency. *)
let virtual_metrics (o : W.observation) =
  let c name = Option.value (Hashtbl.find_opt o.counters name) ~default:0.0 in
  let commits = c "commits" in
  let per_commit name = ratio (c name) commits in
  let s = o.e2e in
  let attempted = fi (W.attempted s) in
  let committed = committed_txns s in
  let rw =
    List.filter
      (fun (t : W.txn) ->
        match t.outcome with Mdds_core.Audit.Committed _ -> true | _ -> false)
      committed
  in
  let count p l = fi (List.length (List.filter p l)) in
  let frac_of p = ratio (count p s.txns) attempted in
  let abort p (t : W.txn) =
    match t.outcome with
    | Mdds_core.Audit.Aborted { reason; _ } -> p reason
    | _ -> false
  in
  let lat = latencies s in
  let n = List.length lat in
  let exec = List.map (fun (t : W.txn) -> t.started -. t.began) committed in
  let commit = List.map (fun (t : W.txn) -> t.replied -. t.started) committed in
  let rw_frac p = ratio (count p rw) (fi (List.length rw)) in
  let rounds = List.fold_left (fun a (t : W.txn) -> a + t.rounds) 0 rw in
  let curve =
    List.concat_map
      (fun (rate, cs) ->
        let l = latencies cs and k = List.length (committed_txns cs) in
        let name = Printf.sprintf "curve.%g.%s" rate in
        [
          (name "p50_ms", ms (median l), Some k);
          (name "p99_ms", ms (percentile 99. l), Some k);
          (name "fail_frac", fail_frac cs, None);
        ])
      o.curve
  in
  let curve =
    (* Workloads without a rate sweep emit the curve as zeros. *)
    List.map
      (fun d ->
        match List.find_opt (fun (n, _, _) -> n = d.name) curve with
        | Some m -> m
        | None -> (d.name, 0.0, None))
      curve_defs
  in
  [
    ("latency_p50_ms", ms (median lat), Some n);
    ("latency_p99_ms", ms (percentile 99. lat), Some n);
    ("commit_frac", ratio (fi (List.length committed)) attempted, None);
    ("sim.events_per_commit", per_commit "events", None);
    ("sim.virtual_s", c "virtual_s", None);
    ("net.msgs_per_commit", per_commit "sent", None);
    ("net.drop_frac", ratio (c "dropped") (c "sent"), None);
    ("net.leader_share", ratio (c "leader_delivered") (c "delivered"), None);
    ("paxos.rounds_per_commit", ratio (fi rounds) (fi (List.length rw)), None);
    ("paxos.fast_path_rate", rw_frac (fun t -> t.fast), None);
    ("cp.promoted_frac", rw_frac (fun t -> W.promotions t.outcome > 0), None);
    ("cp.combined_entries", c "combined", None);
    ("txn.exec_ms_p50", ms (median exec), Some n);
    ("txn.commit_ms_p50", ms (median commit), Some n);
    ("txn.commit_ms_p99", ms (percentile 99. commit), Some n);
    ( "abort.conflict_frac",
      frac_of
        (abort (function
          | Mdds_core.Audit.Conflict | Promotion_limit -> true
          | Lost_position | Unavailable -> false)),
      None );
    ( "abort.lost_frac",
      frac_of (abort (( = ) Mdds_core.Audit.Lost_position)),
      None );
    ( "abort.unavailable_frac",
      frac_of (abort (( = ) Mdds_core.Audit.Unavailable)),
      None );
    ( "abort.unknown_frac",
      frac_of (fun t -> t.outcome = Mdds_core.Audit.Unknown),
      None );
    ("abort.begin_fail_frac", ratio (fi s.begin_failed) attempted, None);
    ("batch.txns_per_position", ratio (c "batched_txns") (c "batches"), None);
    ("batch.pipelined_frac", ratio (c "pipelined") (c "batches"), None);
    ("batch.stalls_per_1k", 1000. *. per_commit "stalls", None);
    ("service.learns_per_1k", 1000. *. per_commit "learns", None);
    ("service.snapshots", c "snapshots", None);
    ("recovery.scrubbed", c "scrubbed", None);
    ("recovery.relearned", c "relearned", None);
    ("twopc.resolved", c "twopc_resolved", None);
    ("twopc.in_doubt_replies", c "in_doubt", None);
    ("wal.positions_per_commit", per_commit "positions", None);
    ("wal.catchup_s", median o.catchups, Some (List.length o.catchups));
    ("store.rows_per_commit", per_commit "rows", None);
    ("codec.log_bytes_per_commit", per_commit "log_bytes", None);
    ("max_rate_at_slo", max_rate_at_slo o.curve, None);
    ("unavail_s", median o.gaps, Some (List.length o.gaps));
  ]
  @ curve

(* CPU metrics of one pass. *)
let cpu_metrics (o : W.observation) spans =
  let commits =
    Option.value (Hashtbl.find_opt o.counters "commits") ~default:0.0
  in
  let cpu = Spans.cpu_seconds spans in
  let simulate = cpu "simulate" in
  let verify = cpu "verify" +. cpu "verify.cross" in
  let per_commit_us s = ratio (s *. 1e6) commits in
  let per_entry_ns s = ratio (s *. 1e9) (fi o.codec_entries) in
  [
    ("cpu_us_per_commit", per_commit_us (simulate +. verify));
    ( "sim.ns_per_event",
      ratio (simulate *. 1e9)
        (Option.value (Hashtbl.find_opt o.counters "events") ~default:0.0) );
    ("verify.cpu_us_per_commit", per_commit_us verify);
    ("simulate.cpu_us_per_commit", per_commit_us simulate);
    ("gc.minor_words_per_commit", ratio o.minor_words commits);
    ("gc.major_collections", fi o.major_collections);
  ]
  @
  if Spans.traced spans then
    [
      ("codec.encode_ns_per_entry", per_entry_ns (cpu "codec.encode"));
      ("codec.decode_ns_per_entry", per_entry_ns (cpu "codec.decode"));
    ]
  else []

(* ------------------------------------------------------------------ *)
(* A run: passes until the time is up, then medians.                    *)

type pass = {
  traced : bool;
  total_cpu : float;  (** CPU of the whole pass, measured around it *)
  virt : (string * float * int option) list;
  cpu : (string * float) list;
  spans : Spans.t;
  observation : W.observation;
}

type result = {
  workload : string;
  seed : int;
  traced : bool;
  passes : int;
  attempted : int;
  failed : int;
  errors : string list;
  values : (string * float) list;  (** every emitted metric, registry order *)
  samples : (string * int) list;
  trace_spans : Spans.t option;  (** the first traced pass *)
  self_times : (string * float) list;  (** CPU self time of the traced passes *)
  traced_cpu : float;  (** CPU the traced passes measured around themselves *)
  pass_cpu : float list;  (** cpu_us_per_commit of each untraced pass *)
}

let run_one size w ~seed ~traced =
  Gc.compact ();
  let spans = Spans.create ~traced in
  let start = Sys.time () in
  let observation = W.run_pass size w ~seed ~spans in
  let total_cpu = Sys.time () -. start in
  let cpu = cpu_metrics observation spans in
  let virt = virtual_metrics observation in
  { traced; total_cpu; virt; cpu; spans; observation }

(* Set-up is timed in rounds of [k] set-ups, [k] doubled until a round
   takes at least 50 ms of CPU: one set-up of a closed-loop workload
   takes microseconds, too close to the clock's resolution, and with
   fewer set-ups per round the collector's share of a round varies. The
   metric is the median per-set-up time over the rounds; no rounds reads
   0. *)
let setup_seconds ~rounds size w ~seed =
  if rounds = 0 then 0.0 else
  let timed k =
    Gc.compact ();
    let start = Sys.time () in
    for _ = 1 to k do
      W.setup_only size w ~seed
    done;
    (Sys.time () -. start) /. fi k
  in
  let rec calibrate k =
    if timed k *. fi k >= 0.05 then k else calibrate (2 * k)
  in
  let k = calibrate 1 in
  median (List.init rounds (fun _ -> timed k))

(* Passes repeat until [seconds] of wall time are used (at least one;
   in a traced run at least one untraced and one traced, alternating so
   the two share the host's conditions). The heap peak is read after the
   first pass, before set-up timing or later passes can add to it: the
   runtime does not give fragmented heap back. *)
let measure ?(seconds = 0.0) ?(setup_rounds = 7) size w ~seed ~traced =
  Mdds_parallel.Pool.set_jobs (Some 1);
  let started = Unix.gettimeofday () in
  let first = run_one size w ~seed ~traced:false in
  let first_wall = Unix.gettimeofday () -. started in
  let heap_peak_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let setup_s = setup_seconds ~rounds:setup_rounds size w ~seed in
  let rec loop acc last_wall =
    let elapsed = Unix.gettimeofday () -. started in
    let n = List.length acc in
    let min_passes = if traced then 2 else 1 in
    if n >= min_passes && elapsed +. last_wall > seconds then List.rev acc
    else begin
      let t0 = Unix.gettimeofday () in
      let p = run_one size w ~seed ~traced:(traced && n mod 2 = 1) in
      loop (p :: acc) (Unix.gettimeofday () -. t0)
    end
  in
  let passes = loop [ first ] first_wall in
  let nondeterministic =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun ((name, v, _), (_, v', _)) ->
            if Float.equal v v' then None
            else
              Some
                (Printf.sprintf "%s differs between passes (%.17g vs %.17g)"
                   name v v'))
          (List.combine first.virt p.virt))
      (List.tl passes)
  in
  let untraced = List.filter (fun (p : pass) -> not p.traced) passes in
  let traced_passes = List.filter (fun (p : pass) -> p.traced) passes in
  let median_of ps name =
    median (List.filter_map (fun p -> List.assoc_opt name p.cpu) ps)
  in
  let cpu_value (d : def) =
    match d.name with
    | "setup_s" -> setup_s
    | "heap_peak_mb" -> heap_peak_mb
    | "trace.overhead_frac" ->
        (* Tracing cost: the traced passes' CPU, less the codec replay
           they add as a measurement, against the untraced passes. *)
        let total ~less ps =
          median
            (List.map (fun p -> p.total_cpu -. Spans.cpu_seconds p.spans less) ps)
        in
        ratio
          (total ~less:"codec-replay" traced_passes)
          (total ~less:"codec-replay" untraced)
        -. 1.0
    | name ->
        let ps =
          if is_end_to_end name || traced_passes = [] then untraced
          else traced_passes
        in
        median_of ps name
  in
  let emitted = List.filter (fun d -> traced || not d.traced_only) all_defs in
  let values =
    List.map
      (fun (d : def) ->
        if d.cpu then (d.name, cpu_value d)
        else
          match List.find_opt (fun (n, _, _) -> n = d.name) first.virt with
          | Some (_, v, _) -> (d.name, v)
          | None -> invalid_arg ("Report: no value for " ^ d.name))
      emitted
  in
  let self_times =
    List.fold_left
      (fun acc p ->
        List.fold_left
          (fun acc (name, s) ->
            match List.assoc_opt name acc with
            | Some v -> (name, v +. s) :: List.remove_assoc name acc
            | None -> acc @ [ (name, s) ])
          acc (Spans.cpu_self_times p.spans))
      [] traced_passes
  in
  let o = first.observation in
  {
    workload = W.name w;
    seed;
    traced;
    passes = List.length passes;
    attempted = W.attempted o.e2e;
    failed = o.failed;
    errors =
      List.sort_uniq compare
        (List.concat_map (fun p -> p.observation.errors) passes)
      @ nondeterministic;
    values;
    samples =
      List.filter_map
        (fun (n, _, k) -> Option.map (fun k -> (n, k)) k)
        first.virt;
    trace_spans =
      (match traced_passes with p :: _ -> Some p.spans | [] -> None);
    self_times;
    traced_cpu =
      List.fold_left (fun a p -> a +. p.total_cpu) 0.0 traced_passes;
    pass_cpu =
      List.map (fun p -> List.assoc "cpu_us_per_commit" p.cpu) untraced;
  }

let correct r = r.errors = []

(* ------------------------------------------------------------------ *)
(* Output.                                                              *)

let pp_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.6g" v

let print size w r =
  Printf.printf "== %s  seed %d  %s  passes %d\n   %s\n" r.workload r.seed
    (if r.traced then "traced" else "untraced")
    r.passes (W.describe size w);
  let layer = ref "" in
  List.iter
    (fun (name, v) ->
      let d = find name in
      if d.layer <> !layer then begin
        layer := d.layer;
        Printf.printf "  [%s]\n" d.layer
      end;
      Printf.printf "  %-30s %14s %-8s%s\n" name (pp_value v) d.unit
        (match List.assoc_opt name r.samples with
        | Some n -> Printf.sprintf " n=%d" n
        | None -> ""))
    r.values;
  if r.traced then begin
    let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 r.self_times in
    Printf.printf "  [cpu self time, traced passes]\n";
    List.iter
      (fun (name, s) -> Printf.printf "  %-30s %14.3f s\n" name s)
      r.self_times;
    Printf.printf "  %-30s %14.3f s  (%.1f%% of %.3f s measured)\n" "sum" sum
      (100. *. ratio sum r.traced_cpu)
      r.traced_cpu
  end;
  Printf.printf "  cpu_us_per_commit by untraced pass: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.1f") r.pass_cpu));
  Printf.printf "  oracles: %s  (attempted %d, failed %d)\n"
    (if correct r then "clean" else "VIOLATION")
    r.attempted r.failed;
  List.iter (fun e -> Printf.printf "  ! %s\n" e) r.errors;
  flush stdout

(* One JSON object per workload, on one line; numbers with all their
   digits. *)
let to_json r =
  let metrics =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s%s}"
          (Spans.json_string name) v
          (Spans.json_string (find name).unit)
          (match List.assoc_opt name r.samples with
          | Some n -> Printf.sprintf ",\"samples\":%d" n
          | None -> ""))
      r.values
  in
  Printf.sprintf
    "{\"workload\":%s,\"seed\":%d,\"trace\":%b,\"passes\":%d,\"correct\":%b,\
     \"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"metrics\":{%s}}"
    (Spans.json_string r.workload)
    r.seed r.traced r.passes (correct r) r.attempted r.failed
    (String.concat "," (List.map Spans.json_string r.errors))
    (String.concat "," metrics)
