(* The end-to-end benchmark.

     dune exec bench_e2e/e2e.exe -- [--workload W]... [--seed N] [--seconds S]
                                    [--out FILE] [--trace] [--trace-out DIR]

   Without --workload every workload runs, each in a fresh child process
   (this executable re-run with --workload), so each has its own heap
   peak and the host never runs more than one simulation at a time. A
   workload runs on one domain; --jobs is refused.

   --seconds S repeats the measured pass until S seconds of wall time are
   used (default 0: one pass, two when tracing). Virtual-time metrics
   come from the first pass and must repeat exactly; CPU metrics are
   medians over the passes.

   --out FILE writes one JSON line per workload. --trace adds the traced
   passes and their per-layer metrics, and writes the spans as JSON
   Lines to DIR/<workload>.jsonl (default _build/bench-trace).

   Exit status: 0 when every oracle is clean, 1 on a violation, 2 on bad
   arguments. *)

open Mdds_e2e
module W = Workloads

type opts = {
  workloads : W.t list;
  seed : int;
  seconds : float;
  out : string option;
  trace : bool;
  trace_out : string;
}

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("e2e: " ^ msg);
      exit 2)
    fmt

let names = String.concat ", " (List.map fst W.all)

let rec parse opts = function
  | [] -> opts
  | "--workload" :: w :: rest -> (
      match List.assoc_opt w W.all with
      | Some x -> parse { opts with workloads = opts.workloads @ [ x ] } rest
      | None -> fail "unknown workload %S (expected one of %s)" w names)
  | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> parse { opts with seed } rest
      | None -> fail "--seed expects an integer, got %S" s)
  | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some seconds when seconds >= 0.0 -> parse { opts with seconds } rest
      | _ -> fail "--seconds expects a non-negative number, got %S" s)
  | "--out" :: f :: rest -> parse { opts with out = Some f } rest
  | "--trace" :: rest -> parse { opts with trace = true } rest
  | "--trace-out" :: d :: rest -> parse { opts with trace_out = d } rest
  | arg :: _ when arg = "-j" || String.starts_with ~prefix:"--jobs" arg ->
      fail "--jobs is refused: the benchmark runs each workload on one domain"
  | [ (("--workload" | "--seed" | "--seconds" | "--out" | "--trace-out") as f) ]
    ->
      fail "%s expects a value" f
  | ("-h" | "-help" | "--help") :: _ ->
      print_string
        "usage: e2e.exe [--workload W]... [--seed N] [--seconds S] \
         [--out FILE] [--trace] [--trace-out DIR]\n";
      Printf.printf "workloads: %s\n" names;
      exit 0
  | arg :: _ -> fail "unknown argument %S (try --help)" arg

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Open the output now, so a path that cannot be written fails before
   any work is done. *)
let open_out_or_fail path =
  try open_out path with Sys_error e -> fail "cannot write --out: %s" e

let run_here opts w =
  let oc = Option.map open_out_or_fail opts.out in
  let r =
    Report.measure ~seconds:opts.seconds W.full w ~seed:opts.seed
      ~traced:opts.trace
  in
  Report.print W.full w r;
  (match r.trace_spans with
  | Some spans ->
      let path = Filename.concat opts.trace_out (W.name w ^ ".jsonl") in
      (try
         mkdir_p opts.trace_out;
         Out_channel.with_open_text path (Spans.write_jsonl spans);
         Printf.printf "  spans: %s\n" path
       with Sys_error e | Unix.Unix_error (_, _, e) ->
         fail "cannot write --trace-out: %s" e)
  | None -> ());
  Option.iter
    (fun oc ->
      output_string oc (Report.to_json r ^ "\n");
      close_out oc)
    oc;
  Report.correct r

(* One child process per workload, one at a time. *)
let run_children opts =
  let check = Option.map open_out_or_fail opts.out in
  Option.iter close_out check;
  let results =
    List.map
      (fun w ->
        let part = Option.map (fun f -> f ^ "." ^ W.name w) opts.out in
        let args =
          [ Sys.executable_name; "--workload"; W.name w;
            "--seed"; string_of_int opts.seed;
            "--seconds"; Printf.sprintf "%h" opts.seconds;
            "--trace-out"; opts.trace_out ]
          @ (if opts.trace then [ "--trace" ] else [])
          @ match part with Some p -> [ "--out"; p ] | None -> []
        in
        flush_all ();
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args)
            Unix.stdin Unix.stdout Unix.stderr
        in
        let ok =
          match snd (Unix.waitpid [] pid) with
          | Unix.WEXITED 0 -> true
          | _ -> false
        in
        let line =
          Option.bind part (fun p ->
              if Sys.file_exists p then begin
                let l = In_channel.with_open_text p In_channel.input_all in
                Sys.remove p;
                Some l
              end
              else None)
        in
        (ok, line))
      opts.workloads
  in
  Option.iter
    (fun f ->
      Out_channel.with_open_text f (fun oc ->
          List.iter (fun (_, l) -> Option.iter (output_string oc) l) results))
    opts.out;
  List.for_all fst results

let () =
  let opts =
    parse
      {
        workloads = [];
        seed = 42;
        seconds = 0.0;
        out = None;
        trace = false;
        trace_out = Filename.concat "_build" "bench-trace";
      }
      (List.tl (Array.to_list Sys.argv))
  in
  let ok =
    match opts.workloads with
    | [ w ] -> run_here opts w
    | [] -> run_children { opts with workloads = List.map snd W.all }
    | _ -> run_children opts
  in
  exit (if ok then 0 else 1)
