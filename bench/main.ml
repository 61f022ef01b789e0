(* Figure parallel-speedup harness.

   Times every selected figure twice — pinned to one domain, then on
   --jobs domains — and writes the wall clocks as JSON, e.g.

     dune exec bench/main.exe -- --jobs 4 --out bench-jobs4.json fig4a
     python3 scripts/bench_guard.py bench-jobs4.json

   Usage: main.exe [--jobs N] [--out PATH] [ID...]. With no
   ids every figure is timed; see `mdds list` for the ids. --jobs N (or
   MDDS_JOBS) sets the width; figure output is byte-identical whatever
   the value, so only the wall clock differs between the two passes.
   --out defaults to BENCH_harness.json. scripts/bench_guard.py enforces
   the speedup floor on the result. *)

module Figures = Mdds_harness.Figures
module Pool = Mdds_parallel.Pool

let time_run f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* Ids come from [Figures.all], so they need no JSON escaping. *)
let emit_json ~path ~jobs figures =
  let out = open_out path in
  let p fmt = Printf.fprintf out fmt in
  p "{\n";
  p "  \"schema\": 1,\n";
  p "  \"jobs\": %d,\n" jobs;
  p "  \"domains_recommended\": %d,\n" (Domain.recommended_domain_count ());
  p "  \"figures\": [\n";
  List.iteri
    (fun i (id, seq_s, par_s) ->
      p "    {\"id\": \"%s\", \"seconds_sequential\": %.3f, \
         \"seconds_parallel\": %.3f, \"speedup\": %.2f}%s\n"
        id seq_s par_s
        (if par_s > 0. then seq_s /. par_s else 0.)
        (if i = List.length figures - 1 then "" else ","))
    figures;
  p "  ]\n";
  p "}\n";
  close_out out;
  Printf.printf "\nwrote %s\n" path

let time_figures ~jobs figures =
  List.map
    (fun (id, run) ->
      Printf.printf "\n-- timing %s (sequential) --\n%!" id;
      Pool.set_jobs (Some 1);
      let seq_s = time_run run in
      Printf.printf "\n-- timing %s (%d domains) --\n%!" id jobs;
      Pool.set_jobs (Some jobs);
      let par_s = time_run run in
      (id, seq_s, par_s))
    figures

let () =
  let out = ref "BENCH_harness.json" in
  let rec parse (jobs, ids) = function
    | [] -> (jobs, List.rev ids)
    | "--out" :: path :: rest ->
        out := path;
        parse (jobs, ids) rest
    | "--out" :: [] ->
        Printf.eprintf "--out needs a path\n";
        exit 2
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> parse (Some n, ids) rest
        | _ ->
            Printf.eprintf "bad --jobs value %S (expected a positive integer)\n" n;
            exit 2)
    | ("--jobs" | "-j") :: [] ->
        Printf.eprintf "--jobs needs a value\n";
        exit 2
    | id :: rest -> parse (jobs, id :: ids) rest
  in
  let jobs, ids = parse (None, []) (List.tl (Array.to_list Sys.argv)) in
  let figures =
    try Figures.resolve ids
    with Invalid_argument msg ->
      prerr_endline msg;
      exit 2
  in
  Pool.set_jobs jobs;
  let jobs = Pool.get_jobs () in
  emit_json ~path:!out ~jobs (time_figures ~jobs figures)
