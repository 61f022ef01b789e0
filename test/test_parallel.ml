(* Tests for the parallel map and the domain-safety of the simulator:
   ordering and exception contracts of Pool.map, nested use, engines
   running concurrently on separate domains, and byte-identical figure
   output whatever the domain count. *)

module Pool = Mdds_parallel.Pool
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng
module Figures = Mdds_harness.Figures

(* ------------------------------------------------------------------ *)
(* Pool.map contracts.                                                  *)

let test_map_ordering () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 7 in
  Alcotest.(check (list int)) "matches List.map" (List.map f xs)
    (Pool.map ~domains:7 f xs);
  Alcotest.(check (list int)) "empty" [] (Pool.map ~domains:4 f []);
  Alcotest.(check (list int)) "singleton" [ 7 ] (Pool.map ~domains:4 f [ 0 ]);
  Alcotest.(check (list int)) "more domains than elements"
    (List.map f [ 1; 2; 3 ])
    (Pool.map ~domains:16 f [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "domains=0 falls back to sequential"
    (List.map f xs) (Pool.map ~domains:0 f xs)

let test_map_exception () =
  let f x = if x = 57 || x = 80 then failwith (Printf.sprintf "boom%d" x) else x in
  (match Pool.map ~domains:4 f (List.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure m ->
      (* The smallest failing index wins: the exception a sequential
         List.map would have raised. *)
      Alcotest.(check string) "smallest failing index" "boom57" m);
  (* The next map is unaffected by the failure. *)
  Alcotest.(check (list int)) "usable after failure" [ 2; 4 ]
    (Pool.map ~domains:2 (fun x -> 2 * x) [ 1; 2 ])

let test_map_nested () =
  (* A map inside another map's [f] must not spawn recursively; it
     degrades to a sequential map with identical results. *)
  let inner x = Pool.map ~domains:2 (fun y -> (x * 10) + y) [ 1; 2; 3 ] in
  Alcotest.(check (list (list int))) "nested map"
    [ [ 11; 12; 13 ]; [ 21; 22; 23 ]; [ 31; 32; 33 ] ]
    (Pool.map ~domains:2 inner [ 1; 2; 3 ])

let test_beyond_domain_limit () =
  (* 200 exceeds the runtime's domain limit: spawning stops at the first
     refusal and the batch finishes on the domains already running; the
     next map is unaffected. *)
  let xs = List.init 200 Fun.id in
  let f x = (x * 7) + 1 in
  Alcotest.(check (list int)) "domains=200" (List.map f xs)
    (Pool.map ~domains:200 f xs);
  Alcotest.(check (list int)) "next map still works" (List.map f xs)
    (Pool.map ~domains:4 f xs)

let test_helper_minor_heap () =
  (* Element 0 waits until element 1 has started, so the two run on
     different domains: one of them is a helper. *)
  let started = Atomic.make false in
  let f i =
    if i = 1 then Atomic.set started true
    else begin
      let deadline = Unix.gettimeofday () +. 10. in
      while (not (Atomic.get started)) && Unix.gettimeofday () < deadline do
        Domain.cpu_relax ()
      done
    end;
    ((Domain.self () :> int), (Gc.get ()).Gc.minor_heap_size)
  in
  let caller = (Domain.self () :> int) in
  match List.filter (fun (d, _) -> d <> caller) (Pool.map ~domains:2 f [ 0; 1 ]) with
  | [ (_, words) ] ->
      Alcotest.(check bool) "helper minor heap >= 4M words" true
        (words >= 4 * 1024 * 1024)
  | _ -> Alcotest.fail "expected exactly one element on a helper domain"

let test_cost_hint_equivalence () =
  (* A cost estimate reorders dispatch only; results are input-ordered and
     identical whatever the estimate says — including adversarial ones. *)
  let xs = List.init 100 Fun.id in
  let f x = (x * 3) mod 17 in
  let expected = List.map f xs in
  List.iter
    (fun cost ->
      Alcotest.(check (list int)) "cost hint does not change results" expected
        (Pool.map ~domains:5 ~cost f xs))
    [
      (fun x -> float_of_int x) (* cheap-first input order reversed *);
      (fun x -> -.float_of_int x) (* already longest-first *);
      (fun _ -> 1.0) (* all ties: input order *);
      (fun x -> float_of_int (x mod 3)) (* many ties *);
    ]

let test_jobs_knob () =
  Pool.set_jobs (Some 3);
  Alcotest.(check int) "set_jobs wins" 3 (Pool.get_jobs ());
  Pool.set_jobs (Some 0);
  Alcotest.(check int) "clamped to 1" 1 (Pool.get_jobs ());
  Pool.set_jobs None;
  Alcotest.(check bool) "default is positive" true (Pool.get_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Engines on separate domains.                                         *)

(* One self-contained trial: processes, sleeps and RNG draws, returning a
   digest of everything the engine did. Pure function of the seed. *)
let engine_trial seed =
  let engine = Engine.create ~seed () in
  let rng = Engine.rng engine in
  let acc = ref 0 in
  for _i = 1 to 50 do
    Engine.spawn engine (fun () ->
        Engine.sleep (Rng.float rng 1.0);
        acc := !acc + Rng.int rng 1000;
        Engine.yield ();
        acc := !acc + 1)
  done;
  Engine.run engine;
  (!acc, Engine.now engine, Engine.processed engine)

let test_engines_in_domains () =
  let seq1 = engine_trial 1 and seq2 = engine_trial 2 in
  let d1 = Domain.spawn (fun () -> engine_trial 1) in
  let d2 = Domain.spawn (fun () -> engine_trial 2) in
  let par1 = Domain.join d1 and par2 = Domain.join d2 in
  Alcotest.(check bool) "seed 1 unaffected by concurrent engine" true (seq1 = par1);
  Alcotest.(check bool) "seed 2 unaffected by concurrent engine" true (seq2 = par2);
  (* And through Pool.map, which also interleaves with the caller domain. *)
  let pooled = Pool.map ~domains:4 engine_trial [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "pooled trials = sequential trials" true
    (pooled = List.map engine_trial [ 1; 2; 3; 4 ])

(* ------------------------------------------------------------------ *)
(* Byte-identical figures.                                              *)

let with_captured_stdout f =
  let tmp = Filename.temp_file "mdds_parallel" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let ic = open_in_bin tmp in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  s

let test_figures_byte_identical () =
  (* A full figure (both protocols, four topologies) on a reduced seed set,
     rendered with one domain and with four: the printed tables must match
     byte for byte. *)
  let render jobs =
    Pool.set_jobs (Some jobs);
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs None)
      (fun () -> with_captured_stdout (fun () -> Figures.fig4a ~seeds:[ 5 ] ()))
  in
  let seq = render 1 in
  let par = render 4 in
  let par8 = render 8 in
  Alcotest.(check bool) "figure actually rendered" true (String.length seq > 100);
  Alcotest.(check string) "jobs=1 and jobs=4 tables identical" seq par;
  Alcotest.(check string) "jobs=1 and jobs=8 tables identical" seq par8

let test_chaos_byte_identical () =
  (* A chaos battery (mixed durations, so the cost-aware dispatch actually
     reorders) printed at one domain and at eight: identical reports. *)
  let module Runner = Mdds_chaos.Runner in
  let specs =
    List.concat_map
      (fun seed ->
        [
          Runner.spec ~seed ~duration:6.0 "VVV";
          Runner.spec ~seed ~duration:12.0 "VVVOC";
        ])
      [ 3; 4 ]
  in
  let render jobs =
    Pool.set_jobs (Some jobs);
    Fun.protect
      ~finally:(fun () -> Pool.set_jobs None)
      (fun () ->
        with_captured_stdout (fun () ->
            List.iter
              (fun report ->
                Format.printf "%a@." Runner.pp_report report;
                Format.printf "  %a" Runner.pp_timeline report)
              (Runner.run_many specs)))
  in
  let seq = render 1 in
  let par = render 8 in
  Alcotest.(check bool) "reports actually rendered" true (String.length seq > 100);
  Alcotest.(check string) "jobs=1 and jobs=8 chaos reports identical" seq par

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map ordering" `Quick test_map_ordering;
          Alcotest.test_case "exception propagation" `Quick test_map_exception;
          Alcotest.test_case "nested use" `Quick test_map_nested;
          Alcotest.test_case "beyond the domain limit" `Quick
            test_beyond_domain_limit;
          Alcotest.test_case "helper minor heap" `Quick test_helper_minor_heap;
          Alcotest.test_case "cost hint preserves results" `Quick
            test_cost_hint_equivalence;
          Alcotest.test_case "jobs knob" `Quick test_jobs_knob;
        ] );
      ( "engines",
        [ Alcotest.test_case "independent engines per domain" `Quick test_engines_in_domains ] );
      ( "figures",
        [ Alcotest.test_case "byte-identical output" `Slow test_figures_byte_identical ] );
      ( "chaos",
        [ Alcotest.test_case "byte-identical reports" `Slow test_chaos_byte_identical ] );
    ]
