(* Tests for the discrete-event simulation engine: heap, RNG and engine
   scheduling semantics. *)

module Heap = Mdds_sim.Heap
module Rng = Mdds_sim.Rng
module Engine = Mdds_sim.Engine

(* ------------------------------------------------------------------ *)
(* Heap.                                                                *)

let pop_all h = List.init (Heap.length h) (fun _ -> Heap.pop h)

let test_heap_basic () =
  let h = Heap.create ~filler:"" () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h ~time:2.0 ~seq:1 "b";
  Heap.push h ~time:1.0 ~seq:2 "a";
  Heap.push h ~time:3.0 ~seq:3 "c";
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (float 0.0)) "min time" 1.0 (Heap.min_time h);
  Alcotest.(check int) "min seq" 2 (Heap.min_seq h);
  Alcotest.(check (list string)) "pop order" [ "a"; "b"; "c" ] (pop_all h);
  Alcotest.(check bool) "drained" true (Heap.is_empty h);
  Alcotest.check_raises "pop empty" (Invalid_argument "Heap.pop: empty") (fun () ->
      ignore (Heap.pop h));
  Alcotest.check_raises "min_time empty" (Invalid_argument "Heap.min_time: empty")
    (fun () -> ignore (Heap.min_time h))

let test_heap_fifo_ties () =
  let h = Heap.create ~filler:0 () in
  for i = 1 to 10 do
    Heap.push h ~time:5.0 ~seq:i i
  done;
  Alcotest.(check (list int)) "FIFO at equal time" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (pop_all h)

let test_heap_no_allocation () =
  (* Past its high-water mark the heap allocates nothing: pushing and
     popping at steady state leaves the minor heap untouched. *)
  let h = Heap.create ~filler:0 () in
  (* Times are pre-boxed (tuple fields), so the loop itself boxes nothing. *)
  let times = Array.init 97 (fun i -> (float_of_int (i * 7919 mod 1000), i)) in
  for i = 1 to 1000 do
    Heap.push h ~time:(fst times.(i mod 97)) ~seq:i i
  done;
  let before = Gc.minor_words () in
  for i = 1001 to 11000 do
    ignore (Sys.opaque_identity (Heap.pop h));
    Heap.push h ~time:(fst times.(i mod 97)) ~seq:i i
  done;
  let words = Gc.minor_words () -. before in
  (* [Gc.minor_words] itself boxes its result. *)
  if words > 8.0 then Alcotest.failf "steady-state push/pop allocated %.0f words" words

let test_heap_releases_popped () =
  (* Neither the slot a pop vacates nor the root a pop empties may keep a
     popped item reachable. *)
  let h = Heap.create ~filler:(ref 0) () in
  let collected = ref false in
  (* Allocated out of line, so no stack slot of this frame keeps it. *)
  let[@inline never] push_watched () =
    let item = ref 2 in
    Gc.finalise_last (fun () -> collected := true) item;
    Heap.push h ~time:2.0 ~seq:2 item
  in
  Heap.push h ~time:1.0 ~seq:1 (ref 1);
  push_watched ();
  Alcotest.(check int) "first" 1 !(Heap.pop h);
  Alcotest.(check int) "second" 2 !(Sys.opaque_identity (Heap.pop h));
  Gc.full_major ();
  Alcotest.(check bool) "popped item collected" true !collected;
  (* Keeps the heap itself reachable across the collection. *)
  Heap.push h ~time:3.0 ~seq:3 (ref 3);
  Alcotest.(check int) "heap still usable" 1 (Heap.length h)

(* Drain as [(time, seq)] keys, reading the key before each pop. *)
let drain_keys h =
  List.init (Heap.length h) (fun _ ->
      let key = (Heap.min_time h, Heap.min_seq h) in
      ignore (Heap.pop h);
      key)

let heap_sorted_prop =
  QCheck.Test.make ~name:"heap pops in nondecreasing (time, seq) order" ~count:200
    QCheck.(list (pair (float_bound_inclusive 1000.0) small_nat))
    (fun entries ->
      let h = Heap.create ~filler:0 () in
      List.iteri (fun i (t, _) -> Heap.push h ~time:t ~seq:i i) entries;
      let rec sorted = function
        | (t, s) :: ((t', s') :: _ as rest) ->
            (t < t' || (t = t' && s < s')) && sorted rest
        | _ -> true
      in
      sorted (drain_keys h))

let heap_interleaved_prop =
  (* Interleaved push/pop: the popped sequence is exactly the sorted
     permutation of everything pushed — nothing lost, nothing duplicated,
     nothing resurrected from a vacated slot. Pops mid-stream exercise the
     slot-clearing path (a popped slot must not retain its old entry). *)
  QCheck.Test.make ~name:"heap interleaved push/pop is a sorted permutation"
    ~count:200
    QCheck.(list (option (float_bound_inclusive 1000.0)))
    (fun script ->
      let h = Heap.create ~filler:0 () in
      let seq = ref 0 in
      let pushed = ref [] in
      let popped = ref [] in
      List.iter
        (fun op ->
          match op with
          | Some t ->
              incr seq;
              Heap.push h ~time:t ~seq:!seq !seq;
              pushed := (t, !seq) :: !pushed
          | None ->
              if not (Heap.is_empty h) then begin
                let key = (Heap.min_time h, Heap.min_seq h) in
                if Heap.pop h <> snd key then QCheck.Test.fail_report "payload mismatch";
                popped := key :: !popped
              end)
        script;
      popped := List.rev_append (drain_keys h) !popped;
      let by_key (t, s) (t', s') =
        match Float.compare t t' with 0 -> Int.compare s s' | c -> c
      in
      (* Each pop run emits a nondecreasing subsequence; the multiset of
         all pops must equal the multiset pushed. Sorting the pops and
         comparing to the sorted pushes checks exactly that. *)
      List.equal
        (fun (t, s) (t', s') -> Float.equal t t' && s = s')
        (List.sort by_key !pushed)
        (List.sort by_key !popped))

type heap_op = Push of float | Pop | Filter of int

(* Interleaved push, pop and filter against a sorted list of keys: the
   entries that survive a filter pop in the model's (time, seq) order,
   nothing a filter removed comes back, and [filter] reports the latest
   time it removed. *)
let heap_filter_prop =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, map (fun t -> Push (float_of_int t /. 4.0)) (int_bound 40));
          (3, return Pop);
          (1, map (fun m -> Filter m) (int_range 1 4));
        ])
  in
  let pp = function
    | Push t -> Printf.sprintf "push %g" t
    | Pop -> "pop"
    | Filter m -> Printf.sprintf "filter seq mod %d <> 0" m
  in
  QCheck.Test.make ~name:"heap filter keeps the (time, seq) order of the survivors"
    ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp ops))
       QCheck.Gen.(list_size (int_bound 120) op))
    (fun ops ->
      let h = Heap.create ~filler:0 () in
      let model = ref [] in
      let seq = ref 0 in
      let same_key (t, s) (t', s') = Float.equal t t' && s = s' in
      List.iter
        (function
          | Push t ->
              incr seq;
              Heap.push h ~time:t ~seq:!seq !seq;
              model := List.merge compare !model [ (t, !seq) ]
          | Pop -> (
              match !model with
              | [] -> ()
              | key :: rest ->
                  let got = (Heap.min_time h, Heap.min_seq h) in
                  if Heap.pop h <> snd got then QCheck.Test.fail_report "payload mismatch";
                  if not (same_key key got) then QCheck.Test.fail_report "pop order";
                  model := rest)
          | Filter m ->
              let keep s = s mod m <> 0 in
              let removed = List.filter (fun (_, s) -> not (keep s)) !model in
              let latest = List.fold_left (fun l (t, _) -> Float.max l t) neg_infinity removed in
              if not (Float.equal latest (Heap.filter h keep)) then
                QCheck.Test.fail_report "latest removed time";
              model := List.filter (fun (_, s) -> keep s) !model;
              if Heap.length h <> List.length !model then QCheck.Test.fail_report "length")
        ops;
      List.equal same_key !model (drain_keys h))

(* ------------------------------------------------------------------ *)
(* RNG.                                                                 *)

let test_rng_determinism () =
  let a = Rng.create 7 and b = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done;
  let c = Rng.create 8 in
  Alcotest.(check bool) "different seed differs" true (Rng.int64 a <> Rng.int64 c)

let test_rng_split () =
  let parent = Rng.create 1 in
  let child = Rng.split parent in
  (* Child and parent streams must not be identical. *)
  let same = ref true in
  for _ = 1 to 20 do
    if Rng.int64 parent <> Rng.int64 child then same := false
  done;
  Alcotest.(check bool) "split independent" false !same

let test_rng_copy () =
  let a = Rng.create 3 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy replays" (Rng.int64 a) (Rng.int64 b)

(* Known answers for the splitmix64 stream: any change to the state
   representation must keep every draw bit-identical, or every seeded run
   in the repository moves. *)
let test_rng_known_answers () =
  let draws seed = let r = Rng.create seed in List.init 3 (fun _ -> Rng.int64 r) in
  Alcotest.(check (list int64)) "seed 0"
    [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L ]
    (draws 0);
  Alcotest.(check (list int64)) "seed 42"
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]
    (draws 42);
  List.iter
    (fun (seed, child, parent_next) ->
      let parent = Rng.create seed in
      let c = Rng.split parent in
      Alcotest.(check int64) (Printf.sprintf "split %d child" seed) child (Rng.int64 c);
      Alcotest.(check int64)
        (Printf.sprintf "split %d parent" seed)
        parent_next (Rng.int64 parent))
    [ (0, -6411193824288604561L, 7960286522194355700L);
      (42, 6332618229526065668L, 2949826092126892291L) ];
  List.iter
    (fun (seed, ints, floats) ->
      let r = Rng.create seed in
      Alcotest.(check (list int)) (Printf.sprintf "int %d" seed) ints
        (List.init 3 (fun _ -> Rng.int r 1000));
      Alcotest.(check (list (float 0.0))) (Printf.sprintf "float %d" seed) floats
        (List.init 2 (fun _ -> Rng.float r 1.0)))
    [ (0, [ 883; 925; 419 ], [ 0.9708819781538285; 0.10634669156721244 ]);
      (42, [ 853; 72; 964 ], [ 0.34419071652363753; 0.03803016854024621 ]) ]

(* The state is updated in place: an integer or boolean draw allocates
   nothing, and a float draw only boxes its result (2 words) when the
   call is not inlined. *)
let test_rng_no_allocation () =
  let r = Rng.create 7 in
  let low = ref 0 in
  let words f =
    let before = Gc.minor_words () in
    for _ = 1 to 10_000 do
      if f () then incr low
    done;
    Gc.minor_words () -. before
  in
  let ints = words (fun () -> Rng.int r 10 < 5 && Rng.bool r 0.5) in
  let floats = words (fun () -> Rng.uniform r 0.5 1.5 < 1.0) in
  ignore (Sys.opaque_identity !low);
  (* [Gc.minor_words] itself boxes its result. *)
  if ints > 8.0 then Alcotest.failf "10k int/bool draws allocated %.0f words" ints;
  if floats > 20_008.0 then
    Alcotest.failf "10k float draws allocated %.0f words" floats

let test_rng_ranges () =
  let rng = Rng.create 11 in
  for _ = 1 to 1000 do
    let n = Rng.int rng 10 in
    if n < 0 || n >= 10 then Alcotest.failf "int out of range: %d" n;
    let f = Rng.float rng 2.5 in
    if f < 0.0 || f >= 2.5 then Alcotest.failf "float out of range: %f" f;
    let u = Rng.uniform rng 5.0 6.0 in
    if u < 5.0 || u >= 6.0 then Alcotest.failf "uniform out of range: %f" u;
    let e = Rng.exponential rng 1.0 in
    if e < 0.0 then Alcotest.failf "exponential negative: %f" e
  done

let test_rng_bool_bias () =
  let rng = Rng.create 5 in
  let hits = ref 0 in
  let n = 10000 in
  for _ = 1 to n do
    if Rng.bool rng 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  if p < 0.27 || p > 0.33 then Alcotest.failf "bool(0.3) frequency %f" p

let test_rng_shuffle_pick () =
  let rng = Rng.create 17 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check bool) "permutation" true (sorted = Array.init 50 Fun.id);
  Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick rng a) a);
  Alcotest.check_raises "pick empty" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Rng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Engine.                                                              *)

let test_engine_time_and_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let note tag = log := (tag, Engine.now engine) :: !log in
  Engine.spawn engine (fun () ->
      note "start";
      Engine.sleep 2.0;
      note "after2");
  Engine.spawn engine (fun () ->
      Engine.sleep 1.0;
      note "after1");
  Engine.run engine;
  Alcotest.(check (list (pair string (float 1e-9))))
    "ordering"
    [ ("start", 0.0); ("after1", 1.0); ("after2", 2.0) ]
    (List.rev !log)

let test_engine_spawn_at () =
  let engine = Engine.create () in
  let seen = ref (-1.0) in
  Engine.spawn ~at:5.5 engine (fun () -> seen := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "spawn at" 5.5 !seen

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~at:1.0 (fun () -> incr fired);
  Engine.schedule engine ~at:10.0 (fun () -> incr fired);
  Engine.run ~until:5.0 engine;
  Alcotest.(check int) "only early event" 1 !fired;
  Alcotest.(check (float 1e-9)) "clock clamped" 5.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "resumed" 2 !fired

let test_engine_timer_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let timer = Engine.after engine 1.0 (fun () -> fired := true) in
  Engine.cancel timer;
  Engine.run engine;
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_pending_excludes_cancelled () =
  (* [pending] counts live events only: a cancelled timer may wait in
     its lane until it reaches the top but must not be reported, and
     double-cancel must not double-count. *)
  let engine = Engine.create () in
  let t1 = Engine.after engine 1.0 (fun () -> ()) in
  let _t2 = Engine.after engine 2.0 (fun () -> ()) in
  Alcotest.(check int) "two live" 2 (Engine.pending engine);
  Engine.cancel t1;
  Alcotest.(check int) "one live" 1 (Engine.pending engine);
  Engine.cancel t1;
  Alcotest.(check int) "double cancel counted once" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "drained" 0 (Engine.pending engine);
  (* Cancelling after the fact stays harmless. *)
  Engine.cancel t1;
  Alcotest.(check int) "still drained" 0 (Engine.pending engine)

let test_engine_cancel_releases_closure () =
  (* A cancelled timer's closure, and what it captured, is unreachable
     at once, not at its deadline. *)
  let engine = Engine.create () in
  let collected = ref false in
  (* Allocated out of line, so no stack slot of this frame keeps it. *)
  let[@inline never] arm () =
    let captured = ref 0 in
    Gc.finalise_last (fun () -> collected := true) captured;
    Engine.after engine 2.0 (fun () -> incr captured)
  in
  let timer = arm () in
  Engine.cancel timer;
  Gc.full_major ();
  Alcotest.(check bool) "captured value collected" true !collected;
  (* Keeps the engine and the timer reachable across the collection. *)
  Engine.cancel (Sys.opaque_identity timer);
  Engine.run engine;
  Alcotest.(check int) "nothing ran" 0 (Engine.processed engine)

let test_engine_rebuild_releases_dead_timers () =
  (* Once more than half of the timer lane is dead, the next [after]
     rebuilds it without them, long before their deadlines. *)
  let engine = Engine.create () in
  let released = ref 0 in
  let[@inline never] arm_and_cancel () =
    for i = 1 to 100 do
      let timer = Engine.after engine (float_of_int i) ignore in
      Gc.finalise_last (fun () -> incr released) timer;
      Engine.cancel timer
    done
  in
  arm_and_cancel ();
  ignore (Engine.after engine 1000.0 ignore);
  Gc.full_major ();
  Alcotest.(check int) "dead timers released" 100 !released;
  Alcotest.(check int) "one live" 1 (Engine.pending engine);
  Engine.run engine;
  Alcotest.(check int) "one event" 1 (Engine.processed engine);
  Alcotest.(check (float 0.0)) "at its deadline" 1000.0 (Engine.now engine)

let test_engine_dead_timers_end_clock () =
  (* Cancelled timers are not events, but a run that ends on them leaves
     the clock at their latest deadline, as popping them did. *)
  let engine = Engine.create () in
  Engine.schedule engine ~at:1.0 ignore;
  Engine.cancel (Engine.after engine 5.0 ignore);
  Engine.cancel (Engine.after engine 3.0 ignore);
  Engine.run engine;
  Alcotest.(check (float 0.0)) "latest dead deadline" 5.0 (Engine.now engine);
  Alcotest.(check int) "one event" 1 (Engine.processed engine);
  (* Under [~until], a dead deadline past the bound stops the clock at the
     bound, and a later run reaches it. *)
  let engine = Engine.create () in
  Engine.cancel (Engine.after engine 4.0 ignore);
  Engine.cancel (Engine.after engine 9.0 ignore);
  Engine.run ~until:6.0 engine;
  Alcotest.(check (float 0.0)) "bounded" 6.0 (Engine.now engine);
  Engine.run ~until:2.0 engine;
  Alcotest.(check (float 0.0)) "never back" 6.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 0.0)) "unbounded" 9.0 (Engine.now engine);
  (* The same when the dead timers left the lane through a rebuild
     rather than through its top. *)
  let engine = Engine.create () in
  let timers = List.init 10 (fun i -> Engine.after engine (float_of_int (i + 1)) ignore) in
  List.iter Engine.cancel timers;
  ignore (Engine.after engine 0.5 ignore);
  Alcotest.(check int) "one live" 1 (Engine.pending engine);
  Engine.run ~until:7.5 engine;
  Alcotest.(check (float 0.0)) "rebuilt, bounded" 7.5 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check (float 0.0)) "rebuilt, unbounded" 10.0 (Engine.now engine);
  Alcotest.(check int) "only the live timer ran" 1 (Engine.processed engine);
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let test_engine_suspend_wake () =
  let engine = Engine.create () in
  let waker = ref None in
  let got = ref 0 in
  Engine.spawn engine (fun () -> got := Engine.suspend (fun w -> waker := Some w));
  Engine.schedule engine ~at:3.0 (fun () ->
      match !waker with Some w -> w 42 | None -> Alcotest.fail "not suspended");
  Engine.run engine;
  Alcotest.(check int) "woken with value" 42 !got

let test_engine_yield_interleaves () =
  let engine = Engine.create () in
  let log = ref [] in
  let worker tag =
    Engine.spawn engine (fun () ->
        log := (tag ^ "1") :: !log;
        Engine.yield ();
        log := (tag ^ "2") :: !log)
  in
  worker "a";
  worker "b";
  Engine.run engine;
  Alcotest.(check (list string)) "yield interleaving" [ "a1"; "b1"; "a2"; "b2" ]
    (List.rev !log)

let test_engine_exception_propagates () =
  let engine = Engine.create () in
  Engine.spawn engine (fun () -> failwith "boom");
  Alcotest.check_raises "process exception" (Failure "boom") (fun () ->
      Engine.run engine)

let test_engine_past_schedule_clamps () =
  (* Scheduling into the past executes at the current time instead of
     rewinding the clock. *)
  let engine = Engine.create () in
  let seen = ref (-1.0) in
  Engine.spawn engine (fun () ->
      Engine.sleep 5.0;
      Engine.schedule engine ~at:1.0 (fun () -> seen := Engine.now engine));
  Engine.run engine;
  Alcotest.(check (float 1e-9)) "clamped to now" 5.0 !seen

let test_engine_zero_sleep_runs_later_events_first () =
  (* sleep 0 yields to already-queued same-time events (FIFO). *)
  let engine = Engine.create () in
  let log = ref [] in
  Engine.spawn engine (fun () ->
      log := "a1" :: !log;
      Engine.sleep 0.0;
      log := "a2" :: !log);
  Engine.schedule engine ~at:0.0 (fun () -> log := "b" :: !log);
  Engine.run engine;
  Alcotest.(check (list string)) "fifo" [ "a1"; "b"; "a2" ] (List.rev !log)

let test_engine_processed_counter () =
  let engine = Engine.create () in
  for i = 1 to 5 do
    Engine.schedule engine ~at:(float_of_int i) (fun () -> ())
  done;
  Engine.run engine;
  Alcotest.(check int) "events processed" 5 (Engine.processed engine)

let test_engine_rejects_nan () =
  (* A NaN time compares false against everything and would silently
     corrupt the queue order; every entry point refuses it instead. *)
  let engine = Engine.create () in
  Alcotest.check_raises "schedule" (Invalid_argument "Engine.schedule: NaN time")
    (fun () -> Engine.schedule engine ~at:Float.nan ignore);
  Alcotest.check_raises "spawn" (Invalid_argument "Engine.schedule: NaN time")
    (fun () -> Engine.spawn ~at:Float.nan engine ignore);
  Alcotest.check_raises "after" (Invalid_argument "Engine.after: NaN delay")
    (fun () -> ignore (Engine.after engine Float.nan ignore));
  Alcotest.(check int) "nothing queued" 0 (Engine.pending engine);
  Engine.spawn engine (fun () -> Engine.sleep Float.nan);
  Alcotest.check_raises "sleep" (Invalid_argument "Engine.sleep: NaN delay")
    (fun () -> Engine.run engine);
  Alcotest.(check int) "still nothing queued" 0 (Engine.pending engine)

let test_engine_run_until_never_rewinds () =
  (* [run ~until] below the current time is a no-op: it used to set the
     clock backwards. *)
  let engine = Engine.create () in
  let fired = ref 0 in
  Engine.schedule engine ~at:5.0 (fun () -> incr fired);
  Engine.schedule engine ~at:9.0 (fun () -> incr fired);
  Engine.run ~until:6.0 engine;
  Alcotest.(check (float 0.0)) "advanced to bound" 6.0 (Engine.now engine);
  Engine.run ~until:2.0 engine;
  Alcotest.(check (float 0.0)) "earlier bound keeps clock" 6.0 (Engine.now engine);
  (* Work due at the current instant does not run under an earlier bound. *)
  Engine.schedule engine ~at:0.0 (fun () -> incr fired);
  Engine.run ~until:3.0 engine;
  Alcotest.(check int) "same-instant event held" 1 !fired;
  Alcotest.(check (float 0.0)) "clock still kept" 6.0 (Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "all fired" 3 !fired;
  Alcotest.(check (float 0.0)) "final clock" 9.0 (Engine.now engine)

(* ------------------------------------------------------------------ *)
(* Executable spec: the single-heap engine the three-lane queue replaced. *)

(* The boxed binary heap the engine used before the struct-of-arrays
   rewrite, kept as the order oracle. *)
module Spec_heap = struct
  type 'a entry = { time : float; seq : int; item : 'a }
  type 'a slot = Empty | Slot of 'a entry
  type 'a t = { mutable data : 'a slot array; mutable size : int }

  let create () = { data = [||]; size = 0 }
  let length t = t.size
  let get t i = match t.data.(i) with Slot e -> e | Empty -> assert false
  let less a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

  let swap t i j =
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(j);
    t.data.(j) <- tmp

  let push t ~time ~seq item =
    if t.size = Array.length t.data then begin
      let nd = Array.make (max 16 (2 * t.size)) Empty in
      Array.blit t.data 0 nd 0 t.size;
      t.data <- nd
    end;
    t.data.(t.size) <- Slot { time; seq; item };
    t.size <- t.size + 1;
    let i = ref (t.size - 1) in
    while !i > 0 && less (get t !i) (get t ((!i - 1) / 2)) do
      swap t !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let peek t =
    if t.size = 0 then None
    else
      let e = get t 0 in
      Some (e.time, e.seq, e.item)

  let pop t =
    match peek t with
    | None -> None
    | Some _ as top ->
        t.size <- t.size - 1;
        t.data.(0) <- t.data.(t.size);
        t.data.(t.size) <- Empty;
        let i = ref 0 and continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < t.size && less (get t l) (get t !smallest) then smallest := l;
          if r < t.size && less (get t r) (get t !smallest) then smallest := r;
          if !smallest <> !i then begin
            swap t !i !smallest;
            i := !smallest
          end
          else continue := false
        done;
        top
end

(* Every event, same-instant or not, goes through one (time, seq) heap.
   A cancelled timer keeps its slot and moves the clock when popped, but
   is not an event: [processed] does not count it. Only [run ~until]
   differs from the old engine otherwise: it carries the fix that the
   clock never moves backwards. *)
module Spec_engine = struct
  open Effect
  open Effect.Deep

  type timer = {
    mutable cancelled : bool;
    mutable fired : bool;
    owner : t;
    action : unit -> unit;
  }

  and item = Event of (unit -> unit) | Timer of timer

  and t = {
    mutable clock : float;
    mutable seq : int;
    events : item Spec_heap.t;
    mutable executed : int;
    mutable dead : int;
  }

  type _ Effect.t +=
    | Sleep : (t * float) -> unit Effect.t
    | Suspend : (t * (('a -> unit) -> unit)) -> 'a Effect.t

  let current = ref None

  let create ?seed:_ () =
    { clock = 0.0; seq = 0; events = Spec_heap.create (); executed = 0; dead = 0 }

  let now t = t.clock
  let processed t = t.executed
  let pending t = Spec_heap.length t.events - t.dead

  let push t ~at item =
    let at = if at < t.clock then t.clock else at in
    t.seq <- t.seq + 1;
    Spec_heap.push t.events ~time:at ~seq:t.seq item

  let schedule t ~at f = push t ~at (Event f)

  let after t d action =
    let tm = { cancelled = false; fired = false; owner = t; action } in
    push t ~at:(t.clock +. d) (Timer tm);
    tm

  let cancel tm =
    if not (tm.cancelled || tm.fired) then begin
      tm.cancelled <- true;
      tm.owner.dead <- tm.owner.dead + 1
    end

  let start_process f =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Sleep (t, d) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    schedule t ~at:(t.clock +. d) (fun () -> continue k ()))
            | Suspend (t, register) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    register (fun v -> schedule t ~at:t.clock (fun () -> continue k v)))
            | _ -> None);
      }

  let spawn ?at t f =
    schedule t ~at:(Option.value at ~default:t.clock) (fun () -> start_process f)

  let engine () = Option.get !current
  let sleep d = perform (Sleep (engine (), d))
  let suspend register = perform (Suspend (engine (), register))
  let yield () = sleep 0.0

  let run ?(until = infinity) t =
    current := Some t;
    let rec loop () =
      match Spec_heap.peek t.events with
      | None -> ()
      | Some (time, _, _) when time > until -> t.clock <- Float.max t.clock until
      | Some _ -> (
          match Spec_heap.pop t.events with
          | None -> assert false
          | Some (time, _, Timer ({ cancelled = true; _ } as tm)) ->
              t.clock <- time;
              tm.fired <- true;
              t.dead <- t.dead - 1;
              loop ()
          | Some (time, _, item) ->
              t.clock <- time;
              t.executed <- t.executed + 1;
              (match item with
              | Event f -> f ()
              | Timer tm ->
                  tm.fired <- true;
                  tm.action ());
              loop ())
    in
    loop ()
end

module type ENGINE = sig
  type t
  type timer

  val create : ?seed:int -> unit -> t
  val now : t -> float
  val run : ?until:float -> t -> unit
  val processed : t -> int
  val pending : t -> int
  val spawn : ?at:float -> t -> (unit -> unit) -> unit
  val schedule : t -> at:float -> (unit -> unit) -> unit
  val after : t -> float -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val sleep : float -> unit
  val suspend : (('a -> unit) -> unit) -> 'a
  val yield : unit -> unit
end

(* A random engine program. Delays may be zero (same-instant children,
   the ready lane) or negative (clamped to the current instant). Blocking
   operations met outside a process are run in a freshly spawned one. *)
type op =
  | Note
  | Schedule of float * op list
  | Spawn of float * op list
  | Sleep of float
  | Yield
  | Suspend of float option  (** [None]: woken from inside [register]. *)
  | After of float * float option * op list
      (** Timer, optionally cancelled that much later (negative: at once). *)

let rec pp_op = function
  | Note -> "note"
  | Schedule (d, b) -> Printf.sprintf "schedule(%g,%s)" d (pp_ops b)
  | Spawn (d, b) -> Printf.sprintf "spawn(%g,%s)" d (pp_ops b)
  | Sleep d -> Printf.sprintf "sleep %g" d
  | Yield -> "yield"
  | Suspend None -> "suspend"
  | Suspend (Some d) -> Printf.sprintf "suspend %g" d
  | After (d, c, b) ->
      Printf.sprintf "after(%g,%s,%s)" d
        (match c with None -> "-" | Some c -> Printf.sprintf "cancel %g" c)
        (pp_ops b)

and pp_ops ops = "[" ^ String.concat "; " (List.map pp_op ops) ^ "]"

module Interp (E : ENGINE) = struct
  (* Every step logs its path label, the time and [pending]; the result is
     the log with the final [processed] and [pending]. *)
  let exec ~until prog =
    let e = E.create () in
    let log = Buffer.create 256 in
    let note label = Printf.bprintf log "%s@%g/%d " label (E.now e) (E.pending e) in
    let rec ops ~proc label body =
      List.iteri (fun i op -> step ~proc (Printf.sprintf "%s.%d" label i) op) body
    and step ~proc l op =
      match op with
      | Note -> note l
      | Schedule (d, body) ->
          E.schedule e ~at:(E.now e +. d) (fun () ->
              note l;
              ops ~proc:false l body)
      | Spawn (d, body) ->
          E.spawn ~at:(E.now e +. d) e (fun () ->
              note l;
              ops ~proc:true l body)
      | (Sleep _ | Yield | Suspend _) when not proc ->
          E.spawn e (fun () -> step ~proc:true l op)
      | Sleep d ->
          E.sleep d;
          note l
      | Yield ->
          E.yield ();
          note l
      | Suspend None -> note (l ^ string_of_int (E.suspend (fun wake -> wake 1)))
      | Suspend (Some d) ->
          let v =
            E.suspend (fun wake -> E.schedule e ~at:(E.now e +. d) (fun () -> wake 2))
          in
          note (l ^ string_of_int v)
      | After (d, cancel, body) -> (
          let tm =
            E.after e d (fun () ->
                note l;
                ops ~proc:false l body)
          in
          match cancel with
          | None -> ()
          | Some c when c < 0.0 -> E.cancel tm
          | Some c -> E.schedule e ~at:(E.now e +. c) (fun () -> E.cancel tm))
    in
    ops ~proc:false "r" prog;
    E.run ~until e;
    note "until";
    E.run e;
    note "end";
    (Buffer.contents log, E.processed e, E.pending e)
end

module Run_spec = Interp (Spec_engine)
module Run_engine = Interp (Engine)

let program_gen =
  let open QCheck.Gen in
  let delay = oneofl [ 0.0; 0.0; 0.0; 0.5; 1.0; 1.0; 2.5; -1.0 ] in
  let leaf =
    frequency
      [
        (3, return Note);
        (2, map (fun d -> Sleep d) delay);
        (1, return Yield);
        (1, map (fun d -> Suspend d) (opt delay));
      ]
  in
  let op =
    sized_size (int_bound 40)
    @@ fix (fun self n ->
           if n <= 0 then leaf
           else
             let body = list_size (int_bound 3) (self (n / 3)) in
             frequency
               [
                 (3, leaf);
                 (3, map2 (fun d b -> Schedule (d, b)) delay body);
                 (2, map2 (fun d b -> Spawn (d, b)) delay body);
                 ( 2,
                   map3
                     (fun d c b -> After (d, c, b))
                     delay
                     (opt (oneofl [ -1.0; 0.0; 0.5; 1.0; 3.0 ]))
                     body );
               ])
  in
  pair (oneofl [ 0.0; 0.5; 1.0; 2.0; 3.5 ]) (list_size (int_range 1 8) op)

let three_lanes_match_spec_prop =
  QCheck.Test.make ~name:"three-lane engine runs programs in the spec's order"
    ~count:500
    (QCheck.make program_gen ~print:(fun (until, prog) ->
         Printf.sprintf "until %g: %s" until (pp_ops prog)))
    (fun (until, prog) ->
      let expected = Run_spec.exec ~until prog in
      let got = Run_engine.exec ~until prog in
      if got <> expected then begin
        let (el, ep, eq), (gl, gp, gq) = (expected, got) in
        QCheck.Test.fail_reportf "spec: %s(processed %d, pending %d)\ngot:  %s(processed %d, pending %d)"
          el ep eq gl gp gq
      end;
      true)

(* A fixed-seed 3-DC cluster run through a crash and recovery: a digest
   of every audited outcome and timestamp, which any change to the order
   of events that do visible work moves, and, pinned on its own, the
   event count, which an event doing no visible work also moves
   (DESIGN.md §2.1). *)
let test_pinned_cluster_run () =
  let module Cluster = Mdds_core.Cluster in
  let module Audit = Mdds_core.Audit in
  let cluster =
    Cluster.create ~seed:2012 ~config:Mdds_core.Config.default
      (Mdds_net.Topology.ec2 "VVV")
  in
  let engine = Cluster.engine cluster in
  Engine.schedule engine ~at:20.0 (fun () -> Cluster.take_down cluster 2);
  Engine.schedule engine ~at:35.0 (fun () -> Cluster.bring_up cluster 2);
  let workload =
    { Mdds_workload.Ycsb.default with total_txns = 120; threads = 4; rate = 2.0 }
  in
  ignore (Mdds_workload.Ycsb.run cluster workload);
  Cluster.run cluster;
  let outcome = function
    | Audit.Committed { position; promotions; combined } ->
        Printf.sprintf "C%d/%d/%b" position promotions combined
    | Audit.Aborted { reason; promotions } ->
        Format.asprintf "A%a/%d" Audit.pp_reason reason promotions
    | Audit.Read_only_committed -> "R"
    | Audit.Unknown -> "U"
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (ev : Audit.event) ->
      Printf.bprintf buf "%s %s %.9f %.9f;" ev.record.Mdds_types.Txn.txn_id
        (outcome ev.outcome) ev.began_at ev.committed_at)
    (Audit.events (Cluster.audit cluster));
  Alcotest.(check int) "commits" 99
    (Audit.summarize (Audit.events (Cluster.audit cluster))).commits;
  Alcotest.(check string) "outcome digest" "4e0d29e53a8cd64c4aec95ca69089d50"
    (Digest.to_hex (Digest.string (Buffer.contents buf)));
  Alcotest.(check int) "events processed" 7656 (Engine.processed engine)

let determinism_prop =
  QCheck.Test.make ~name:"identical seeds give identical executions" ~count:20
    QCheck.(int_bound 1000)
    (fun seed ->
      let trace seed =
        let engine = Engine.create ~seed () in
        let rng = Rng.split (Engine.rng engine) in
        let log = Buffer.create 64 in
        for i = 1 to 20 do
          Engine.spawn engine (fun () ->
              Engine.sleep (Rng.float rng 10.0);
              Buffer.add_string log
                (Printf.sprintf "%d@%.6f;" i (Engine.now engine)))
        done;
        Engine.run engine;
        Buffer.contents log
      in
      trace seed = trace seed)

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "no allocation at steady state" `Quick
            test_heap_no_allocation;
          Alcotest.test_case "releases popped items" `Quick test_heap_releases_popped;
          QCheck_alcotest.to_alcotest heap_sorted_prop;
          QCheck_alcotest.to_alcotest heap_interleaved_prop;
          QCheck_alcotest.to_alcotest heap_filter_prop;
        ] );
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "draws allocate nothing" `Quick test_rng_no_allocation;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "shuffle and pick" `Quick test_rng_shuffle_pick;
        ] );
      ( "rng-kat",
        [ Alcotest.test_case "splitmix64 stream" `Quick test_rng_known_answers ] );
      ( "engine",
        [
          Alcotest.test_case "time and order" `Quick test_engine_time_and_order;
          Alcotest.test_case "spawn at" `Quick test_engine_spawn_at;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
          Alcotest.test_case "timer cancel" `Quick test_engine_timer_cancel;
          Alcotest.test_case "pending excludes cancelled" `Quick
            test_engine_pending_excludes_cancelled;
          Alcotest.test_case "cancel releases the closure" `Quick
            test_engine_cancel_releases_closure;
          Alcotest.test_case "rebuild releases dead timers" `Quick
            test_engine_rebuild_releases_dead_timers;
          Alcotest.test_case "dead timers set the end clock" `Quick
            test_engine_dead_timers_end_clock;
          Alcotest.test_case "suspend/wake" `Quick test_engine_suspend_wake;
          Alcotest.test_case "yield interleaves" `Quick test_engine_yield_interleaves;
          Alcotest.test_case "exceptions propagate" `Quick test_engine_exception_propagates;
          Alcotest.test_case "past schedule clamps" `Quick test_engine_past_schedule_clamps;
          Alcotest.test_case "zero sleep yields" `Quick test_engine_zero_sleep_runs_later_events_first;
          Alcotest.test_case "processed counter" `Quick test_engine_processed_counter;
          Alcotest.test_case "rejects NaN times" `Quick test_engine_rejects_nan;
          Alcotest.test_case "run until never rewinds" `Quick
            test_engine_run_until_never_rewinds;
          QCheck_alcotest.to_alcotest determinism_prop;
          QCheck_alcotest.to_alcotest three_lanes_match_spec_prop;
          Alcotest.test_case "pinned cluster run" `Quick test_pinned_cluster_run;
        ] );
    ]
