open Effect
open Effect.Deep

(* Three lanes hold pending events. Events due at the current instant
   ([suspend] wakes, spawns, [yield], zero timers) go to [ready], a FIFO
   ring: O(1) and allocation-free. Future events go to the [events] heap
   and future timers to the [timers] heap, both ordered by (time, seq) on
   one shared [seq] counter. [run] reproduces the single-heap (time, seq)
   order exactly: it takes the earlier of the two heap tops, and every ring
   entry is due at [clock] while a heap entry due at [clock] was pushed
   before the clock reached it, hence before (with a smaller seq than)
   every ring entry, so heap-first at equal time is the whole merge rule
   (DESIGN.md §2.1).

   A timer's record is its own heap item. [cancel] resets its action to
   [nop], which releases the closure at once; [run] drops a cancelled timer
   when it reaches the lane's top, and [after] filters the lane once more
   than half of it is dead. *)

(* [action] is [nop] once the timer has fired or been cancelled; [lane]
   counts the cancelled timers still queued in the lane that holds it. *)
type timer = { mutable action : unit -> unit; lane : lane }
and lane = { mutable dead : int }

(* All-float, so updating it boxes nothing. *)
type dropped = { mutable latest : float }

type t = {
  mutable clock : float;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  timers : timer Heap.t;
  timers_lane : lane;  (* cancelled timers in [timers] *)
  ready_lane : lane;  (* cancelled zero-delay timers in [ready] *)
  dropped : dropped;  (* latest deadline of a timer dropped from [timers] *)
  mutable ready : (unit -> unit) array;  (* ring; capacity a power of two *)
  mutable ready_head : int;
  mutable ready_len : int;
  random : Rng.t;
  mutable executed : int;
}

type _ Effect.t +=
  | Sleep : (t * float) -> unit Effect.t
  | Suspend : (t * (('a -> unit) -> unit)) -> 'a Effect.t

(* The engine the currently-executing process belongs to. Processes only
   run from inside [run], which maintains this; effects need it to schedule
   their continuations. Domain-local so that independent engines can run
   concurrently on separate domains (one trial per domain): each domain has
   its own "currently running engine" slot and engines never migrate
   between domains mid-run. *)
let current : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let nop () = ()

let create ?(seed = 42) () =
  { clock = 0.0; seq = 0; events = Heap.create ~filler:nop ();
    timers = Heap.create ~filler:{ action = nop; lane = { dead = 0 } } ();
    timers_lane = { dead = 0 }; ready_lane = { dead = 0 };
    dropped = { latest = neg_infinity }; ready = [||]; ready_head = 0;
    ready_len = 0; random = Rng.create seed; executed = 0 }

let now t = t.clock
let rng t = t.random
let processed t = t.executed
let pending t =
  Heap.length t.events + Heap.length t.timers + t.ready_len - t.timers_lane.dead
  - t.ready_lane.dead

let push_ready t f =
  let cap = Array.length t.ready in
  if t.ready_len = cap then begin
    let ncap = max 16 (2 * cap) in
    let ring = Array.make ncap nop in
    for i = 0 to t.ready_len - 1 do
      ring.(i) <- t.ready.((t.ready_head + i) land (cap - 1))
    done;
    t.ready <- ring;
    t.ready_head <- 0
  end;
  t.ready.((t.ready_head + t.ready_len) land (Array.length t.ready - 1)) <- f;
  t.ready_len <- t.ready_len + 1

let pop_ready t =
  let f = t.ready.(t.ready_head) in
  t.ready.(t.ready_head) <- nop;
  t.ready_head <- (t.ready_head + 1) land (Array.length t.ready - 1);
  t.ready_len <- t.ready_len - 1;
  f

(* Past times are clamped to the current instant; a NaN fails both
   comparisons and is rejected. *)
let schedule t ~at f =
  if at <= t.clock then push_ready t f
  else if at > t.clock then begin
    t.seq <- t.seq + 1;
    Heap.push t.events ~time:at ~seq:t.seq f
  end
  else invalid_arg "Engine.schedule: NaN time"

let check_delay name d = if Float.is_nan d then invalid_arg (name ^ ": NaN delay")

let live tm = tm.action != nop

let note_dropped t time = if time > t.dropped.latest then t.dropped.latest <- time

(* A zero-delay timer waits in the ring, in FIFO order with the other
   events due now. Cancelled there, it is no event: [run] counted it when
   it left the ring, so it takes the count back. *)
let fire_ready t tm () =
  let f = tm.action in
  if f == nop then begin
    t.ready_lane.dead <- t.ready_lane.dead - 1;
    t.executed <- t.executed - 1
  end
  else begin
    tm.action <- nop;
    f ()
  end

let after t d f =
  check_delay "Engine.after" d;
  let at = t.clock +. d in
  if at > t.clock then begin
    if 2 * t.timers_lane.dead > Heap.length t.timers then begin
      note_dropped t (Heap.filter t.timers live);
      t.timers_lane.dead <- 0
    end;
    let tm = { action = f; lane = t.timers_lane } in
    t.seq <- t.seq + 1;
    Heap.push t.timers ~time:at ~seq:t.seq tm;
    tm
  end
  else begin
    let tm = { action = f; lane = t.ready_lane } in
    push_ready t (fire_ready t tm);
    tm
  end

let cancel tm =
  if live tm then begin
    tm.action <- nop;
    tm.lane.dead <- tm.lane.dead + 1
  end

let engine_of_process () =
  match Domain.DLS.get current with
  | Some t -> t
  | None -> failwith "Engine: blocking operation outside a running process"

(* Run a process step under the effect handler. Continuations re-enter
   through the event queue, so the handler installs itself only once per
   process: [continue] resumes under the same (deep) handler. *)
let start _t f =
  match_with f ()
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
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
  let at = match at with None -> t.clock | Some x -> x in
  schedule t ~at (fun () -> start t f)

let sleep d =
  check_delay "Engine.sleep" d;
  let t = engine_of_process () in
  perform (Sleep (t, d))

let suspend register =
  let t = engine_of_process () in
  perform (Suspend (t, register))

let yield () = sleep 0.0

let due t timer time = if timer then Heap.due t.timers time else Heap.due t.events time

(* Drop the cancelled timers at the timer lane's top. *)
let rec drop_dead t =
  if (not (Heap.is_empty t.timers)) && not (live (Heap.top t.timers)) then begin
    note_dropped t (Heap.min_time t.timers);
    ignore (Heap.pop t.timers);
    t.timers_lane.dead <- t.timers_lane.dead - 1;
    drop_dead t
  end

let run ?(until = infinity) t =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current saved)
    (fun () ->
      (* [timer]: the next event is the timer lane's top, not the events
         heap's. *)
      let rec loop () =
        drop_dead t;
        let timer = Heap.precedes t.timers t.events in
        if t.ready_len > 0 then begin
          if t.clock <= until then
            if due t timer t.clock then pop t timer else step (pop_ready t)
        end
        else if timer || not (Heap.is_empty t.events) then begin
          if due t timer until then begin
            t.clock <- (if timer then Heap.min_time t.timers else Heap.min_time t.events);
            pop t timer
          end
          else if until > t.clock then t.clock <- until
        end
        else begin
          (* Nothing live is left. Popping the dropped timers would have
             left the clock at the latest deadline among them that [until]
             allows, so the run ends there. *)
          let latest = Float.min t.dropped.latest until in
          if latest > t.clock then t.clock <- latest
        end
      and pop t timer =
        if timer then begin
          let tm = Heap.pop t.timers in
          let f = tm.action in
          tm.action <- nop;
          step f
        end
        else step (Heap.pop t.events)
      and step f =
        t.executed <- t.executed + 1;
        f ();
        loop ()
      in
      loop ())
