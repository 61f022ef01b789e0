open Effect
open Effect.Deep

(* Two lanes hold pending events. Events due at the current instant
   ([suspend] wakes, spawns, [yield]) go to [ready], a FIFO ring:
   O(1) and allocation-free. Future events go to the [events] heap, ordered
   by (time, seq). [run] reproduces the single-heap (time, seq) order
   exactly: every ring entry is due at [clock], and a heap entry due at
   [clock] was pushed before the clock reached it, hence before (with a
   smaller seq than) every ring entry, so heap-first at equal time is the
   whole merge rule (DESIGN.md §2.1). *)
type t = {
  mutable clock : float;
  mutable seq : int;
  events : (unit -> unit) Heap.t;
  mutable ready : (unit -> unit) array;  (* ring; capacity a power of two *)
  mutable ready_head : int;
  mutable ready_len : int;
  random : Rng.t;
  mutable executed : int;
  mutable dead : int;  (* cancelled timers still occupying queue slots *)
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
  { clock = 0.0; seq = 0; events = Heap.create ~filler:nop (); ready = [||];
    ready_head = 0; ready_len = 0; random = Rng.create seed; executed = 0;
    dead = 0 }

let now t = t.clock
let rng t = t.random
let processed t = t.executed
let pending t = Heap.length t.events + t.ready_len - t.dead

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

type timer = { mutable cancelled : bool; mutable fired : bool; owner : t }

let check_delay name d = if Float.is_nan d then invalid_arg (name ^ ": NaN delay")

let after t d f =
  check_delay "Engine.after" d;
  let tm = { cancelled = false; fired = false; owner = t } in
  schedule t ~at:(t.clock +. d) (fun () ->
      tm.fired <- true;
      if tm.cancelled then t.dead <- t.dead - 1 else f ());
  tm

let cancel tm =
  if not (tm.cancelled || tm.fired) then begin
    tm.cancelled <- true;
    tm.owner.dead <- tm.owner.dead + 1
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

let run ?(until = infinity) t =
  let saved = Domain.DLS.get current in
  Domain.DLS.set current (Some t);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set current saved)
    (fun () ->
      let rec loop () =
        if t.ready_len > 0 then begin
          if t.clock <= until then
            if (not (Heap.is_empty t.events)) && Heap.min_time t.events <= t.clock
            then step (Heap.pop t.events)
            else step (pop_ready t)
        end
        else if not (Heap.is_empty t.events) then begin
          let time = Heap.min_time t.events in
          if time <= until then begin
            t.clock <- time;
            step (Heap.pop t.events)
          end
          else if until > t.clock then t.clock <- until
        end
      and step f =
        t.executed <- t.executed + 1;
        f ();
        loop ()
      in
      loop ())
