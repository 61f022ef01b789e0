module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

type stats = {
  sent : int;
  delivered : int;
  dropped_loss : int;
  dropped_down : int;
  dropped_cut : int;
  dropped_oneway : int;
  duplicated : int;
}

type flap = { period : float; since : float }

(* The state of one directed link: its quality in effect and its gray
   failures. A fault-free link has the topology's quality, no cut, no
   flap and no duplication. *)
type link_state = {
  mutable quality : Topology.link; (* the topology's, unless overridden *)
  mutable oneway_cut : bool;
  mutable flap : flap option;
  mutable dup : float; (* duplicate-delivery probability *)
}

type 'msg t = {
  engine : Engine.t;
  topo : Topology.t;
  rng : Rng.t;
  handlers : (src:int -> 'msg -> unit) array;
  down : bool array;
  links : link_state array array; (* [links.(src).(dst)] *)
  mutable group_of : int array option; (* partition group per node, if any *)
  slowdown : float array; (* per-node delay multiplier; 1.0 = healthy *)
  mutable sent : int;
  mutable delivered : int;
  delivered_to : int array;
  mutable dropped_loss : int;
  mutable dropped_down : int;
  mutable dropped_cut : int;
  mutable dropped_oneway : int;
  mutable duplicated : int;
}

let create engine topo =
  let n = Topology.size topo in
  {
    engine;
    topo;
    rng = Rng.split (Engine.rng engine);
    handlers = Array.make n (fun ~src:_ _ -> ());
    down = Array.make n false;
    links =
      Array.init n (fun src ->
          Array.init n (fun dst ->
              {
                quality = Topology.link topo src dst;
                oneway_cut = false;
                flap = None;
                dup = 0.0;
              }));
    slowdown = Array.make n 1.0;
    delivered_to = Array.make n 0;
    group_of = None;
    sent = 0;
    delivered = 0;
    dropped_loss = 0;
    dropped_down = 0;
    dropped_cut = 0;
    dropped_oneway = 0;
    duplicated = 0;
  }

let engine t = t.engine
let topology t = t.topo
let size t = Topology.size t.topo

let listen t ~node handler = t.handlers.(node) <- handler

let cut t src dst =
  match t.group_of with
  | None -> false
  | Some groups -> groups.(src) <> groups.(dst)

(* A flapping link alternates between up and down half-periods, phase
   anchored at injection time (deterministic in the clock, no RNG). The
   first half-period is up, so traffic right at injection still passes. *)
let oneway_blocked t l =
  l.oneway_cut
  ||
  match l.flap with
  | None -> false
  | Some { period; since } ->
      let phase = (Engine.now t.engine -. since) /. (period /. 2.0) in
      int_of_float phase land 1 = 1

let link t ~src ~dst = t.links.(src).(dst).quality

let override_link t ~src ~dst link = t.links.(src).(dst).quality <- link

let each_link t f =
  Array.iteri (fun src row -> Array.iteri (fun dst l -> f src dst l) row) t.links

let clear_overrides t =
  each_link t (fun src dst l -> l.quality <- Topology.link t.topo src dst)

(* Sample a one-way flight and schedule the delivery. Every gray-failure
   state is re-checked at delivery time: the destination may have failed,
   a partition or a directed cut may have appeared, or a flapping link
   may be in a down half-period, while the message was in flight. *)
let deliver t ~src ~dst link msg =
  let jitter = Rng.uniform t.rng (1.0 -. link.Topology.jitter) (1.0 +. link.Topology.jitter) in
  let delay = link.Topology.delay *. jitter *. t.slowdown.(src) *. t.slowdown.(dst) in
  Engine.schedule t.engine
    ~at:(Engine.now t.engine +. delay)
    (fun () ->
      if t.down.(dst) then t.dropped_down <- t.dropped_down + 1
      else if cut t src dst then t.dropped_cut <- t.dropped_cut + 1
      else if oneway_blocked t t.links.(src).(dst) then
        t.dropped_oneway <- t.dropped_oneway + 1
      else begin
        t.delivered <- t.delivered + 1;
        t.delivered_to.(dst) <- t.delivered_to.(dst) + 1;
        t.handlers.(dst) ~src msg
      end)

let send t ~src ~dst msg =
  t.sent <- t.sent + 1;
  if t.down.(src) || t.down.(dst) then t.dropped_down <- t.dropped_down + 1
  else if cut t src dst then t.dropped_cut <- t.dropped_cut + 1
  else
    let l = t.links.(src).(dst) in
    if oneway_blocked t l then t.dropped_oneway <- t.dropped_oneway + 1
    else if Rng.bool t.rng l.quality.loss then
      t.dropped_loss <- t.dropped_loss + 1
    else begin
      deliver t ~src ~dst l.quality msg;
      (* Duplicate delivery: an independently delayed second copy. The
         extra RNG draw only happens on a link with a non-zero dup
         probability, so fault-free runs keep a byte-identical stream. *)
      if l.dup > 0.0 && Rng.bool t.rng l.dup then begin
        t.duplicated <- t.duplicated + 1;
        deliver t ~src ~dst l.quality msg
      end
    end

let set_down t node = t.down.(node) <- true

let set_up t node = t.down.(node) <- false

let is_down t node = t.down.(node)

let partition t groups =
  let n = Topology.size t.topo in
  let group_of = Array.init n (fun i -> -1 - i) in
  List.iteri
    (fun gi members -> List.iter (fun node -> group_of.(node) <- gi) members)
    groups;
  t.group_of <- Some group_of

let heal t = t.group_of <- None

(* --- gray failures ------------------------------------------------- *)

let cut_oneway t ~src ~dst = t.links.(src).(dst).oneway_cut <- true

let heal_oneway t ~src ~dst = t.links.(src).(dst).oneway_cut <- false

let clear_oneway_cuts t = each_link t (fun _ _ l -> l.oneway_cut <- false)

let set_slowdown t node factor =
  if factor < 1.0 then invalid_arg "Network.set_slowdown: factor < 1";
  t.slowdown.(node) <- factor

let clear_slowdown t node = t.slowdown.(node) <- 1.0

let clear_slowdowns t = Array.fill t.slowdown 0 (Array.length t.slowdown) 1.0

let flap_link t ~src ~dst ~period =
  if period <= 0.0 then invalid_arg "Network.flap_link: period <= 0";
  t.links.(src).(dst).flap <- Some { period; since = Engine.now t.engine }

let clear_flap t ~src ~dst = t.links.(src).(dst).flap <- None

let clear_flaps t = each_link t (fun _ _ l -> l.flap <- None)

let set_duplication t ~src ~dst p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_duplication: p not in [0,1]";
  t.links.(src).(dst).dup <- p

let set_duplication_all t p =
  each_link t (fun src dst _ ->
      if src <> dst then set_duplication t ~src ~dst p)

let clear_duplication t = each_link t (fun _ _ l -> l.dup <- 0.0)

let stats t =
  {
    sent = t.sent;
    delivered = t.delivered;
    dropped_loss = t.dropped_loss;
    dropped_down = t.dropped_down;
    dropped_cut = t.dropped_cut;
    dropped_oneway = t.dropped_oneway;
    duplicated = t.duplicated;
  }

let delivered_to t node = t.delivered_to.(node)
