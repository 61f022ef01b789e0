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

type 'msg t = {
  engine : Engine.t;
  topo : Topology.t;
  rng : Rng.t;
  handlers : (src:int -> 'msg -> unit) array;
  down : bool array;
  overrides : (int * int, Topology.link) Hashtbl.t;
  mutable group_of : int array option; (* partition group per node, if any *)
  oneway_cuts : (int * int, unit) Hashtbl.t; (* directed src -> dst cuts *)
  flaps : (int * int, flap) Hashtbl.t; (* directed flapping links *)
  slowdown : float array; (* per-node delay multiplier; 1.0 = healthy *)
  dup_links : (int * int, float) Hashtbl.t; (* directed dup probability *)
  mutable dup_active : int; (* links with dup > 0: gates the extra RNG draw *)
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
  {
    engine;
    topo;
    rng = Rng.split (Engine.rng engine);
    handlers = Array.make (Topology.size topo) (fun ~src:_ _ -> ());
    down = Array.make (Topology.size topo) false;
    overrides = Hashtbl.create 16;
    oneway_cuts = Hashtbl.create 8;
    flaps = Hashtbl.create 8;
    slowdown = Array.make (Topology.size topo) 1.0;
    dup_links = Hashtbl.create 8;
    dup_active = 0;
    delivered_to = Array.make (Topology.size topo) 0;
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

(* Gray-failure tables are keyed by (src, dst) tuples: each lookup is a
   polymorphic hash. Fault-free runs leave them empty, so every lookup
   first checks the (constant-time) table size. *)

(* A flapping link alternates between up and down half-periods, phase
   anchored at injection time (deterministic in the clock, no RNG). The
   first half-period is up, so traffic right at injection still passes. *)
let flap_down t src dst =
  if Hashtbl.length t.flaps = 0 then false
  else
    match Hashtbl.find_opt t.flaps (src, dst) with
    | None -> false
    | Some { period; since } ->
        let phase = (Engine.now t.engine -. since) /. (period /. 2.0) in
        int_of_float phase land 1 = 1

let oneway_blocked t src dst =
  (Hashtbl.length t.oneway_cuts > 0 && Hashtbl.mem t.oneway_cuts (src, dst))
  || flap_down t src dst

let link t ~src ~dst =
  if Hashtbl.length t.overrides = 0 then Topology.link t.topo src dst
  else
    match Hashtbl.find_opt t.overrides (src, dst) with
    | Some link -> link
    | None -> Topology.link t.topo src dst

let override_link t ~src ~dst link = Hashtbl.replace t.overrides (src, dst) link

let clear_overrides t = Hashtbl.reset t.overrides

let dup_prob t src dst =
  if t.dup_active = 0 then 0.0
  else Option.value (Hashtbl.find_opt t.dup_links (src, dst)) ~default:0.0

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
      else if oneway_blocked t src dst then
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
  else if oneway_blocked t src dst then
    t.dropped_oneway <- t.dropped_oneway + 1
  else
    let link = link t ~src ~dst in
    if Rng.bool t.rng link.loss then t.dropped_loss <- t.dropped_loss + 1
    else begin
      deliver t ~src ~dst link msg;
      (* Duplicate delivery: an independently delayed second copy. The
         extra RNG draw only happens while some link has a non-zero dup
         probability, so fault-free runs keep a byte-identical stream. *)
      let p = dup_prob t src dst in
      if p > 0.0 && Rng.bool t.rng p then begin
        t.duplicated <- t.duplicated + 1;
        deliver t ~src ~dst link msg
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

let cut_oneway t ~src ~dst = Hashtbl.replace t.oneway_cuts (src, dst) ()

let heal_oneway t ~src ~dst = Hashtbl.remove t.oneway_cuts (src, dst)

let clear_oneway_cuts t = Hashtbl.reset t.oneway_cuts

let set_slowdown t node factor =
  if factor < 1.0 then invalid_arg "Network.set_slowdown: factor < 1";
  t.slowdown.(node) <- factor

let clear_slowdown t node = t.slowdown.(node) <- 1.0

let clear_slowdowns t = Array.fill t.slowdown 0 (Array.length t.slowdown) 1.0

let flap_link t ~src ~dst ~period =
  if period <= 0.0 then invalid_arg "Network.flap_link: period <= 0";
  Hashtbl.replace t.flaps (src, dst) { period; since = Engine.now t.engine }

let clear_flap t ~src ~dst = Hashtbl.remove t.flaps (src, dst)

let clear_flaps t = Hashtbl.reset t.flaps

let set_duplication t ~src ~dst p =
  if p < 0.0 || p > 1.0 then invalid_arg "Network.set_duplication: p not in [0,1]";
  let had = Hashtbl.mem t.dup_links (src, dst) in
  if p = 0.0 then begin
    if had then begin
      Hashtbl.remove t.dup_links (src, dst);
      t.dup_active <- t.dup_active - 1
    end
  end
  else begin
    Hashtbl.replace t.dup_links (src, dst) p;
    if not had then t.dup_active <- t.dup_active + 1
  end

let set_duplication_all t p =
  let n = Topology.size t.topo in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then set_duplication t ~src ~dst p
    done
  done

let clear_duplication t =
  Hashtbl.reset t.dup_links;
  t.dup_active <- 0

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
