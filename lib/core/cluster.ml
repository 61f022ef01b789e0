module Engine = Mdds_sim.Engine
module Network = Mdds_net.Network
module Topology = Mdds_net.Topology
module Rpc = Mdds_net.Rpc
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn

type t = {
  engine : Engine.t;
  topo : Topology.t;
  net : (Messages.request, Messages.response) Rpc.packet Network.t;
  rpc : (Messages.request, Messages.response) Rpc.t;
  services : Service.t array;
  config : Config.t;
  audit : Audit.t;
  trace : Mdds_sim.Trace.t;
  mutable client_counter : int;
}

let create ?(seed = 42) ?(config = Config.default) ?storage topo =
  let engine = Engine.create ~seed () in
  let net = Network.create engine topo in
  let rpc = Rpc.create net in
  let dcs = List.init (Topology.size topo) Fun.id in
  let trace = Mdds_sim.Trace.create engine in
  let services =
    Array.init (Topology.size topo) (fun dc ->
        Service.start ?storage ~rpc ~config ~dc ~dcs ~trace ())
  in
  {
    engine;
    topo;
    net;
    rpc;
    services;
    config;
    audit = Audit.create ();
    trace;
    client_counter = 0;
  }

let engine t = t.engine
let config t = t.config
let topology t = t.topo
let network t = t.net
let audit t = t.audit
let size t = Array.length t.services
let service t dc = t.services.(dc)
let services t = Array.to_list t.services

let client ?id t ~dc =
  t.client_counter <- t.client_counter + 1;
  let id =
    match id with
    | Some id -> id
    | None -> Printf.sprintf "c%d.%s" t.client_counter (Topology.name t.topo dc)
  in
  Client.create ~rpc:t.rpc ~config:t.config ~dc
    ~dcs:(List.init (size t) Fun.id)
    ~audit:t.audit
    ~counters:(Service.counters t.services.(dc))
    ~id ~trace:t.trace

let spawn ?at t f = Engine.spawn ?at t.engine f
let run ?until t = Engine.run ?until t.engine
let now t = Engine.now t.engine

let trace t = t.trace

let fault t fmt =
  Mdds_sim.Trace.record t.trace ~level:Mdds_sim.Trace.Warn ~source:"fault"
    ~category:"fault" fmt

let take_down t dc =
  fault t "datacenter %s down" (Topology.name t.topo dc);
  Network.set_down t.net dc

let bring_up t dc =
  fault t "datacenter %s up" (Topology.name t.topo dc);
  Network.set_up t.net dc

let is_down t dc = Network.is_down t.net dc

let partition t groups =
  fault t "partition %s"
    (String.concat "|"
       (List.map
          (fun g -> String.concat "," (List.map (Topology.name t.topo) g))
          groups));
  Network.partition t.net groups

let heal t =
  fault t "partition healed";
  Network.heal t.net

let restart t dc =
  fault t "service %s restarted" (Topology.name t.topo dc);
  Service.restart t.services.(dc)

(* Storage-level power loss: the write buffer is discarded (the store
   rewinds to its last sync point) before the service restarts and runs
   its recovery scan. Requires [Sync_explicit] storage to bite; in
   [Sync_always] mode these degrade to a plain restart. *)
let dirty_restart t dc =
  fault t "service %s dirty-crashed (unsynced writes lost)"
    (Topology.name t.topo dc);
  Mdds_kvstore.Store.crash (Service.store t.services.(dc)) ~lose_unsynced:true;
  Service.restart t.services.(dc)

let torn_restart t dc =
  fault t "service %s torn-crashed (in-flight row write torn)"
    (Topology.name t.topo dc);
  Mdds_kvstore.Store.crash ~torn:true
    (Service.store t.services.(dc))
    ~lose_unsynced:true;
  Service.restart t.services.(dc)

let storm t ~loss ~jitter =
  fault t "storm: loss=%g jitter=%g on all links" loss jitter;
  let n = size t in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then
        let base = Topology.link t.topo src dst in
        Network.override_link t.net ~src ~dst { base with loss; jitter }
    done
  done

let calm t =
  fault t "storm cleared";
  Network.clear_overrides t.net

(* Gray-failure injectors: directed link cuts, slow-but-alive
   datacenters, flapping links, duplicating links. All are pure network
   state — no service is stopped — which is exactly what makes them
   "gray": every health signal except latency/reachability looks fine. *)

let cut_oneway t ~src ~dst =
  fault t "one-way cut %s->%s" (Topology.name t.topo src)
    (Topology.name t.topo dst);
  Network.cut_oneway t.net ~src ~dst

let heal_oneway t ~src ~dst =
  fault t "one-way cut %s->%s healed" (Topology.name t.topo src)
    (Topology.name t.topo dst);
  Network.heal_oneway t.net ~src ~dst

let heal_oneways t =
  fault t "all one-way cuts healed";
  Network.clear_oneway_cuts t.net

let slow_node t dc ~factor =
  fault t "slow node %s (x%g)" (Topology.name t.topo dc) factor;
  Network.set_slowdown t.net dc factor

let clear_slowdown t dc =
  fault t "slow node %s recovered" (Topology.name t.topo dc);
  Network.clear_slowdown t.net dc

let clear_slowdowns t =
  fault t "all slowdowns cleared";
  Network.clear_slowdowns t.net

let flap_link t ~src ~dst ~period =
  fault t "flapping link %s->%s (period %gs)" (Topology.name t.topo src)
    (Topology.name t.topo dst) period;
  Network.flap_link t.net ~src ~dst ~period

let clear_flap t ~src ~dst =
  fault t "flap %s->%s cleared" (Topology.name t.topo src)
    (Topology.name t.topo dst);
  Network.clear_flap t.net ~src ~dst

let clear_flaps t =
  fault t "all flaps cleared";
  Network.clear_flaps t.net

let dup_storm t ~prob =
  fault t "duplication storm: p=%g on all links" prob;
  Network.set_duplication_all t.net prob

let clear_duplication t =
  fault t "duplication storm cleared";
  Network.clear_duplication t.net

(* The union of the replicas' logs, built in one position-major pass from
   the highest position down (so the list needs no reversal and no sort),
   reading each replica only at positions up to its own last one. (R1) is
   checked on the way: each replica's entry is compared with that of the
   lowest datacenter holding the position, and the conflict reported is
   the first in datacenter-major order — the lowest differing datacenter,
   then its lowest differing position. *)
let agreed_log t ~group =
  let wals = Array.map Service.wal t.services in
  let lasts = Array.map (fun w -> Wal.last_position w ~group) wals in
  let top = Array.fold_left max 0 lasts in
  let conflict = ref None in
  let rec collect pos log =
    if pos < 1 then log
    else begin
      let held_by = ref (-1) and held = ref [] in
      for dc = 0 to Array.length wals - 1 do
        if pos <= lasts.(dc) then
          match Wal.entry wals.(dc) ~group ~pos with
          | None -> ()
          | Some entry ->
              if !held_by < 0 then begin
                held_by := dc;
                held := entry
              end
              else if not (Txn.equal_entry !held entry) then
                match !conflict with
                | Some (first, _, _) when first < dc -> ()
                | _ -> conflict := Some (dc, pos, !held_by)
      done;
      collect (pos - 1) (if !held_by < 0 then log else (pos, !held) :: log)
    end
  in
  let log = collect top [] in
  match !conflict with
  | Some (dc, pos, dc0) ->
      Error
        (Printf.sprintf "position %d differs between %s and %s" pos
           (Topology.name t.topo dc0) (Topology.name t.topo dc))
  | None -> Ok log

let logs_agree t ~group = Result.map ignore (agreed_log t ~group)

let committed_log t ~group =
  match agreed_log t ~group with
  | Ok log -> log
  | Error msg -> failwith ("Cluster.committed_log: " ^ msg)

let combined_entries t ~group =
  List.length
    (List.filter (fun (_, entry) -> List.length entry > 1) (committed_log t ~group))
