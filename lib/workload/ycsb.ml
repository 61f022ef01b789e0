module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

type config = {
  group : string;
  groups : int;
  total_txns : int;
  threads : int;
  rate : float;
  ops_per_txn : int;
  read_fraction : float;
  attributes : int;
  distribution : Distribution.t;
  stagger : float;
  client_dcs : int list;
  preload : bool;
  cross_ratio : float;
}

let default =
  {
    group = "ycsb";
    groups = 1;
    total_txns = 500;
    threads = 4;
    rate = 1.0;
    ops_per_txn = 10;
    read_fraction = 0.5;
    attributes = 100;
    distribution = Distribution.Uniform;
    stagger = 0.25;
    client_dcs = [ 0 ];
    preload = true;
    cross_ratio = 0.0;
  }

type handle = { mutable begin_failures : int; mutable finished : int }

let attribute_key i = Printf.sprintf "a%03d" i

let group_name config i =
  if config.groups <= 1 then config.group
  else Printf.sprintf "%s-%d" config.group i

let group_keys config = List.init (max 1 config.groups) (group_name config)

(* [names.(i)] caches [make i] for the run, filled on first use: a sprintf
   per operation or transaction is a measurable share of simulation time,
   and filling the whole array up front would move that work into
   set-up. *)
let cached names make i =
  match names.(i) with
  | "" ->
      let name = make i in
      names.(i) <- name;
      name
  | name -> name

(* Preload: one transaction writing every attribute, committed before any
   worker starts; gives reads a defined initial value at log position 1. *)
let preload_duration = 1.0

let preload_id = "preload"

(* The chaos runner's availability probes use client ids "probe-...". *)
let workload_events events =
  let harness id =
    String.starts_with ~prefix:(preload_id ^ "/") id
    || String.starts_with ~prefix:"probe-" id
  in
  List.filter
    (fun (e : Mdds_core.Audit.event) -> not (harness e.record.txn_id))
    events

(* A preload attempt that does not commit (a fault landed on it) is
   retried with a fresh transaction one virtual second later. The preload
   writes a constant and reads nothing, so an earlier attempt that still
   commits (an [Unknown] outcome) is just one more blind write of it. *)
let preload_attempts = 64

let run_preload cluster config ~group_key =
  let client = Cluster.client cluster ~id:preload_id ~dc:(List.hd config.client_dcs) in
  let commit_once group =
    try
      let txn = Client.begin_ client ~group in
      for i = 0 to config.attributes - 1 do
        Client.write txn (attribute_key i) "init"
      done;
      match Client.commit txn with
      | Mdds_core.Audit.Committed _ -> true
      | _ -> false
    with Client.Unavailable _ -> false
  in
  let rec preload group attempt =
    if not (commit_once group) then
      if attempt >= preload_attempts then
        failwith "Ycsb: preload transaction failed to commit"
      else begin
        Engine.sleep 1.0;
        preload group (attempt + 1)
      end
  in
  Cluster.spawn cluster (fun () ->
      for g = 0 to max 0 (config.groups - 1) do
        preload (group_key g) 1
      done)

let run_worker cluster config handle ~group_key ~keys ~index ~txns =
  let dc =
    List.nth config.client_dcs (index mod List.length config.client_dcs)
  in
  let client = Cluster.client cluster ~dc in
  let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
  let start =
    (if config.preload then preload_duration else 0.0)
    +. (float_of_int index *. config.stagger)
  in
  Cluster.spawn cluster ~at:start (fun () ->
      let scheduled = ref (Engine.now (Cluster.engine cluster)) in
      for _k = 1 to txns do
        (* Poisson arrivals at the target rate (exponential inter-arrival
           times), but never overlap own transactions. *)
        scheduled := !scheduled +. Rng.exponential rng (1.0 /. config.rate);
        let now = Engine.now (Cluster.engine cluster) in
        if !scheduled > now then Engine.sleep (!scheduled -. now);
        (try
           (* The cross-ratio guard draws no RNG when the feature is off,
              so [cross_ratio = 0.0] leaves the single-group stream — and
              every paper figure — byte-identical. *)
           if
             config.cross_ratio > 0.0 && config.groups > 1
             && Rng.float rng 1.0 < config.cross_ratio
           then begin
             (* Cross-group transaction: the round-robin group plus one
                other, operations alternating between them. *)
             let gi = _k mod config.groups in
             let gj = (gi + 1 + Rng.int rng (config.groups - 1)) mod config.groups in
             let g1 = group_key gi and g2 = group_key gj in
             let m = Client.begin_multi client ~groups:[ g1; g2 ] in
             for op = 0 to config.ops_per_txn - 1 do
               let group = if op land 1 = 0 then g1 else g2 in
               let key =
                 cached keys attribute_key
                   (Distribution.sample config.distribution rng config.attributes)
               in
               if Rng.bool rng config.read_fraction then
                 ignore (Client.read_in m ~group key)
               else
                 Client.write_in m ~group key
                   (Client.mtxn_id m ^ "#" ^ string_of_int op)
             done;
             ignore (Client.commit_multi m)
           end
           else begin
             let txn = Client.begin_ client ~group:(group_key _k) in
             for op = 0 to config.ops_per_txn - 1 do
               let key =
                 cached keys attribute_key
                   (Distribution.sample config.distribution rng config.attributes)
               in
               if Rng.bool rng config.read_fraction then
                 ignore (Client.read txn key)
               else
                 Client.write txn key (Client.txn_id txn ^ "#" ^ string_of_int op)
             done;
             ignore (Client.commit txn)
           end
         with Client.Unavailable _ -> handle.begin_failures <- handle.begin_failures + 1);
        handle.finished <- handle.finished + 1
      done)

let run cluster config =
  if config.threads <= 0 then invalid_arg "Ycsb.run: threads must be positive";
  if config.client_dcs = [] then invalid_arg "Ycsb.run: client_dcs empty";
  if not (Float.is_finite config.rate && config.rate > 0.0) then
    invalid_arg "Ycsb.run: rate must be finite and positive";
  if config.attributes < 1 then invalid_arg "Ycsb.run: attributes must be positive";
  let handle = { begin_failures = 0; finished = 0 } in
  let names = Array.make (max 1 config.groups) "" in
  let make = group_name config in
  let group_key i = cached names make (i mod Array.length names) in
  if config.preload then run_preload cluster config ~group_key;
  let base = config.total_txns / config.threads in
  let extra = config.total_txns mod config.threads in
  let keys = Array.make config.attributes "" in
  for index = 0 to config.threads - 1 do
    let txns = base + if index < extra then 1 else 0 in
    if txns > 0 then run_worker cluster config handle ~group_key ~keys ~index ~txns
  done;
  handle
