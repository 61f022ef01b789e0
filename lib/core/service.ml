module Store = Mdds_kvstore.Store
module Wal = Mdds_wal.Wal
module Rpc = Mdds_net.Rpc

type t = {
  store : Store.t;
  wal : Wal.t;
  dc : int;
  acceptors : Acceptor_store.t;
  catchup : Catchup.t;
  indoubt : Indoubt.t;
  manager : Manager.t;
  submit : Indoubt.submit;  (* [Manager.submit]: clients and resolvers *)
  counters : Counters.t;
}

type recovery_stats = { recoveries : int; scrubbed : int; relearned : int }

type throughput_stats = {
  batches : int;
  batched_txns : int;
  pipelined_rounds : int;
  pipeline_stalls : int;
}

type twopc_stats = {
  twopc_prepares : int;
  twopc_resolved : int;
  in_doubt_replies : int;
}

let dc t = t.dc
let store t = t.store
let wal t = t.wal
let counters t = t.counters
let learns t = Counters.get t.counters Learns
let snapshots t = Counters.get t.counters Snapshots

let recovery_stats t =
  let get = Counters.get t.counters in
  { recoveries = get Recoveries; scrubbed = get Scrubbed; relearned = get Relearned }

let throughput_stats t =
  let get = Counters.get t.counters in
  {
    batches = get Batches;
    batched_txns = get Batched_txns;
    pipelined_rounds = get Pipelined_rounds;
    pipeline_stalls = get Pipeline_stalls;
  }

let twopc_stats t =
  let get = Counters.get t.counters in
  {
    twopc_prepares = get Twopc_prepares;
    twopc_resolved = get Twopc_resolved;
    in_doubt_replies = get In_doubt_replies;
  }

let arm_2pc_trap t f = Indoubt.arm_trap t.indoubt f
let acceptor_state t = Acceptor_store.state t.acceptors

let leader_of_position t ~group ~pos =
  if pos < 1 then None
  else
    match Wal.entry t.wal ~group ~pos with
    | Some (first :: _) -> Some first.Mdds_types.Txn.origin
    | Some [] | None -> None

(* Paxos messages for a closed position are refused. A compacted position
   is by definition decided and applied; its acceptor state is gone.
   Answering Paxos messages for it from a blank state could let a stale
   proposer get a *different* value accepted at a position the rest of
   the system already executed — an (R1) violation. The same goes for its
   claim, a first-wins register that must never be granted twice
   ({!Acceptor_store.claim}): answering from the now-blank row would
   re-grant round-0 rights at a decided position. A recovered replica
   whose log ends before the cluster's compaction point would then cast a
   unilateral round-0 self-vote whose ballot (0.dc) can outrank the
   original fast-path vote (0.dc') in a later prepare tally — and a
   prepare quorum that misses the surviving original voter would adopt
   the new value over the decided one (R1 violation; found by chaos seed
   21: crash + compact). Refused, the stale proposer or claimant gives up
   or falls back to the full protocol, whose prepare quorum must
   intersect the original accept quorum in a non-compacted voter. A
   quarantined position is refused until it is re-learned
   ({!Catchup.quarantined}). *)
let guarded t ~group ~pos answer =
  let compacted = Wal.compacted_position t.wal ~group in
  if pos <= compacted then Messages.Compacted compacted
  else if Catchup.quarantined t.catchup ~group ~pos then
    Messages.Recovering
  else answer ()

let handle t ~src:_ request =
  match request with
  | Messages.Get_read_position { group } ->
      let position = Wal.last_position t.wal ~group in
      Messages.Read_position
        { position; leader = leader_of_position t ~group ~pos:position }
  | Messages.Read { group; key; position } -> (
      match Catchup.ensure_applied t.catchup ~group ~upto:position with
      | Ok () ->
          Messages.Value
            { value = Wal.read_data t.wal ~group ~key ~at:position }
      | Error pos -> Messages.Unlearnable pos)
  | Messages.Prepare { group; pos; ballot } ->
      guarded t ~group ~pos (fun () ->
          Acceptor_store.prepare t.acceptors ~group ~pos ~ballot)
  | Messages.Accept { group; pos; ballot; entry; vote; sequenced } ->
      guarded t ~group ~pos (fun () ->
          (* The chaos trap fires on the first prepare marker that crosses
             this service — here, possibly before the entry is decided:
             the rawest point of the prepare→decide window. *)
          Indoubt.fire_trap t.indoubt entry;
          Acceptor_store.accept t.acceptors ~group ~pos ~ballot ~entry ~vote
            ~sequenced)
  | Messages.Apply { group; pos; entry; encoded } ->
      (* An apply at or below the compaction point is stale news: the
         entry's effects are already part of the checkpoint. Above it,
         [Wal.append] is idempotent — a duplicated or replayed apply for
         an already-recorded position is counted and absorbed, never
         applied twice (safety under duplicating links). *)
      if pos > Wal.compacted_position t.wal ~group then begin
        if Wal.entry t.wal ~group ~pos <> None then
          Counters.incr t.counters Dup_applies;
        Wal.append t.wal ~group ~pos ~encoded entry;
        Indoubt.fire_trap t.indoubt entry;
        Indoubt.note_applied t.indoubt ~submit:t.submit ~group ~pos entry
      end;
      Messages.Applied
  | Messages.Claim_leadership { group; pos; claimant } ->
      guarded t ~group ~pos (fun () ->
          Acceptor_store.claim t.acceptors ~group ~pos ~claimant)
  | Messages.Submit { group; record } ->
      Messages.Submit_reply { result = t.submit ~group record }
  | Messages.Get_snapshot { group } ->
      let applied, rows = Wal.snapshot t.wal ~group in
      Messages.Snapshot_reply { applied; rows }

(* Which requests run inline (DESIGN.md §2.1): every handler but the
   ones that can block. A read may have to learn missing positions
   first, and a submission waits for its commit; a Paxos message or a
   claim for a quarantined position may start a re-learn, so it gets a
   process too. The predicate is asked when the handler starts, in the
   same event, so the quarantine it sees is the one the handler meets. *)
let inline t = function
  | Messages.Read _ | Messages.Submit _ -> false
  | Messages.Prepare { group; pos; _ }
  | Messages.Accept { group; pos; _ }
  | Messages.Claim_leadership { group; pos; _ } ->
      not (Catchup.suspect t.catchup ~group ~pos)
  | Messages.Get_read_position _ | Messages.Apply _ | Messages.Get_snapshot _
    ->
      true

(* Groups present in the durable store, recovered from the row-key layout
   [<kind>/<group>[/...]] (restart cannot trust any volatile group list):
   the named rows' keys, and the prefixes of the positional families that
   hold rows. *)
let durable_groups t =
  let kinds = [ "logmeta"; "log"; "data"; "paxos"; "claim"; "recover" ] in
  Store.family_prefixes t.store @ Store.keys t.store
  |> List.filter_map (fun key ->
         match String.split_on_char '/' key with
         | kind :: group :: _ when group <> "" && List.mem kind kinds ->
             Some group
         | _ -> None)
  |> List.sort_uniq String.compare

(* Restart the service processes of this datacenter: volatile state (the
   decoded acceptor cache, the quarantine view, the in-doubt table and its
   resolvers, the manager's streak, Submit queues and window, and the
   decoded WAL view) is lost; everything durable lives in the key-value
   store and survives — in particular Paxos promises and votes, which is
   why Algorithm 1 keeps them there. The caches are rebuilt lazily from
   the durable rows, which the chaos coherence oracle exercises. Every
   submission the manager held is answered first ({!Manager.restart}).

   Before serving, the crash-consistency scan of PROTOCOL.md §7 runs for
   every durable group ({!Catchup.recover}), and the in-doubt table is
   rebuilt from the recovered log; the scan re-arms a resolver for every
   prepare still lacking an outcome, so restart resolves in-doubt
   transactions by consulting the participant logs — never by inventing
   or forgetting an outcome. *)
let restart t =
  Acceptor_store.reset t.acceptors;
  Catchup.reset t.catchup;
  Indoubt.reset t.indoubt;
  Manager.restart t.manager;
  Wal.invalidate t.wal;
  List.iter
    (fun group ->
      Catchup.recover t.catchup ~group;
      Indoubt.scan t.indoubt ~submit:t.submit ~group)
    (durable_groups t);
  Store.sync t.store

(* Checkpoint: discard the applied log prefix together with its Paxos
   acceptor state, never past an in-doubt prepare. *)
let compact t ~group ~upto =
  let upto =
    Indoubt.compaction_bound t.indoubt ~submit:t.submit ~group ~upto
  in
  match Wal.compact t.wal ~group ~upto with
  | Error `Not_applied -> Error `Not_applied
  | Ok () ->
      Acceptor_store.prune t.acceptors ~group ~upto;
      (* The checkpoint's data rows must be durable before the acceptor
         state that could re-derive the prefix is gone for good. *)
      Store.sync t.store;
      Ok ()

let cache_coherent t ~group =
  match Wal.coherence t.wal ~group with
  | Error _ as e -> e
  | Ok () -> (
      match Wal.durable_coherent t.wal ~group with
      | Error _ as e -> e
      | Ok () -> Acceptor_store.coherent t.acceptors ~group)

(* Service-side processing time per request, seconds: stands in for the
   HBase operation cost in the paper's prototype (§6). *)
let processing_delay = 0.02

let start ?(storage = Store.Sync_always) ~rpc ~config ~dc ~dcs ~trace () =
  let store = Store.create ~mode:storage () in
  let wal = Wal.create store in
  let env =
    Proposer.make_env ~rpc ~config ~dc ~dcs
      ~rng:(Mdds_sim.Rng.split (Mdds_sim.Engine.rng (Rpc.engine rpc)))
      ~trace
  in
  let source = Printf.sprintf "svc.dc%d" dc in
  let counters = Counters.create () in
  let acceptors = Acceptor_store.create ~store ~wal ~counters in
  let catchup = Catchup.create ~env ~store ~wal ~acceptors ~counters ~source in
  let indoubt = Indoubt.create ~env ~wal ~catchup ~counters ~source in
  let manager = Manager.create ~env ~wal ~catchup ~indoubt ~counters in
  let t =
    {
      store;
      wal;
      dc;
      acceptors;
      catchup;
      indoubt;
      manager;
      submit = Manager.submit manager;
      counters;
    }
  in
  Rpc.serve rpc ~node:dc ~processing:processing_delay ~inline:(inline t)
    (fun ~src request -> handle t ~src request);
  t
