module Store = Mdds_kvstore.Store
module Row = Mdds_kvstore.Row
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Acceptor = Mdds_paxos.Acceptor
module Rpc = Mdds_net.Rpc
module Codec = Mdds_codec.Codec

(* Decoded acceptor state as cached per position: the durable row's
   attributes are the truth; [nb] keeps the raw nextBal attribute so the
   next conditional save tests against exactly what the store holds. *)
type acceptor_cached = {
  acc_state : Txn.entry Acceptor.state;
  acc_nb : string option;
}

(* Interned row-key prefixes per group (replaces per-message sprintf). *)
type group_keys = { paxos_prefix : string; claim_prefix : string }

(* ------------------------------------------------------------------ *)
(* The manager's pending queue and pipelined proposal window (DESIGN.md
   §14) — the one Submit path. All volatile: a restart drops it and
   answers every submission it held (see {!restart}). *)

(* One queued submission. The handler fiber that received the Submit
   suspends on [p_wakers]; whichever fiber resolves the outcome (a
   pipelined slot completing, the drainer's window resolution, or the
   batch admission check) wakes every waiter — including duplicate
   Submits for the same txn id that attached while it was in flight. *)
type pending = {
  p_record : Txn.record;
  mutable p_result : Messages.submit_result option;
  mutable p_wakers : (unit -> unit) list;
  mutable p_tries : int;  (* log positions lost before giving up *)
  mutable p_exposed : bool;  (* an accept carrying this record went out *)
}

type slot_state = Sl_pending | Sl_won | Sl_failed

(* One in-flight pipelined log position. *)
type slot = {
  sl_pos : int;
  sl_entry : Txn.entry;
  sl_pendings : pending list;
  mutable sl_state : slot_state;
}

type batcher = {
  bt_group : string;
  bt_queue : pending Queue.t;  (* fresh submissions, FIFO *)
  bt_requeue : pending Queue.t;  (* lost-position retries, drained first *)
  bt_by_id : (string, pending) Hashtbl.t;  (* queued or in flight *)
  mutable bt_window : slot list;  (* in-flight positions, ascending *)
  mutable bt_next_pos : int;  (* next position while the window is open *)
  mutable bt_prev : Txn.entry option;
      (* Entry launched at [bt_next_pos - 1], carried in the next
         sequenced accept so acceptors can match the predecessor
         (see {!sequenced_ok}). Kept here because the predecessor's slot
         may already have completed and left the window. Invariant:
         [bt_window <> []] implies [bt_prev = Some _]. *)
  mutable bt_running : bool;  (* drainer fiber alive *)
  mutable bt_wake : (unit -> unit) option;  (* drainer's parked wakeup *)
  mutable bt_stopped : bool;  (* set by restart; orphaned drainer exits *)
}

(* One prepared-but-undecided cross-group transaction (PROTOCOL.md §10),
   as derived from the group's log: a Prepare marker record without a
   later Outcome marker. Its footprint excludes conflicting admissions
   until resolved. *)
type indoubt = {
  ind_footprint : string array;
      (* The prepare record's read set — reads ∪ write keys by
         construction (see {!Twopc.prepare_record}). *)
  ind_payload : Twopc.payload;
  ind_pos : int;  (* log position of the prepare *)
}

type t = {
  dc : int;
  source : string;  (* "svc.dc<N>", interned for trace calls *)
  config : Config.t;
  store : Store.t;
  wal : Wal.t;
  env : Proposer.env;
  won : (string, int) Hashtbl.t;  (* last position this manager decided *)
  acceptors : (string, (int, acceptor_cached) Hashtbl.t) Hashtbl.t;
      (* Write-through decoded view of the paxos/ rows, per group; dropped
         on restart (volatile) and pruned with compaction. *)
  group_keys : (string, group_keys) Hashtbl.t;
  suspect : (string, (int, unit) Hashtbl.t) Hashtbl.t;
      (* Positions whose durable acceptor/claim state was damaged by a
         crash (checksum-invalid versions scrubbed at restart). The
         service must not vote at these from its reverted state — that
         would be the PR-1 double-vote bug at the storage level — so they
         are quarantined until re-learned from peers. *)
  relearning : (string * int, unit) Hashtbl.t;
      (* Quarantined positions whose re-learn ladder is currently running.
         The learner's own prepare broadcast reaches this service too; if
         that re-entrant message started another ladder, each round would
         spawn a new learner and the recursion would never bottom out
         while peers are unreachable. Re-entrant messages for a position
         already being re-learned are refused immediately instead. *)
  mutable learns : int;
  mutable snapshots : int;
  mutable recoveries : int;
  mutable scrubbed : int;
  mutable relearned : int;
  mutable dup_applies : int;
  mutable dup_claims : int;
  mutable dup_submits : int;
  batchers : (string, batcher) Hashtbl.t;
      (* Per-group pending queue + pipelined window: every Submit, from
         clients and from the 2PC resolvers, runs through one. *)
  mutable batches : int;
  mutable batched_txns : int;
  mutable pipelined_rounds : int;
  mutable pipeline_stalls : int;
  twopc : (string, (string, indoubt) Hashtbl.t) Hashtbl.t;
      (* In-doubt table per group, volatile: re-derived from the log by
         an incremental scan ({!scan_2pc}); reset and rebuilt on restart.
         Never allocated into when no cross-group transactions run. *)
  twopc_scanned : (string, int) Hashtbl.t;
      (* Contiguous log prefix already absorbed into the in-doubt table. *)
  twopc_resolving : (string * string, unit) Hashtbl.t;
      (* (group, txid) pairs with a live resolver fiber (spawn dedup). *)
  mutable twopc_epoch : int;
      (* Bumped by restart so orphaned resolver fibers exit quietly. *)
  mutable trap_2pc : (unit -> unit) option;
      (* One-shot chaos trap: fired when a prepare marker crosses this
         service (accept or apply) — the nemesis arms it to aim faults at
         the prepare→decide window. *)
  mutable twopc_prepares : int;
  mutable twopc_resolved : int;
  mutable in_doubt_replies : int;
}

type recovery_stats = { recoveries : int; scrubbed : int; relearned : int }

type dedup_stats = { dup_applies : int; dup_claims : int; dup_submits : int }

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
let learns t = t.learns

let dedup_stats (t : t) =
  {
    dup_applies = t.dup_applies;
    dup_claims = t.dup_claims;
    dup_submits = t.dup_submits;
  }

let throughput_stats (t : t) =
  {
    batches = t.batches;
    batched_txns = t.batched_txns;
    pipelined_rounds = t.pipelined_rounds;
    pipeline_stalls = t.pipeline_stalls;
  }

let twopc_stats (t : t) =
  {
    twopc_prepares = t.twopc_prepares;
    twopc_resolved = t.twopc_resolved;
    in_doubt_replies = t.in_doubt_replies;
  }

let keys_of t ~group =
  match Hashtbl.find_opt t.group_keys group with
  | Some k -> k
  | None ->
      let k =
        {
          paxos_prefix = "paxos/" ^ group ^ "/";
          claim_prefix = "claim/" ^ group ^ "/";
        }
      in
      Hashtbl.replace t.group_keys group k;
      k

let paxos_key t ~group ~pos = (keys_of t ~group).paxos_prefix ^ string_of_int pos
let claim_key t ~group ~pos = (keys_of t ~group).claim_prefix ^ string_of_int pos

(* ------------------------------------------------------------------ *)
(* Acceptor state persistence (Algorithm 1's datastore state).         *)

let vote_codec = Codec.(option (pair Ballot.codec Txn.entry_codec))

let acceptor_table t ~group =
  match Hashtbl.find_opt t.acceptors group with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 64 in
      Hashtbl.replace t.acceptors group tbl;
      tbl

let decode_acceptor attrs =
  let next_bal =
    match Row.attribute attrs "nb" with
    | None -> Ballot.bottom
    | Some s -> Ballot.of_string s
  in
  let vote =
    match Row.attribute attrs "vote" with
    | None -> None
    | Some s -> Codec.decode_exn vote_codec s
  in
  { acc_state = { Acceptor.next_bal; vote }; acc_nb = Row.attribute attrs "nb" }

let load_acceptor_fresh t ~group ~pos =
  match Store.read t.store ~key:(paxos_key t ~group ~pos) () with
  | None -> { acc_state = Acceptor.initial; acc_nb = None }
  | Some (_, attrs) -> decode_acceptor attrs

let load_acceptor t ~group ~pos =
  let tbl = acceptor_table t ~group in
  match Hashtbl.find_opt tbl pos with
  | Some cached -> (cached.acc_state, cached.acc_nb)
  | None ->
      let cached = load_acceptor_fresh t ~group ~pos in
      Hashtbl.replace tbl pos cached;
      (cached.acc_state, cached.acc_nb)

(* Conditional save keyed on the nextBal attribute, mirroring Algorithm 1
   lines 9 and 18: the write goes through only if nextBal has not changed
   since we read the state. The cache follows the store: updated only when
   the conditional write lands, dropped when it does not (someone else owns
   the row's current value). *)
let save_acceptor t ~group ~pos ~expected_nb (state : Txn.entry Acceptor.state) =
  let nb = Ballot.to_string state.next_bal in
  let attrs = [ ("nb", nb); ("vote", Codec.encode vote_codec state.vote) ] in
  let ok =
    Store.check_and_write t.store ~key:(paxos_key t ~group ~pos)
      ~test_attribute:"nb" ~test_value:expected_nb attrs
  in
  (* Promises and votes are the durability the whole protocol rests on
     (§4.1: an acceptor must come back remembering them): sync before the
     reply leaves this datacenter. *)
  if ok then Store.sync t.store;
  let tbl = acceptor_table t ~group in
  if ok then
    Hashtbl.replace tbl pos { acc_state = state; acc_nb = Some nb }
  else Hashtbl.remove tbl pos;
  ok

let rec handle_prepare t ~group ~pos ~ballot =
  let state, nb = load_acceptor t ~group ~pos in
  let state', reply = Acceptor.on_prepare state ballot in
  match reply with
  | Acceptor.Reject next_bal -> Messages.Prepare_reject { next_bal }
  | Acceptor.Promise vote ->
      if save_acceptor t ~group ~pos ~expected_nb:nb state' then
        Messages.Promise { vote }
      else handle_prepare t ~group ~pos ~ballot (* state changed: retry *)

(* Grant condition for a sequenced (pipelined) round-0 accept: our current
   vote at the previous position is the very same round-0 ballot *for the
   very entry the leader says it proposed there* ([prev], carried in the
   Accept). Acceptors cast at most one round-0 vote per position, so a
   quorum of sequenced grants at [pos] is a quorum of round-0 votes at
   [pos - 1] for one value — i.e. proof the leader's previous in-flight
   entry is chosen. That induction is what lets the manager keep
   [pipeline_depth] positions open and still report completions out of
   order (DESIGN.md §14). The entry match is load-bearing: the round-0
   ballot is NOT single-use per position (after a given-up
   exposed-but-undecided round the manager re-proposes a different batch
   at the same position and ballot 0, and pre-restart accepts linger on
   slow/duplicating links), so ballot-equal votes for different entries
   can coexist at [pos - 1] and ballot equality alone would prove
   nothing chosen. Anything else — no vote yet, an overwritten vote, a
   different entry, a compacted predecessor — is refused; refusal costs
   only the fast round, the window resolution recovers through the full
   protocol. *)
let sequenced_ok t ~group ~pos ~ballot ~prev =
  pos > 1
  && pos - 1 > Wal.compacted_position t.wal ~group
  &&
  match (fst (load_acceptor t ~group ~pos:(pos - 1))).Acceptor.vote with
  | Some (pb, pe) -> Ballot.equal pb ballot && Txn.equal_entry pe prev
  | None -> false

let rec handle_accept t ~group ~pos ~ballot ~entry ~sequenced =
  let refused =
    match sequenced with
    | None -> false
    | Some prev -> not (sequenced_ok t ~group ~pos ~ballot ~prev)
  in
  if refused then
    let state, _ = load_acceptor t ~group ~pos in
    Messages.Accept_reply { ok = false; next_bal = state.Acceptor.next_bal }
  else
    let state, nb = load_acceptor t ~group ~pos in
    let state', ok = Acceptor.on_accept state ballot entry in
    if not ok then Messages.Accept_reply { ok = false; next_bal = state.next_bal }
    else if save_acceptor t ~group ~pos ~expected_nb:nb state' then
      Messages.Accept_reply { ok = true; next_bal = state'.next_bal }
    else handle_accept t ~group ~pos ~ballot ~entry ~sequenced

(* ------------------------------------------------------------------ *)
(* Log catch-up (§4.1 Fault Tolerance and Recovery).                   *)

(* Catch-up past a compaction point: the entries cannot be learned through
   Paxos any more (peers discarded them and their acceptor state), so fetch
   a peer's applied data state instead. *)
let fetch_snapshot t ~group ~at_least =
  let peers = List.filter (fun d -> d <> t.dc) t.env.Proposer.dcs in
  let rec try_peers = function
    | [] -> false
    | peer :: rest -> (
        match
          Rpc.call t.env.Proposer.rpc ~src:t.dc ~dst:peer
            ~timeout:t.config.Config.rpc_timeout
            (Messages.Get_snapshot { group })
        with
        | Some (Messages.Snapshot_reply { applied; rows }) when applied >= at_least ->
            Wal.install_snapshot t.wal ~group ~applied rows;
            t.snapshots <- t.snapshots + 1;
            Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
              ~category:"snapshot"
              "installed snapshot from dc%d (applied=%d, %d rows)" peer applied
              (List.length rows);
            true
        | _ -> try_peers rest)
  in
  try_peers peers

let ensure_applied t ~group ~upto =
  let rec go attempts =
    match Wal.apply t.wal ~group ~upto with
    | Ok () -> Ok ()
    | Error (`Gap pos) ->
        if attempts <= 0 then Error pos
        else (
          match Proposer.learn t.env ~group ~pos with
          | Some entry ->
              t.learns <- t.learns + 1;
              Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
                ~category:"learn" "learned entry for pos %d" pos;
              Wal.append t.wal ~group ~pos entry;
              go attempts
          | None ->
              (* Unlearnable: possibly compacted away everywhere. *)
              if fetch_snapshot t ~group ~at_least:pos then go (attempts - 1)
              else Error pos)
  in
  go 3

(* ------------------------------------------------------------------ *)
(* Leadership of the next log position (§4.1 optimization).            *)

let leader_of_position t ~group ~pos =
  if pos < 1 then None
  else
    match Wal.entry t.wal ~group ~pos with
    | Some (first :: _) -> Some first.Txn.origin
    | Some [] | None -> None

(* The claim registry is protocol-critical state, not a cache: the fast
   path is only safe if at most one value is ever proposed at round 0 of
   a position, and that uniqueness rests entirely on the registrar
   granting [first] once. (The registrar's identity is view-consistent —
   every claimant derives it from the decided entry at [pos - 1] — so a
   durable first-wins register here is sufficient.) Keeping it in a
   volatile table would let a service restart re-grant a claim and allow
   two rival round-0 votes, which ballot order cannot arbitrate. *)
let handle_claim t ~group ~pos ~claimant =
  let key = claim_key t ~group ~pos in
  let owner () =
    match Store.read t.store ~key () with
    | Some (_, attrs) -> Row.attribute attrs "owner"
    | None -> None
  in
  match owner () with
  | Some winner ->
      (* A replayed claim from the registered owner (duplicated link or
         client retry) re-reads the durable register; the answer is the
         original grant, never a second one. *)
      if String.equal winner claimant then t.dup_claims <- t.dup_claims + 1;
      Messages.Claim_reply { first = String.equal winner claimant }
  | None ->
      if
        Store.check_and_write t.store ~key ~test_attribute:"owner"
          ~test_value:None
          [ ("owner", claimant) ]
      then begin
        (* The claim is a durable first-wins register (see above): a grant
           lost at a crash boundary could be re-granted to a rival. *)
        Store.sync t.store;
        Messages.Claim_reply { first = true }
      end
      else Messages.Claim_reply { first = owner () = Some claimant }

(* ------------------------------------------------------------------ *)
(* Multi-shot atomic commit, manager side (PROTOCOL.md §10): the in-doubt
   table, admission blocking, and resolver arming. All state here is
   volatile and re-derived from the log's marker records ({!Twopc}) —
   the per-group Paxos log is the only durable truth the protocol has. *)

let indoubt_table t ~group =
  match Hashtbl.find_opt t.twopc group with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.twopc group tbl;
      tbl

(* Forward reference: the resolver ladder needs [handle_submit] (defined
   below) to drive decision/outcome records through Paxos, while the
   scan below must arm resolvers. Tied together after [handle_submit]. *)
let watch_2pc_cell : (t -> group:string -> string -> unit) ref =
  ref (fun _ ~group:_ _ -> ())

let watch_2pc t ~group txid = !watch_2pc_cell t ~group txid

let scanned_2pc t ~group =
  match Hashtbl.find_opt t.twopc_scanned group with
  | Some p -> p
  | None -> Wal.compacted_position t.wal ~group

let note_record_2pc t ~group ~pos (r : Txn.record) =
  match Twopc.classify r with
  | Twopc.Prepare { txid; payload } ->
      let tbl = indoubt_table t ~group in
      if not (Hashtbl.mem tbl txid) then begin
        Hashtbl.replace tbl txid
          {
            ind_footprint = Txn.read_keys r;
            ind_payload = payload;
            ind_pos = pos;
          };
        t.twopc_prepares <- t.twopc_prepares + 1;
        watch_2pc t ~group txid
      end
  | Twopc.Outcome { txid; _ } -> Hashtbl.remove (indoubt_table t ~group) txid
  | Twopc.Decision _ | Twopc.Plain -> ()

(* Incremental, contiguous scan of the group's log for 2PC markers: the
   in-doubt table is exactly "prepares without a later outcome" over the
   scanned prefix. Deliberately cheap when the feature is idle — each
   entry is classified once per service lifetime, and classification is
   one prefix test per record. *)
let scan_2pc t ~group =
  let scanned =
    max (scanned_2pc t ~group) (Wal.compacted_position t.wal ~group)
  in
  let last = Wal.last_position t.wal ~group in
  let rec go pos =
    if pos > last then pos - 1
    else
      match Wal.entry t.wal ~group ~pos with
      | None -> pos - 1 (* gap: resume once it is learned *)
      | Some entry ->
          List.iter (note_record_2pc t ~group ~pos) entry;
          go (pos + 1)
  in
  Hashtbl.replace t.twopc_scanned group (go (scanned + 1))

let footprint_conflict ~footprint (r : Txn.record) =
  let mem key = Array.exists (String.equal key) footprint in
  Array.exists mem (Txn.read_keys r)
  || List.exists (fun (w : Txn.write) -> mem w.Txn.key) r.Txn.writes

(* Admission blocking: a prepared-but-undecided footprint excludes every
   conflicting record until the transaction's outcome is logged —
   cross-group 1SR rests on the (prepare, outcome] window being
   exclusive in each participant group. The predicate is conservative
   (any footprint intersection blocks); outcome/decision records are
   exempt, since they are what resolves the window. A refusal re-arms the
   resolver for the blocking transaction, so a dead coordinator cannot
   wedge a key range forever. *)
let blocked_in tbl ~own record =
  Hashtbl.fold
    (fun txid ind acc ->
      match acc with
      | Some _ -> acc
      | None ->
          if String.equal txid own then None
          else if footprint_conflict ~footprint:ind.ind_footprint record then
            Some txid
          else None)
    tbl None

let blocked_by_2pc t ~group (record : Txn.record) =
  let blocker =
    match Hashtbl.find_opt t.twopc group with
    | None -> None
    | Some tbl when Hashtbl.length tbl = 0 -> None
    | Some tbl -> (
        match Twopc.classify record with
        | Twopc.Outcome _ | Twopc.Decision _ -> None
        | Twopc.Prepare { txid = own; _ } -> blocked_in tbl ~own record
        | Twopc.Plain -> blocked_in tbl ~own:"" record)
  in
  Option.iter (watch_2pc t ~group) blocker;
  blocker <> None

(* Prepares sitting in not-yet-scanned overhang entries (decided or
   in-flight positions above the applied watermark) block the same way;
   outcomes in the overhang release them. Admission also runs it over the
   prepares already in the batch being built. *)
let blocked_by_overhang (record : Txn.record) overhang =
  let own =
    match Twopc.classify record with
    | Twopc.Outcome _ | Twopc.Decision _ -> None
    | Twopc.Prepare { txid; _ } -> Some txid
    | Twopc.Plain -> Some ""
  in
  match own with
  | None -> None
  | Some own ->
      let resolved =
        List.concat_map
          (fun (_, entry) ->
            List.filter_map
              (fun r ->
                match Twopc.classify r with
                | Twopc.Outcome { txid; _ } -> Some txid
                | _ -> None)
              entry)
          overhang
      in
      List.find_map
        (fun (_, entry) ->
          List.find_map
            (fun r ->
              match Twopc.classify r with
              | Twopc.Prepare { txid; _ }
                when (not (String.equal txid own))
                     && (not (List.mem txid resolved))
                     && footprint_conflict ~footprint:(Txn.read_keys r) record
                ->
                  Some txid
              | _ -> None)
            entry)
        overhang

let arm_2pc_trap t f = t.trap_2pc <- Some f

let fire_2pc_trap t entry =
  match t.trap_2pc with
  | None -> ()
  | Some f ->
      if
        List.exists
          (fun r ->
            match Twopc.classify r with Twopc.Prepare _ -> true | _ -> false)
          entry
      then begin
        t.trap_2pc <- None;
        Mdds_sim.Engine.spawn (Rpc.engine t.env.Proposer.rpc) f
      end

(* ------------------------------------------------------------------ *)
(* The long-term-leader transaction manager (§7–§8 future work; DESIGN.md
   §14): the one Submit path, for clients and the in-process 2PC
   resolvers alike.

   One drainer fiber per group owns proposal order. Submissions queue;
   the drainer drains them (fill-or-timeout) into Combine-valid batches,
   one batch per log position, and — in the Multi-Paxos steady state —
   keeps up to [pipeline_depth] positions in flight at once via
   {!Proposer.run_fast}'s sequenced round-0 accepts. A failed round
   stalls the pipeline: every open position is resolved in log order
   through the full protocol before new positions open. Data applies
   always stay in log order behind the WAL watermark regardless of the
   order rounds complete in. At [batch_max = pipeline_depth = 1] this is
   the paper's manager: one transaction per position, one position in
   flight. *)

(* A duplicated or replayed submission (duplicating link, client retry)
   must not be sequenced a second time — the same transaction at two
   positions is an L2 violation (found by gray-failure chaos seed 2:
   dup-storm under the leader protocol). The log is the durable record of
   what was already sequenced: answer from it. A committed record always
   sits above its read position (positions up to it were decided when it
   was built), so the scan up to [upto] is short. *)
let logged_at t ~group ~upto (r : Txn.record) =
  let rec find pos =
    if pos > upto then None
    else
      match Wal.entry t.wal ~group ~pos with
      | Some entry when Txn.mem_entry ~txn_id:r.Txn.txn_id entry -> Some pos
      | _ -> find (pos + 1)
  in
  find (1 + max r.Txn.read_position (Wal.compacted_position t.wal ~group))

(* Fine-grained conflict check against committed state (the §7 sketch:
   "check each new transaction against previously committed
   transactions"): a read is stale if its key was overwritten after the
   transaction's read position, as of position [at]. Probes the
   footprint's deduped read-set array directly: no per-submit
   List.sort_uniq allocation. *)
let stale_at t ~group ~at (r : Txn.record) =
  Array.exists
    (fun key ->
      match Wal.data_version t.wal ~group ~key ~at with
      | Some version -> version > r.Txn.read_position
      | None -> false)
    (Txn.read_keys r)

let batcher t ~group =
  match Hashtbl.find_opt t.batchers group with
  | Some b -> b
  | None ->
      let b =
        {
          bt_group = group;
          bt_queue = Queue.create ();
          bt_requeue = Queue.create ();
          bt_by_id = Hashtbl.create 32;
          bt_window = [];
          bt_next_pos = 0;
          bt_prev = None;
          bt_running = false;
          bt_wake = None;
          bt_stopped = false;
        }
      in
      Hashtbl.replace t.batchers group b;
      b

let wake_batcher b =
  match b.bt_wake with
  | Some w ->
      b.bt_wake <- None;
      w ()
  | None -> ()

(* Park the drainer until a slot completes or a submission arrives. *)
let wait_batcher b =
  Mdds_sim.Engine.suspend (fun wake -> b.bt_wake <- Some wake)

let resolve_pending b p result =
  if p.p_result = None then begin
    p.p_result <- Some result;
    Hashtbl.remove b.bt_by_id p.p_record.Txn.txn_id;
    let wakers = List.rev p.p_wakers in
    p.p_wakers <- [];
    List.iter (fun w -> w ()) wakers
  end

(* The submit handler's side: block until some drainer/slot fiber
   resolves the outcome. The client's own timeout bounds the wait. *)
let await_pending p =
  if p.p_result = None then
    Mdds_sim.Engine.suspend (fun wake -> p.p_wakers <- wake :: p.p_wakers);
  Option.value p.p_result ~default:Messages.No_quorum

(* Lost-position retries first, then fresh submissions. *)
let take_pending b =
  match Queue.take_opt b.bt_requeue with
  | Some p -> Some p
  | None -> Queue.take_opt b.bt_queue

(* Giving up on a submission: a definite No_quorum unless an accept
   carrying it went out, after which only In_doubt is honest. *)
let give_up b p =
  resolve_pending b p
    (if p.p_exposed then Messages.In_doubt else Messages.No_quorum)

(* Outcomes for a decided position: members commit at it; the rest lost
   the position and go back to the queue, where the next admission pass
   decides between retry and a truthful Stale_read. *)
let deliver_decided b ~pos entry pendings =
  List.iter
    (fun p ->
      if Txn.mem_entry ~txn_id:p.p_record.Txn.txn_id entry then
        resolve_pending b p (Messages.Accepted_at pos)
      else begin
        p.p_tries <- p.p_tries + 1;
        if p.p_tries >= 5 then resolve_pending b p Messages.No_quorum
        else Queue.push p b.bt_requeue
      end)
    pendings

(* Admission: drain the queues (lost-position retries first) into the next
   batch. Replayed submissions are answered from the log (the PR-6 dedup
   rule); stale reads are checked against the applied state *plus* every
   not-yet-applied entry above the watermark — in-flight window slots
   included, since their writes are ahead of any position this batch can
   get; and the combination invariant (no record reads a key an earlier
   batch member writes) is enforced with the PR-5 write-union. An
   admitted prepare's footprint is in doubt from its own position on
   (PROTOCOL.md §10), so later members it conflicts with are held back
   too — the write-union cannot see that, since a prepare writes only its
   marker. A record failing only these intra-batch rules is deferred to a
   later position, not aborted — exactly the outcome it would get
   submitting alone. *)
let build_batch (t : t) b =
  let group = b.bt_group in
  let wal_last = Wal.last_position t.wal ~group in
  let watermark = Wal.apply_available t.wal ~group in
  scan_2pc t ~group;
  let overhang =
    let rec collect pos acc =
      if pos > wal_last then acc
      else
        collect (pos + 1)
          (match Wal.entry t.wal ~group ~pos with
          | Some e -> (pos, e) :: acc
          | None -> acc)
    in
    collect (watermark + 1)
      (List.map (fun s -> (s.sl_pos, s.sl_entry)) b.bt_window)
  in
  let union = Txn.Write_union.create () in
  let prepares = ref [] in
  let batch = ref [] in
  let size = ref 0 in
  let deferred = ref [] in
  let exception Full in
  (try
     let rec admit () =
       if !size >= t.config.Config.batch_max then raise Full;
       match take_pending b with
       | None -> ()
       | Some p ->
           let r = p.p_record in
           (match logged_at t ~group ~upto:wal_last r with
           | Some pos ->
               t.dup_submits <- t.dup_submits + 1;
               resolve_pending b p (Messages.Accepted_at pos)
           | None ->
               let stale =
                 blocked_by_2pc t ~group r
                 || blocked_by_overhang r overhang <> None
                 || stale_at t ~group ~at:watermark r
                 || List.exists
                      (fun (pos, entry) ->
                        pos > r.Txn.read_position
                        && List.exists (fun s -> Txn.reads_from r s) entry)
                      overhang
               in
               if stale then resolve_pending b p Messages.Stale_read
               else if
                 Txn.Write_union.reads_overlap union r
                 || (!prepares <> []
                    && blocked_by_overhang r [ (0, !prepares) ] <> None)
               then deferred := p :: !deferred
               else begin
                 Txn.Write_union.add union r;
                 (match Twopc.classify r with
                 | Twopc.Prepare _ -> prepares := r :: !prepares
                 | _ -> ());
                 batch := p :: !batch;
                 incr size
               end);
           admit ()
     in
     admit ()
   with Full -> ());
  List.iter (fun p -> Queue.push p b.bt_requeue) (List.rev !deferred);
  List.rev !batch

(* No leadership streak (a fresh or failed-over manager, or a rival took
   the previous position): the batch goes through the full protocol at
   one position, synchronously in the drainer. A member is exposed once
   an accept for a value carrying it can go out. *)
let propose_sync (t : t) b ~pos batch =
  let group = b.bt_group in
  let entry = List.map (fun p -> p.p_record) batch in
  let choose votes =
    let winning = Mdds_paxos.Tally.find_winning votes ~own:entry in
    List.iter
      (fun p ->
        if Txn.mem_entry ~txn_id:p.p_record.Txn.txn_id winning then
          p.p_exposed <- true)
      batch;
    Proposer.Propose winning
  in
  match Proposer.run t.env ~group ~pos ~choose () with
  | Proposer.Decided entry', _ ->
      if Txn.equal_entry entry' entry then Hashtbl.replace t.won group pos;
      deliver_decided b ~pos entry' batch
  | Proposer.Observed entry', _ -> deliver_decided b ~pos entry' batch
  | Proposer.Unavailable, _ -> List.iter (give_up b) batch

(* A pipelined round failed (refused sequenced accept, timeout, or a rival
   bumped nextBal): stall the pipeline and resolve every open position in
   log order through the full protocol. Each resolution adopts the highest
   vote the prepare quorum reveals other than our own round-0 vote; with
   none left it re-proposes our entry while the prefix held, and once the
   prefix has diverged it re-validates instead. Our own round-0 vote is
   then provably unchosen: a sequenced round-0 quorum at the position
   would need a round-0 quorum at the previous position for the same
   leader, which the divergence rules out (any rival decision's prepare
   quorum intersects every round-0 quorum and would have adopted our
   value). Proposing it verbatim would commit transactions whose
   stale-read checks ran against a prefix that never committed, so we
   propose a re-validated subset instead — possibly the empty no-op
   entry — at the higher ballot. Skipping our own round-0 vote is the
   one deliberate deviation from adopt-the-highest-vote (PROTOCOL.md §9,
   "Resolution tie rule"). *)
let resolve_window (t : t) b =
  t.pipeline_stalls <- t.pipeline_stalls + 1;
  let group = b.bt_group in
  let slots = List.sort (fun a b -> Int.compare a.sl_pos b.sl_pos) b.bt_window in
  b.bt_window <- [];
  let prefix_ok = ref true in
  let unavailable = ref false in
  List.iter
    (fun slot ->
      match slot.sl_state with
      | Sl_won -> () (* completed concurrently; outcomes already delivered *)
      | Sl_pending | Sl_failed ->
          if !unavailable then
            (* No quorum below this position: everything above is exposed
               and unknowable, like any post-accept give-up. *)
            List.iter
              (fun p -> resolve_pending b p Messages.In_doubt)
              slot.sl_pendings
          else begin
            ignore (ensure_applied t ~group ~upto:(slot.sl_pos - 1));
            let fast_ballot = Ballot.fast ~proposer:t.dc in
            (* The same admission rules against what actually got decided,
               in-doubt footprints included. *)
            let revalidated () =
              let watermark = Wal.apply_available t.wal ~group in
              scan_2pc t ~group;
              let union = Txn.Write_union.create () in
              List.filter
                (fun (r : Txn.record) ->
                  let ok =
                    (not (blocked_by_2pc t ~group r))
                    && (not (stale_at t ~group ~at:watermark r))
                    && not (Txn.Write_union.reads_overlap union r)
                  in
                  if ok then Txn.Write_union.add union r;
                  ok)
                slot.sl_entry
            in
            (* Our own round-0 vote is skipped wherever it sits in the
               ballot order: a restart leaves the same fast ballot on two
               entries (ours and the post-restart manager's), and the tie
               must go to the other one, which may be chosen. *)
            let choose votes =
              let highest =
                List.fold_left
                  (fun acc (r : Txn.entry Mdds_paxos.Tally.response) ->
                    match (acc, r.Mdds_paxos.Tally.vote) with
                    | _, None -> acc
                    | _, Some (bv, e)
                      when Ballot.equal bv fast_ballot
                           && Txn.equal_entry e slot.sl_entry ->
                        acc
                    | None, v -> v
                    | Some (bb, _), (Some (bv, _) as v) ->
                        if Ballot.compare bv bb > 0 then v else acc)
                  None votes
              in
              match highest with
              | Some (_, e) -> Proposer.Propose e
              | None ->
                  if !prefix_ok then Proposer.Propose slot.sl_entry
                  else Proposer.Propose (revalidated ())
            in
            match Proposer.run t.env ~group ~pos:slot.sl_pos ~choose () with
            | Proposer.Decided entry, _ | Proposer.Observed entry, _ ->
                if Txn.equal_entry entry slot.sl_entry then
                  Hashtbl.replace t.won group slot.sl_pos
                else prefix_ok := false;
                deliver_decided b ~pos:slot.sl_pos entry slot.sl_pendings
            | Proposer.Unavailable, _ ->
                unavailable := true;
                List.iter
                  (fun p -> resolve_pending b p Messages.In_doubt)
                  slot.sl_pendings
          end)
    slots

let rec drain (t : t) b =
  if b.bt_stopped then b.bt_running <- false
  else begin
    (* Completed slots leave the window as soon as their outcome is
       delivered; their entries are in the WAL (synchronous local apply in
       [run_fast]) and keep feeding admission's overhang checks. *)
    b.bt_window <- List.filter (fun s -> s.sl_state <> Sl_won) b.bt_window;
    if List.exists (fun s -> s.sl_state = Sl_failed) b.bt_window then begin
      resolve_window t b;
      drain t b
    end
    else begin
      let inflight = List.length b.bt_window in
      let queued = Queue.length b.bt_queue + Queue.length b.bt_requeue in
      if queued = 0 && inflight = 0 then b.bt_running <- false
      else if queued = 0 || inflight >= t.config.Config.pipeline_depth then begin
        wait_batcher b;
        drain t b
      end
      else begin
        (* Fill-or-timeout: unless a whole batch is already waiting, hold
           the batch open for [batch_fill] — submissions arriving during
           the sleep join it. A long window amortizes one consensus round
           over everything admitted in it (PROTOCOL.md §9). *)
        if
          t.config.Config.batch_max > 1
          && queued < t.config.Config.batch_max
          && t.config.Config.batch_fill > 0.
        then Mdds_sim.Engine.sleep t.config.Config.batch_fill;
        launch t b;
        drain t b
      end
    end
  end

(* A restart during the fill sleep — or, below, during the learner's
   catch-up, which can block for seconds — orphans this batcher. The
   restart has answered its submissions and the post-restart batcher owns
   the group's positions: launching from the pre-restart queues would
   race it at overlapping positions with the same round-0 ballot, and
   commit transactions already reported aborted (cross-group soak seed
   129). Hence [bt_stopped] is checked on entry and again after the
   catch-up; the drain loop then observes it and exits. *)
and launch (t : t) b =
  let group = b.bt_group in
  (* Slots may have completed (or failed) during the fill wait: re-settle
     the window first. A failure means resolution must run before any new
     position opens — launching over an unresolved gap through the full
     protocol would decide a position whose admission checks assumed a
     prefix that may never commit. *)
  b.bt_window <- List.filter (fun s -> s.sl_state <> Sl_won) b.bt_window;
  if b.bt_stopped || List.exists (fun s -> s.sl_state = Sl_failed) b.bt_window
  then ()
  else begin
    (* Only catch up through the learner when nothing of ours is in
       flight — learning one of our own open positions would race this
       manager against itself (a round-1 prepare killing its own
       round-0 accepts). *)
    let caught_up =
      b.bt_window <> []
      || Result.is_ok
           (ensure_applied t ~group ~upto:(Wal.last_position t.wal ~group))
    in
    if b.bt_stopped then ()
    else if not caught_up then
      (* An unlearnable gap below the head: admission cannot check a
         record against entries it cannot see, so the next batch's worth
         of submissions gives up instead of being proposed. *)
      for _ = 1 to t.config.Config.batch_max do
        Option.iter (give_up b) (take_pending b)
      done
    else begin
    let batch = build_batch t b in
    if batch <> [] then begin
      let entry = List.map (fun p -> p.p_record) batch in
      assert (Txn.valid_combination entry);
      let pos =
        if b.bt_window = [] then Wal.last_position t.wal ~group + 1
        else b.bt_next_pos
      in
      b.bt_next_pos <- pos + 1;
      t.batches <- t.batches + 1;
      t.batched_txns <- t.batched_txns + List.length entry;
      (* The window holds only Sl_pending slots here, so: non-empty window
         ⇒ pipelined sequenced round; empty window ⇒ round-0 only on the
         Multi-Paxos streak, else the synchronous single-position path.
         A sequenced accept carries the entry launched at [pos - 1]
         (tracked in [bt_prev] — the predecessor's slot may already have
         completed and left the window) so acceptors can require their
         round-0 vote there to match it exactly. *)
      let sequenced = if b.bt_window = [] then None else b.bt_prev in
      assert (b.bt_window = [] || sequenced <> None);
      let streak = Hashtbl.find_opt t.won group = Some (pos - 1) in
      if sequenced <> None || streak then begin
        let slot =
          {
            sl_pos = pos;
            sl_entry = entry;
            sl_pendings = batch;
            sl_state = Sl_pending;
          }
        in
        b.bt_window <- b.bt_window @ [ slot ];
        b.bt_prev <- Some entry;
        if sequenced <> None then t.pipelined_rounds <- t.pipelined_rounds + 1;
        List.iter (fun p -> p.p_exposed <- true) batch;
        Mdds_sim.Engine.spawn (Rpc.engine t.env.Proposer.rpc) (fun () ->
            let ok = Proposer.run_fast t.env ~group ~pos ~sequenced entry in
            (match slot.sl_state with
            | Sl_pending -> slot.sl_state <- (if ok then Sl_won else Sl_failed)
            | Sl_won | Sl_failed -> ());
            if ok && not b.bt_stopped then begin
              (* Out-of-order success is safe to report: a sequenced quorum
                 at this position proves every earlier open position is
                 chosen with this manager's entry (see {!sequenced_ok}). *)
              (match Hashtbl.find_opt t.won group with
              | Some w when w >= pos -> ()
              | _ -> Hashtbl.replace t.won group pos);
              List.iter
                (fun p -> resolve_pending b p (Messages.Accepted_at pos))
                slot.sl_pendings
            end;
            wake_batcher b)
      end
      else propose_sync t b ~pos batch
    end
    end
  end

let handle_submit t ~group (record : Txn.record) =
  let b = batcher t ~group in
  let p =
    match Hashtbl.find_opt b.bt_by_id record.Txn.txn_id with
    | Some p ->
        (* Duplicate Submit while the original is queued or in flight
           (duplicating link, or a client retrying into the same manager):
           attach as an extra waiter; the one resolution answers both. *)
        t.dup_submits <- t.dup_submits + 1;
        p
    | None ->
        let p =
          {
            p_record = record;
            p_result = None;
            p_wakers = [];
            p_tries = 0;
            p_exposed = false;
          }
        in
        Queue.push p b.bt_queue;
        Hashtbl.replace b.bt_by_id record.Txn.txn_id p;
        if not b.bt_running then begin
          b.bt_running <- true;
          Mdds_sim.Engine.spawn (Rpc.engine t.env.Proposer.rpc) (fun () ->
              drain t b)
        end
        else wake_batcher b;
        p
  in
  let result = await_pending p in
  if result = Messages.In_doubt then
    t.in_doubt_replies <- t.in_doubt_replies + 1;
  Messages.Submit_reply { result }

(* ------------------------------------------------------------------ *)
(* In-doubt resolution (PROTOCOL.md §10). A resolver presumes abort for
   an aged prepare — but never silently: it first logs an Abort decision
   through the *coordinator* group's own Paxos log, then reads the
   decision key back. The WAL's write-once rule for 2PC markers means
   whatever decision was logged first (the client's Commit, or any
   resolver's Abort) is the one the read returns, so every resolver and
   the client converge on a single verdict; the outcome records they
   then write to the participant groups all agree. A logged prepare is
   therefore never presumed-aborted unilaterally — abort becomes true by
   being decided in the coordinator's log, exactly like commit. *)

let twopc_grace t = 4.0 *. t.config.Config.rpc_timeout

(* Resolvers stagger by datacenter: one usually settles the transaction
   before the rest wake, and they then find it resolved and log
   nothing. *)
let twopc_delay t =
  twopc_grace t +. (float_of_int t.dc *. t.config.Config.rpc_timeout)

let twopc_retry t = 2.0 *. t.config.Config.rpc_timeout
let twopc_attempts = 100

(* Authoritative check: refresh the table from the log first. The scan,
   not the table, is the truth — a late duplicated apply may have left a
   stale entry (see the Apply handler). *)
let still_indoubt_2pc t ~group txid =
  ignore (Wal.apply_available t.wal ~group);
  scan_2pc t ~group;
  match Hashtbl.find_opt t.twopc group with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl txid

let resolve_2pc t ~group txid ind =
  let coord = ind.ind_payload.Twopc.coordinator in
  let tag = "dc" ^ string_of_int t.dc in
  let drec =
    Twopc.decision_record ~txid ~tag ~origin:t.dc ~verdict:Twopc.abort_verdict
  in
  (* Any service can drive a record through a group's Paxos log — the
     submit path below is the manager path run in-process, so resolution
     does not depend on reaching a remote manager. *)
  match handle_submit t ~group:coord drec with
  | Messages.Submit_reply { result = Messages.Accepted_at dpos } -> (
      match ensure_applied t ~group:coord ~upto:dpos with
      | Error _ -> false
      | Ok () ->
          let verdict =
            match
              Wal.read_data t.wal ~group:coord ~key:(Twopc.decision_key txid)
                ~at:dpos
            with
            | Some v -> v
            | None -> Twopc.abort_verdict (* unreachable: own marker applied *)
          in
          let orec =
            Twopc.outcome_record ~txid ~tag ~origin:t.dc
              ~prepare_position:ind.ind_pos ~verdict
              ~writes:ind.ind_payload.Twopc.writes
          in
          (match handle_submit t ~group orec with
          | Messages.Submit_reply { result = Messages.Accepted_at _ } ->
              Hashtbl.remove (indoubt_table t ~group) txid;
              t.twopc_resolved <- t.twopc_resolved + 1;
              Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
                ~category:"2pc" "resolved in-doubt %s in %s: %s" txid group
                verdict;
              true
          | _ -> false))
  | _ -> false

let spawn_watch_2pc t ~group txid =
  let key = (group, txid) in
  if not (Hashtbl.mem t.twopc_resolving key) then begin
    Hashtbl.add t.twopc_resolving key ();
    let epoch = t.twopc_epoch in
    Mdds_sim.Engine.spawn (Rpc.engine t.env.Proposer.rpc) (fun () ->
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove t.twopc_resolving key)
          (fun () ->
            Mdds_sim.Engine.sleep (twopc_delay t);
            (* Bounded, RNG-free ladder: the run quiesces even if the
               transaction can never be resolved (permanent partition). *)
            let rec loop attempts =
              if attempts > 0 && t.twopc_epoch = epoch then
                match still_indoubt_2pc t ~group txid with
                | None -> ()
                | Some ind ->
                    if not (resolve_2pc t ~group txid ind) then begin
                      Mdds_sim.Engine.sleep (twopc_retry t);
                      loop (attempts - 1)
                    end
            in
            loop twopc_attempts))
  end

let () = watch_2pc_cell := spawn_watch_2pc

(* ------------------------------------------------------------------ *)

(* A compacted position is by definition decided and applied; its acceptor
   state is gone. Answering Paxos messages for it from a blank state could
   let a stale proposer get a *different* value accepted at a position the
   rest of the system already executed — an (R1) violation. Such instances
   are closed: the stale proposer is refused and gives up (its client
   aborts or retries at a fresh position). *)
let compacted t ~group ~pos = pos <= Wal.compacted_position t.wal ~group

(* ------------------------------------------------------------------ *)
(* Quarantine of storage-damaged acceptor positions.                    *)

let suspect_table t ~group =
  match Hashtbl.find_opt t.suspect group with
  | Some tbl -> tbl
  | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.suspect group tbl;
      tbl

(* The quarantine set survives restarts in its own durable row — the
   scrub that detects damage also removes its evidence, so a second
   restart could not re-detect it from the paxos rows alone. *)
let quarantine_key group = "recover/" ^ group

let load_quarantine t ~group =
  match Store.read t.store ~key:(quarantine_key group) () with
  | None -> []
  | Some (_, attrs) -> List.filter_map (fun (k, _) -> int_of_string_opt k) attrs

let save_quarantine t ~group tbl =
  let key = quarantine_key group in
  if Hashtbl.length tbl = 0 then Store.delete t.store ~key
  else
    ignore
      (Store.write t.store ~key
         (Hashtbl.fold (fun pos () acc -> (string_of_int pos, "1") :: acc) tbl []));
  Store.sync t.store

(* True while the position must still be refused: its durable promise or
   claim may understate what this acceptor once said (a crash damaged the
   row), so answering Paxos from the reverted state could cast a second,
   conflicting vote. The position is re-entered only once its decided
   value is known — re-learned from peers, or checkpointed past — via the
   recovery ladder; the service never invents a value locally. *)
let quarantined t ~group ~pos =
  match Hashtbl.find_opt t.suspect group with
  | None -> false
  | Some tbl ->
      if not (Hashtbl.mem tbl pos) then false
      else
        let resolved () =
          Wal.entry t.wal ~group ~pos <> None
          || pos <= Wal.compacted_position t.wal ~group
        in
        let release () =
          Hashtbl.remove tbl pos;
          t.relearned <- t.relearned + 1;
          save_quarantine t ~group tbl;
          Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
            ~category:"recover" "re-entered quarantined position %d" pos;
          false
        in
        if resolved () then release ()
        else if Hashtbl.mem t.relearning (group, pos) then
          (* A ladder for this position is already in flight (this message
             may well be that ladder's own prepare echoed back). Refuse
             now; the running ladder will release the position. *)
          true
        else begin
          Hashtbl.add t.relearning (group, pos) ();
          Fun.protect
            ~finally:(fun () -> Hashtbl.remove t.relearning (group, pos))
            (fun () ->
              match Proposer.learn t.env ~group ~pos with
              | Some entry ->
                  t.learns <- t.learns + 1;
                  Wal.append t.wal ~group ~pos entry
              | None ->
                  (* Unlearnable: possibly compacted away everywhere. *)
                  ignore (fetch_snapshot t ~group ~at_least:pos));
          if resolved () then release () else true
        end

let handle t ~src:_ request =
  match request with
  | Messages.Get_read_position { group } ->
      let position = Wal.last_position t.wal ~group in
      Messages.Read_position
        { position; leader = leader_of_position t ~group ~pos:position }
  | Messages.Read { group; key; position } -> (
      match ensure_applied t ~group ~upto:position with
      | Ok () -> Messages.Value { value = Wal.read_data t.wal ~group ~key ~at:position }
      | Error pos ->
          Messages.Failed (Printf.sprintf "cannot learn log position %d" pos))
  | Messages.Prepare { group; pos; _ } when compacted t ~group ~pos ->
      Messages.Failed (Printf.sprintf "position %d compacted" pos)
  | Messages.Accept { group; pos; _ } when compacted t ~group ~pos ->
      Messages.Failed (Printf.sprintf "position %d compacted" pos)
  | Messages.Prepare { group; pos; _ } when quarantined t ~group ~pos ->
      Messages.Failed (Printf.sprintf "position %d recovering" pos)
  | Messages.Accept { group; pos; _ } when quarantined t ~group ~pos ->
      Messages.Failed (Printf.sprintf "position %d recovering" pos)
  | Messages.Prepare { group; pos; ballot } -> handle_prepare t ~group ~pos ~ballot
  | Messages.Accept { group; pos; ballot; entry; sequenced } ->
      (* The chaos trap fires on the first prepare marker that crosses
         this service — here, possibly before the entry is decided: the
         rawest point of the prepare→decide window. *)
      fire_2pc_trap t entry;
      handle_accept t ~group ~pos ~ballot ~entry ~sequenced
  | Messages.Apply { group; pos; entry } ->
      (* An apply at or below the compaction point is stale news: the
         entry's effects are already part of the checkpoint. Above it,
         [Wal.append] is idempotent — a duplicated or replayed apply for
         an already-recorded position is counted and absorbed, never
         applied twice (safety under duplicating links). *)
      if not (compacted t ~group ~pos) then begin
        if Wal.entry t.wal ~group ~pos <> None then
          t.dup_applies <- t.dup_applies + 1;
        Wal.append t.wal ~group ~pos entry;
        fire_2pc_trap t entry;
        (* Every replica tracks in-doubt prepares from the applies it
           sees, so resolution does not depend on the manager that
           admitted them surviving; the manager's own decided prepares
           arrive here too, through the proposer's synchronous local
           apply. Out-of-order or duplicated applies
           at or below the scan watermark are already absorbed (the
           scan is the authority; a late prepare must not resurrect a
           resolved transaction). *)
        if pos > scanned_2pc t ~group then
          List.iter (note_record_2pc t ~group ~pos) entry
      end;
      Messages.Applied
  | Messages.Claim_leadership { group; pos; _ } when compacted t ~group ~pos ->
      (* Compaction deleted this position's claim row, and the claim is a
         first-wins register that must never be granted twice (see
         [handle_claim]): answering from the now-blank row would re-grant
         round-0 rights at a decided position. A recovered replica whose
         log ends before the cluster's compaction point would then cast a
         unilateral round-0 self-vote whose ballot (0.dc) can outrank the
         original fast-path vote (0.dc') in a later prepare tally — and a
         prepare quorum that misses the surviving original voter would
         adopt the new value over the decided one (R1 violation; found by
         chaos seed 21: crash + compact). Refused, the claimant falls back
         to the full protocol, whose prepare quorum must intersect the
         original accept quorum in a non-compacted voter. *)
      Messages.Failed (Printf.sprintf "position %d compacted" pos)
  | Messages.Claim_leadership { group; pos; _ } when quarantined t ~group ~pos
    ->
      Messages.Failed (Printf.sprintf "position %d recovering" pos)
  | Messages.Claim_leadership { group; pos; claimant } ->
      handle_claim t ~group ~pos ~claimant
  | Messages.Submit { group; record } -> handle_submit t ~group record
  | Messages.Get_snapshot { group } ->
      let applied, rows = Wal.snapshot t.wal ~group in
      Messages.Snapshot_reply { applied; rows }

(* Groups present in the durable store, recovered from the row-key layout
   (restart cannot trust any volatile group list). *)
let durable_groups t =
  let groups = Hashtbl.create 8 in
  let note key prefix =
    if String.starts_with ~prefix key then begin
      let rest =
        String.sub key (String.length prefix)
          (String.length key - String.length prefix)
      in
      let group =
        match String.index_opt rest '/' with
        | Some i -> String.sub rest 0 i
        | None -> rest
      in
      if group <> "" then Hashtbl.replace groups group ()
    end
  in
  List.iter
    (fun key ->
      List.iter (note key)
        [ "logmeta/"; "log/"; "data/"; "paxos/"; "claim/"; "recover/" ])
    (Store.keys t.store);
  Hashtbl.fold (fun g () acc -> g :: acc) groups [] |> List.sort String.compare

(* Scrub the group's Paxos and claim rows; positions whose rows held
   checksum-invalid versions are the damage set — their durable state
   reverted to an older promise/grant and must not be voted from. *)
let recover_acceptors t ~group =
  let keys = keys_of t ~group in
  let dropped = ref 0 in
  let damaged = ref [] in
  let scan prefix key =
    if String.starts_with ~prefix key then begin
      let n = Store.scrub t.store ~key in
      if n > 0 then begin
        dropped := !dropped + n;
        match
          int_of_string_opt
            (String.sub key (String.length prefix)
               (String.length key - String.length prefix))
        with
        | Some pos -> damaged := pos :: !damaged
        | None -> ()
      end
    end
  in
  List.iter
    (fun key ->
      scan keys.paxos_prefix key;
      scan keys.claim_prefix key)
    (Store.keys t.store);
  (!dropped, List.sort_uniq Int.compare !damaged)

(* Restart the service processes of this datacenter: volatile state (the
   leadership-claim table, the manager's winning streak, its Submit queues
   and window, and the decoded WAL/acceptor caches) is lost; everything durable lives
   in the key-value store and survives — in particular Paxos promises and
   votes, which is why Algorithm 1 keeps them there. The caches are
   rebuilt lazily from the durable rows, which the chaos coherence oracle
   exercises.

   Before serving, the crash-consistency scan of PROTOCOL.md §7 runs for
   every durable group: torn (checksum-invalid) versions are scrubbed,
   the WAL re-derives its watermarks and lazily-applied data from the
   surviving log ({!Mdds_wal.Wal.recover}), and positions whose acceptor
   or claim rows were damaged are quarantined — re-entered only after
   re-learning from peers, never re-voted from the reverted state. *)
let restart t =
  Hashtbl.reset t.won;
  Hashtbl.reset t.acceptors;
  Hashtbl.reset t.suspect;
  Hashtbl.reset t.relearning;
  (* 2PC state is volatile and log-derived: drop it, orphan every
     resolver fiber (the epoch bump makes them exit at their next wake),
     and rebuild from the recovered log below. *)
  t.twopc_epoch <- t.twopc_epoch + 1;
  Hashtbl.reset t.twopc;
  Hashtbl.reset t.twopc_scanned;
  Hashtbl.reset t.twopc_resolving;
  t.trap_2pc <- None;
  (* Batchers are volatile: orphan every drainer and resolve every
     pending so the submit-handler fibers blocked in [await_pending]
     unwind instead of staying suspended for the rest of the run. The
     outcome must stay honest: a pending still sitting in the queues was
     never handed to a proposal and gets No_quorum; anything else in
     [bt_by_id] is attached to an in-flight proposal — a pipelined slot,
     or a [propose_sync] batch whose proposer fiber survives the restart
     and may yet drive it to a decision — so only In_doubt is truthful
     (answering No_quorum there was a real L1 violation: the surviving
     fiber committed the batch after the client was told it aborted;
     chaos seed 134, storm + torn-write). Clients treat both as a
     down-manager window (Unknown/retry); decided-but-unreported
     positions are recovered from the durable log like any other
     entry. The answered pendings stay in the stopped queues: the
     orphaned drainer re-checks [bt_stopped] right before every
     admission pass and never proposes from them. *)
  Hashtbl.iter
    (fun _ b ->
      b.bt_stopped <- true;
      let queued = Hashtbl.create 16 in
      Queue.iter
        (fun (p : pending) -> Hashtbl.replace queued p.p_record.Txn.txn_id ())
        b.bt_queue;
      Queue.iter
        (fun (p : pending) -> Hashtbl.replace queued p.p_record.Txn.txn_id ())
        b.bt_requeue;
      let orphans = Hashtbl.fold (fun _ p acc -> p :: acc) b.bt_by_id [] in
      List.iter
        (fun p ->
          resolve_pending b p
            (if
               p.p_exposed
               || not (Hashtbl.mem queued p.p_record.Txn.txn_id)
             then Messages.In_doubt
             else Messages.No_quorum))
        orphans;
      wake_batcher b)
    t.batchers;
  Hashtbl.reset t.batchers;
  Wal.invalidate t.wal;
  List.iter
    (fun group ->
      let r = Wal.recover t.wal ~group in
      ignore (Store.scrub t.store ~key:(quarantine_key group));
      let dropped, damaged = recover_acceptors t ~group in
      let repaired = r.Wal.scrubbed + dropped in
      t.scrubbed <- t.scrubbed + repaired;
      (* [reapplied] counts only entries the surviving watermark could not
         vouch for (the replay starts at the last synced applied point), so
         a positive count is genuine crash repair, not routine re-derivation. *)
      if repaired > 0 || r.Wal.truncated <> None || r.Wal.reapplied > 0 then begin
        t.recoveries <- t.recoveries + 1;
        Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
          ~category:"recover"
          "recovery scan for %s: %d torn versions scrubbed, %d entries \
           re-applied%s"
          group repaired r.Wal.reapplied
          (match r.Wal.truncated with
          | None -> ""
          | Some pos -> Printf.sprintf ", log truncated at %d" pos)
      end;
      let carried = load_quarantine t ~group in
      if damaged <> [] || carried <> [] then begin
        let tbl = suspect_table t ~group in
        List.iter (fun pos -> Hashtbl.replace tbl pos ()) damaged;
        List.iter (fun pos -> Hashtbl.replace tbl pos ()) carried;
        save_quarantine t ~group tbl;
        Mdds_sim.Trace.record t.env.Proposer.trace ~source:t.source
          ~category:"recover" "quarantined %d damaged positions in %s"
          (Hashtbl.length tbl) group
      end;
      (* Rebuild the in-doubt table from the recovered log; the scan
         re-arms a resolver for every prepare still lacking an outcome,
         so restart resolves in-doubt transactions by consulting the
         participant logs — never by inventing or forgetting an
         outcome. *)
      scan_2pc t ~group)
    (durable_groups t);
  Store.sync t.store

let acceptor_state t ~group ~pos = fst (load_acceptor t ~group ~pos)

let snapshots t = t.snapshots

let recovery_stats (t : t) =
  { recoveries = t.recoveries; scrubbed = t.scrubbed; relearned = t.relearned }

(* Checkpoint: discard the applied log prefix together with its Paxos
   acceptor state (a compacted position can never be proposed again, so
   the state is dead weight). The decoded acceptor cache is pruned with
   the rows it mirrors. *)
let compact t ~group ~upto =
  (* Never compact past an in-doubt prepare: the prepare record is what
     a restarted replica rebuilds its in-doubt table from, and what a
     resolver's outcome refers back to. Resolution is quick, so the
     clamp is short-lived. *)
  scan_2pc t ~group;
  let upto =
    Hashtbl.fold
      (fun _ ind acc -> min acc (ind.ind_pos - 1))
      (indoubt_table t ~group) upto
  in
  match Wal.compact t.wal ~group ~upto with
  | Error `Not_applied -> Error `Not_applied
  | Ok () ->
      let acceptors = acceptor_table t ~group in
      for pos = 1 to upto do
        Store.delete t.store ~key:(paxos_key t ~group ~pos);
        Store.delete t.store ~key:(claim_key t ~group ~pos);
        Hashtbl.remove acceptors pos
      done;
      (* The checkpoint's data rows must be durable before the acceptor
         state that could re-derive the prefix is gone for good. *)
      Store.sync t.store;
      Ok ()

(* ------------------------------------------------------------------ *)
(* Cache-coherence oracle: every decoded view this service keeps equals
   a fresh decode of its durable rows. Mutates nothing (checked by the
   chaos engine after each fault event). *)

let equal_vote a b =
  match (a, b) with
  | None, None -> true
  | Some (ba, va), Some (bb, vb) -> Ballot.equal ba bb && Txn.equal_entry va vb
  | _ -> false

let equal_acceptor_state (a : Txn.entry Acceptor.state)
    (b : Txn.entry Acceptor.state) =
  Ballot.equal a.next_bal b.next_bal && equal_vote a.vote b.vote

let acceptor_cache_coherent t ~group =
  (
      match Hashtbl.find_opt t.acceptors group with
      | None -> Ok ()
      | Some tbl ->
          Hashtbl.fold
            (fun pos (cached : acceptor_cached) acc ->
              match acc with
              | Error _ -> acc
              | Ok () ->
                  let fresh = load_acceptor_fresh t ~group ~pos in
                  if not (equal_acceptor_state cached.acc_state fresh.acc_state)
                  then
                    Error
                      (Printf.sprintf
                         "acceptor/%s/%d: cached state differs from durable \
                          decode"
                         group pos)
                  else if cached.acc_nb <> fresh.acc_nb then
                    Error
                      (Printf.sprintf
                         "acceptor/%s/%d: cached nextBal attribute %s, store %s"
                         group pos
                         (Option.value cached.acc_nb ~default:"<absent>")
                         (Option.value fresh.acc_nb ~default:"<absent>"))
                  else Ok ())
            tbl (Ok ()))

let cache_coherent t ~group =
  match Wal.coherence t.wal ~group with
  | Error _ as e -> e
  | Ok () -> (
      match Wal.durable_coherent t.wal ~group with
      | Error _ as e -> e
      | Ok () -> acceptor_cache_coherent t ~group)

let start ?(storage = Store.Sync_always) ~rpc ~config ~dc ~dcs ~trace () =
  let store = Store.create ~mode:storage () in
  let env =
    Proposer.make_env ~rpc ~config ~dc ~dcs
      ~rng:(Mdds_sim.Rng.split (Mdds_sim.Engine.rng (Rpc.engine rpc)))
      ~trace
  in
  let t =
    {
      dc;
      source = Printf.sprintf "svc.dc%d" dc;
      config;
      store;
      wal = Wal.create store;
      env;
      won = Hashtbl.create 8;
      acceptors = Hashtbl.create 4;
      group_keys = Hashtbl.create 4;
      suspect = Hashtbl.create 4;
      relearning = Hashtbl.create 4;
      learns = 0;
      snapshots = 0;
      recoveries = 0;
      scrubbed = 0;
      relearned = 0;
      dup_applies = 0;
      dup_claims = 0;
      dup_submits = 0;
      batchers = Hashtbl.create 4;
      batches = 0;
      batched_txns = 0;
      pipelined_rounds = 0;
      pipeline_stalls = 0;
      twopc = Hashtbl.create 4;
      twopc_scanned = Hashtbl.create 4;
      twopc_resolving = Hashtbl.create 8;
      twopc_epoch = 0;
      trap_2pc = None;
      twopc_prepares = 0;
      twopc_resolved = 0;
      in_doubt_replies = 0;
    }
  in
  Rpc.serve rpc ~node:dc ~processing:config.processing_delay (fun ~src request ->
      handle t ~src request);
  t
