module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Engine = Mdds_sim.Engine
module Rpc = Mdds_net.Rpc

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
         sequenced accept so acceptors can match the predecessor (see
         {!Acceptor_store.accept}). Kept here because the predecessor's
         slot may already have completed and left the window. Invariant:
         [bt_window <> []] implies [bt_prev = Some _]. *)
  mutable bt_running : bool;  (* drainer fiber alive *)
  mutable bt_wake : (unit -> unit) option;  (* drainer's parked wakeup *)
  mutable bt_stopped : bool;  (* set by restart; orphaned drainer exits *)
}

type t = {
  env : Proposer.env;
  wal : Wal.t;
  catchup : Catchup.t;
  indoubt : Indoubt.t;
  won : (string, int) Hashtbl.t;  (* last position this manager decided *)
  batchers : (string, batcher) Hashtbl.t;
      (* Per-group pending queue + pipelined window: every Submit, from
         clients and from the 2PC resolvers, runs through one. *)
  counters : Counters.t;
}

let create ~env ~wal ~catchup ~indoubt ~counters =
  {
    env;
    wal;
    catchup;
    indoubt;
    won = Hashtbl.create 8;
    batchers = Hashtbl.create 4;
    counters;
  }

(* A duplicated or replayed submission (duplicating link, client retry)
   must not be sequenced a second time — the same transaction at two
   positions is an L2 violation (found by gray-failure chaos seed 2:
   dup-storm under the leader protocol). The log is the durable record of
   what was already sequenced: answer from it. A committed record always
   sits above its read position (positions up to it were decided when it
   was built), so the search starts there; the WAL's transaction id index
   answers it without walking the log. *)
let logged_at t ~group ~upto (r : Txn.record) =
  Wal.logged_at t.wal ~group ~txn_id:r.Txn.txn_id
    ~from:(r.Txn.read_position + 1) ~upto

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
  Tbl.find_or_add t.batchers group (fun () ->
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
      })

let wake_batcher b =
  match b.bt_wake with
  | Some w ->
      b.bt_wake <- None;
      w ()
  | None -> ()

(* Park the drainer until a slot completes or a submission arrives. *)
let wait_batcher b =
  Engine.suspend (fun wake -> b.bt_wake <- Some wake)

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
    Engine.suspend (fun wake -> p.p_wakers <- wake :: p.p_wakers);
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
   batch. Replayed submissions are answered from the log ({!logged_at});
   stale reads are checked against the applied state *plus* every
   not-yet-applied entry above the watermark — in-flight window slots
   included, since their writes are ahead of any position this batch can
   get; and the combination invariant (no record reads a key an earlier
   batch member writes) is enforced with {!Txn.Write_union}. An
   admitted prepare's footprint is in doubt from its own position on
   (PROTOCOL.md §10), so later members it conflicts with are held back
   too — the write-union cannot see that, since a prepare writes only its
   marker. A record failing only these intra-batch rules is deferred to a
   later position, not aborted — exactly the outcome it would get
   submitting alone. *)
let build_batch (t : t) ~submit b =
  let group = b.bt_group in
  let wal_last = Wal.last_position t.wal ~group in
  let watermark = Wal.apply_available t.wal ~group in
  Indoubt.scan t.indoubt ~submit ~group;
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
  let unscanned = Indoubt.unresolved overhang in
  let union = Txn.Write_union.create () in
  let prepares = ref [] in
  let batch = ref [] in
  let size = ref 0 in
  let deferred = ref [] in
  let exception Full in
  (try
     let rec admit () =
       if !size >= t.env.config.Config.batch_max then raise Full;
       match take_pending b with
       | None -> ()
       | Some p ->
           let r = p.p_record in
           (match logged_at t ~group ~upto:wal_last r with
           | Some pos ->
               Counters.incr t.counters Dup_submits;
               resolve_pending b p (Messages.Accepted_at pos)
           | None ->
               let stale =
                 Indoubt.blocked t.indoubt ~submit ~group r
                 || Indoubt.conflicts unscanned r
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
                 || Indoubt.conflicts !prepares r
               then deferred := p :: !deferred
               else begin
                 Txn.Write_union.add union r;
                 (match Twopc.classify r with
                 | Twopc.Prepare { txid } ->
                     prepares := (txid, Txn.read_keys r) :: !prepares
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
  | Proposer.Compacted, _ ->
      (* This replica's log ended below a position a majority has decided
         and compacted: install a peer's snapshot past it, and the batch
         lost the position, so the next one starts after the snapshot. *)
      ignore (Catchup.fetch_snapshot t.catchup ~group ~at_least:pos);
      deliver_decided b ~pos [] batch
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
let resolve_window (t : t) ~submit b =
  Counters.incr t.counters Pipeline_stalls;
  let group = b.bt_group in
  let slots =
    List.sort (fun a b -> Int.compare a.sl_pos b.sl_pos) b.bt_window
  in
  b.bt_window <- [];
  let prefix_ok = ref true in
  let unavailable = ref false in
  List.iter
    (fun slot ->
      match slot.sl_state with
      | Sl_won -> () (* completed concurrently; outcomes already delivered *)
      | Sl_pending | Sl_failed ->
          (* No quorum below this position: everything above is exposed
             and unknowable, like any post-accept give-up. *)
          let in_doubt () =
            List.iter (fun p -> resolve_pending b p Messages.In_doubt)
              slot.sl_pendings
          in
          if !unavailable then in_doubt ()
          else begin
            ignore
              (Catchup.ensure_applied t.catchup ~group ~upto:(slot.sl_pos - 1));
            let fast_ballot = Ballot.fast ~proposer:t.env.dc in
            (* The same admission rules against what actually got decided,
               in-doubt footprints included. *)
            let revalidated () =
              let watermark = Wal.apply_available t.wal ~group in
              Indoubt.scan t.indoubt ~submit ~group;
              let union = Txn.Write_union.create () in
              List.filter
                (fun (r : Txn.record) ->
                  let ok =
                    (not (Indoubt.blocked t.indoubt ~submit ~group r))
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
              let own bv e =
                Ballot.equal bv fast_ballot && Txn.equal_entry e slot.sl_entry
              in
              match Mdds_paxos.Tally.highest ~skip:own votes with
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
            | Proposer.Compacted, _ ->
                (* A majority compacted past this position: install a
                   peer's snapshot, as [propose_sync] does, or the next
                   drain reopens the same position. The pendings stay in
                   doubt: our round-0 vote there may have been chosen. *)
                ignore
                  (Catchup.fetch_snapshot t.catchup ~group ~at_least:slot.sl_pos);
                unavailable := true;
                in_doubt ()
            | Proposer.Unavailable, _ ->
                unavailable := true;
                in_doubt ()
          end)
    slots

(* Completed slots leave the window as soon as their outcome is delivered;
   their entries are in the WAL (synchronous local apply in [run_fast]) and
   keep feeding admission's overhang checks. True if a failed slot is left,
   which must be resolved before any new position opens. *)
let settle b =
  b.bt_window <- List.filter (fun s -> s.sl_state <> Sl_won) b.bt_window;
  List.exists (fun s -> s.sl_state = Sl_failed) b.bt_window

let rec drain (t : t) ~submit b =
  let config = t.env.config in
  if b.bt_stopped then b.bt_running <- false
  else begin
    if settle b then begin
      resolve_window t ~submit b;
      drain t ~submit b
    end
    else begin
      let inflight = List.length b.bt_window in
      let queued = Queue.length b.bt_queue + Queue.length b.bt_requeue in
      if queued = 0 && inflight = 0 then b.bt_running <- false
      else if queued = 0 || inflight >= config.Config.pipeline_depth then begin
        wait_batcher b;
        drain t ~submit b
      end
      else begin
        (* Fill-or-timeout: unless a whole batch is already waiting, hold
           the batch open for [batch_fill] — submissions arriving during
           the sleep join it. A long window amortizes one consensus round
           over everything admitted in it (PROTOCOL.md §9). *)
        if
          config.batch_max > 1 && queued < config.batch_max
          && config.batch_fill > 0.
        then Engine.sleep config.batch_fill;
        launch t ~submit b;
        drain t ~submit b
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
and launch (t : t) ~submit b =
  let group = b.bt_group in
  (* Slots may have completed (or failed) during the fill wait: re-settle
     the window first. Launching over an unresolved gap through the full
     protocol would decide a position whose admission checks assumed a
     prefix that may never commit. *)
  if b.bt_stopped || settle b then ()
  else begin
    (* Only catch up through the learner when nothing of ours is in
       flight — learning one of our own open positions would race this
       manager against itself (a round-1 prepare killing its own
       round-0 accepts). *)
    let caught_up =
      b.bt_window <> []
      || Result.is_ok
           (Catchup.ensure_applied t.catchup ~group
              ~upto:(Wal.last_position t.wal ~group))
    in
    if b.bt_stopped then ()
    else if not caught_up then
      (* An unlearnable gap below the head: admission cannot check a
         record against entries it cannot see, so the next batch's worth
         of submissions gives up instead of being proposed. *)
      for _ = 1 to t.env.config.Config.batch_max do
        Option.iter (give_up b) (take_pending b)
      done
    else begin
      let batch = build_batch t ~submit b in
      if batch <> [] then begin
        let entry = List.map (fun p -> p.p_record) batch in
        assert (Txn.valid_combination entry);
        let pos =
          if b.bt_window = [] then Wal.last_position t.wal ~group + 1
          else b.bt_next_pos
        in
        b.bt_next_pos <- pos + 1;
        Counters.incr t.counters Batches;
        Counters.add t.counters Batched_txns (List.length entry);
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
          if sequenced <> None then Counters.incr t.counters Pipelined_rounds;
          List.iter (fun p -> p.p_exposed <- true) batch;
          Engine.spawn (Rpc.engine t.env.rpc) (fun () ->
              let ok = Proposer.run_fast t.env ~group ~pos ~sequenced entry in
              (match slot.sl_state with
              | Sl_pending -> slot.sl_state <- (if ok then Sl_won else Sl_failed)
              | Sl_won | Sl_failed -> ());
              if ok && not b.bt_stopped then begin
                (* Out-of-order success is safe to report: a sequenced quorum
                   at this position proves every earlier open position is
                   chosen with this manager's entry (see
                   {!Acceptor_store.accept}). *)
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

let rec submit t ~group (record : Txn.record) =
  let b = batcher t ~group in
  let p =
    match Hashtbl.find_opt b.bt_by_id record.Txn.txn_id with
    | Some p ->
        (* Duplicate Submit while the original is queued or in flight
           (duplicating link, or a client retrying into the same manager):
           attach as an extra waiter; the one resolution answers both. *)
        Counters.incr t.counters Dup_submits;
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
          Engine.spawn (Rpc.engine t.env.rpc) (fun () ->
              drain t ~submit:(submit t) b)
        end
        else wake_batcher b;
        p
  in
  let result = await_pending p in
  if result = Messages.In_doubt then Counters.incr t.counters In_doubt_replies;
  result

(* Batchers are volatile: orphan every drainer and resolve every pending
   so the submit-handler fibers blocked in [await_pending] unwind instead
   of staying suspended for the rest of the run. The outcome must stay
   honest: a pending still sitting in the queues was never handed to a
   proposal and gets No_quorum; anything else in [bt_by_id] is attached
   to an in-flight proposal — a pipelined slot, or a [propose_sync] batch
   whose proposer fiber survives the restart and may yet drive it to a
   decision — so only In_doubt is truthful (answering No_quorum there was
   a real L1 violation: the surviving fiber committed the batch after the
   client was told it aborted; chaos seed 134, storm + torn-write).
   Clients treat both as a down-manager window (Unknown/retry);
   decided-but-unreported positions are recovered from the durable log
   like any other entry. The answered pendings stay in the stopped
   queues: the orphaned drainer re-checks [bt_stopped] right before every
   admission pass and never proposes from them. *)
let restart t =
  Hashtbl.reset t.won;
  Hashtbl.iter
    (fun _ b ->
      b.bt_stopped <- true;
      let queued = Hashtbl.create 16 in
      let note p = Hashtbl.replace queued p.p_record.Txn.txn_id () in
      Queue.iter note b.bt_queue;
      Queue.iter note b.bt_requeue;
      let orphans = Hashtbl.fold (fun _ p acc -> p :: acc) b.bt_by_id [] in
      List.iter
        (fun p ->
          resolve_pending b p
            (if p.p_exposed || not (Hashtbl.mem queued p.p_record.Txn.txn_id)
             then Messages.In_doubt
             else Messages.No_quorum))
        orphans;
      wake_batcher b)
    t.batchers;
  Hashtbl.reset t.batchers
