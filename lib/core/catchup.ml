module Store = Mdds_kvstore.Store
module Row = Mdds_kvstore.Row
module Wal = Mdds_wal.Wal
module Rpc = Mdds_net.Rpc
module Trace = Mdds_sim.Trace
module Strtbl = Mdds_kvstore.Strtbl

(* One group's quarantine, created by the crash scan that finds damage. *)
type group = {
  suspect : (int, unit) Hashtbl.t;
      (* Positions whose durable acceptor/claim state was damaged by a
         crash (checksum-invalid versions scrubbed at restart). The
         service must not vote at these from its reverted state — that
         would be the claim-registry double-vote bug (DESIGN.md §8) at the
         storage level — so they are quarantined until re-learned from
         peers. *)
  relearning : (int, unit) Hashtbl.t;
      (* Quarantined positions whose re-learn ladder is currently running.
         The learner's own prepare broadcast reaches this service too; if
         that re-entrant message started another ladder, each round would
         spawn a new learner and the recursion would never bottom out
         while peers are unreachable. Re-entrant messages for a position
         already being re-learned are refused immediately instead. *)
}

type t = {
  env : Proposer.env;
  store : Store.t;
  wal : Wal.t;
  acceptors : Acceptor_store.t;
  source : string;  (* the service's trace source *)
  groups : group Strtbl.t;  (* only groups with a quarantine *)
  counters : Counters.t;
}

let create ~env ~store ~wal ~acceptors ~counters ~source =
  {
    env;
    store;
    wal;
    acceptors;
    source;
    groups = Strtbl.create 4;
    counters;
  }

let reset t = Strtbl.reset t.groups

(* ------------------------------------------------------------------ *)
(* Log catch-up (§4.1 Fault Tolerance and Recovery).                   *)

(* Catch-up past a compaction point: the entries cannot be learned through
   Paxos any more (peers discarded them and their acceptor state), so fetch
   a peer's applied data state instead. *)
let fetch_snapshot t ~group ~at_least =
  let env = t.env in
  let peers = List.filter (fun d -> d <> env.dc) env.dcs in
  let rec try_peers = function
    | [] -> false
    | peer :: rest -> (
        match
          Rpc.call env.rpc ~src:env.dc ~dst:peer
            ~timeout:env.config.Config.rpc_timeout
            (Messages.Get_snapshot { group })
        with
        | Some (Messages.Snapshot_reply { applied; rows })
          when applied >= at_least ->
            Wal.install_snapshot t.wal ~group ~applied rows;
            Counters.incr t.counters Snapshots;
            Trace.record env.trace ~source:t.source ~category:"snapshot"
              "installed snapshot from dc%d (applied=%d, %d rows)" peer applied
              (List.length rows);
            true
        | _ -> try_peers rest)
  in
  try_peers peers

type fill = Learned | Installed | Unfilled

(* Fill one missing position: learn its decided entry from the acceptors,
   or install a peer snapshot that covers it. The learner stops at the
   first prepare round a majority refuses as compacted, so a position
   compacted away goes straight to the snapshot; one it could not learn
   for want of a quorum tries the snapshot too. *)
let fill t ~group ~pos =
  match Proposer.learn t.env ~group ~pos with
  | Ok entry ->
      Counters.incr t.counters Learns;
      Trace.record t.env.trace ~source:t.source ~category:"learn"
        "learned entry for pos %d" pos;
      Wal.append t.wal ~group ~pos entry;
      Learned
  | Error (`Compacted | `Unavailable) ->
      if fetch_snapshot t ~group ~at_least:pos then Installed else Unfilled

let ensure_applied t ~group ~upto =
  let rec go attempts =
    match Wal.apply t.wal ~group ~upto with
    | Ok () -> Ok ()
    | Error (`Gap pos) -> (
        if attempts <= 0 then Error pos
        else
          match fill t ~group ~pos with
          | Learned -> go attempts
          | Installed -> go (attempts - 1)
          | Unfilled -> Error pos)
  in
  go 3

(* ------------------------------------------------------------------ *)
(* Quarantine of storage-damaged acceptor positions.                    *)

(* The quarantine set survives restarts in its own durable row — the
   scrub that detects damage also removes its evidence, so a second
   restart could not re-detect it from the paxos rows alone. *)
let quarantine_key group = "recover/" ^ group

let load_quarantine t ~group =
  match Store.read t.store ~key:(quarantine_key group) () with
  | None -> []
  | Some (_, attrs) ->
      List.filter_map (fun (k, _) -> int_of_string_opt k) (Row.bindings attrs)

let save_quarantine t ~group tbl =
  let key = quarantine_key group in
  if Hashtbl.length tbl = 0 then Store.delete t.store ~key
  else
    ignore
      (Store.write t.store ~key
         (Hashtbl.fold
            (fun pos () acc -> (string_of_int pos, "1") :: acc)
            tbl []));
  Store.sync t.store

let suspect t ~group ~pos =
  match Strtbl.find_opt t.groups group with
  | None -> false
  | Some g -> Hashtbl.mem g.suspect pos

(* True while the position must still be refused: its durable promise or
   claim may understate what this acceptor once said (a crash damaged the
   row), so answering Paxos from the reverted state could cast a second,
   conflicting vote. The position is re-entered only once its decided
   value is known — re-learned from peers, or checkpointed past — via the
   recovery ladder; the service never invents a value locally. *)
let quarantined t ~group ~pos =
  match Strtbl.find_opt t.groups group with
  | None -> false
  | Some g ->
      if not (Hashtbl.mem g.suspect pos) then false
      else
        let resolved () =
          Wal.entry t.wal ~group ~pos <> None
          || pos <= Wal.compacted_position t.wal ~group
        in
        let release () =
          Hashtbl.remove g.suspect pos;
          Counters.incr t.counters Relearned;
          save_quarantine t ~group g.suspect;
          Trace.record t.env.trace ~source:t.source ~category:"recover"
            "re-entered quarantined position %d" pos;
          false
        in
        if resolved () then release ()
        else if Hashtbl.mem g.relearning pos then
          (* A ladder for this position is already in flight (this message
             may well be that ladder's own prepare echoed back). Refuse
             now; the running ladder will release the position. *)
          true
        else begin
          Hashtbl.add g.relearning pos ();
          Fun.protect
            ~finally:(fun () -> Hashtbl.remove g.relearning pos)
            (fun () -> ignore (fill t ~group ~pos));
          if resolved () then release () else true
        end

(* The crash-consistency scan of PROTOCOL.md §7 for one group: torn
   (checksum-invalid) versions are scrubbed, the WAL re-derives its
   watermarks and lazily-applied data from the surviving log
   ({!Mdds_wal.Wal.recover}), and positions whose acceptor or claim rows
   were damaged join the durable quarantine set. *)
let recover t ~group =
  let r = Wal.recover t.wal ~group in
  ignore (Store.scrub t.store ~key:(quarantine_key group));
  let dropped, damaged = Acceptor_store.scrub t.acceptors ~group in
  let repaired = r.Wal.scrubbed + dropped in
  (* [reapplied] counts only entries the surviving watermark could not
     vouch for (the replay starts at the last synced applied point), so
     a positive count is genuine crash repair, not routine re-derivation. *)
  let damaging =
    repaired > 0 || r.Wal.truncated <> None || r.Wal.reapplied > 0
  in
  Counters.add t.counters Scrubbed repaired;
  if damaging then begin
    Counters.incr t.counters Recoveries;
    Trace.record t.env.trace ~source:t.source ~category:"recover"
      "recovery scan for %s: %d torn versions scrubbed, %d entries \
       re-applied%s"
      group repaired r.Wal.reapplied
      (match r.Wal.truncated with
      | None -> ""
      | Some pos -> Printf.sprintf ", log truncated at %d" pos)
  end;
  let carried = load_quarantine t ~group in
  if damaged <> [] || carried <> [] then begin
    let g =
      match Strtbl.find_opt t.groups group with
      | Some g -> g
      | None ->
          let g =
            { suspect = Hashtbl.create 8; relearning = Hashtbl.create 4 }
          in
          Strtbl.replace t.groups group g;
          g
    in
    List.iter (fun pos -> Hashtbl.replace g.suspect pos ()) damaged;
    List.iter (fun pos -> Hashtbl.replace g.suspect pos ()) carried;
    save_quarantine t ~group g.suspect;
    Trace.record t.env.trace ~source:t.source ~category:"recover"
      "quarantined %d damaged positions in %s" (Hashtbl.length g.suspect) group
  end
