module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Engine = Mdds_sim.Engine
module Trace = Mdds_sim.Trace
module Rpc = Mdds_net.Rpc
module Strtbl = Mdds_kvstore.Strtbl

type submit = group:string -> Txn.record -> Messages.submit_result

(* One prepared-but-undecided cross-group transaction (PROTOCOL.md §10),
   as derived from the group's log: a Prepare marker record without a
   later Outcome marker. Its footprint, the record's read set (reads ∪
   write keys, see {!Twopc.prepare_record}), excludes conflicting
   admissions until resolved; only a resolver decodes the payload. *)
type prepared = {
  record : Txn.record;  (* the prepare marker record *)
  pos : int;  (* its log position *)
}

(* One group's 2PC state, volatile: re-derived from the log by an
   incremental scan ({!scan}), dropped on restart and rebuilt. *)
type group = {
  prepared : prepared Strtbl.t;  (* the in-doubt table, by txid *)
  mutable scanned : int;
      (* Contiguous log prefix already absorbed into [prepared]; -1 until
         the first scan, when the compaction point stands in for it. *)
  mutable resolving : string list;  (* txids with a live resolver: few *)
}

type t = {
  env : Proposer.env;
  wal : Wal.t;
  catchup : Catchup.t;
  source : string;  (* the service's trace source *)
  groups : group Strtbl.t;  (* created on first use *)
  mutable epoch : int;
      (* Bumped by restart so orphaned resolver fibers exit quietly. *)
  mutable trap : (unit -> unit) option;
      (* One-shot chaos trap: fired when a prepare marker crosses this
         service (accept or apply) — the nemesis arms it to aim faults at
         the prepare→decide window. *)
  counters : Counters.t;
}

let create ~env ~wal ~catchup ~counters ~source =
  {
    env;
    wal;
    catchup;
    source;
    groups = Strtbl.create 4;
    epoch = 0;
    trap = None;
    counters;
  }

(* 2PC state is volatile and log-derived: restart drops every group record
   and orphans every resolver fiber (the epoch bump makes them exit at
   their next wake); the caller rebuilds it from the log with {!scan}. *)
let reset t =
  t.epoch <- t.epoch + 1;
  Strtbl.reset t.groups;
  t.trap <- None

let group_of t name =
  match Strtbl.find_opt t.groups name with
  | Some g -> g
  | None ->
      let g = { prepared = Strtbl.create 8; scanned = -1; resolving = [] } in
      Strtbl.replace t.groups name g;
      g

(* ------------------------------------------------------------------ *)
(* The conflict rule (PROTOCOL.md §10). A prepared-but-undecided
   footprint excludes every conflicting record until the transaction's
   outcome is logged — cross-group 1SR rests on the (prepare, outcome]
   window being exclusive in each participant group. The predicate is
   conservative (any footprint intersection blocks); outcome/decision
   records are exempt, since they are what resolves the window, and a
   prepare never blocks its own transaction. One predicate serves the
   in-doubt table and the not-yet-scanned entries alike. *)

let footprint_conflict ~footprint (r : Txn.record) =
  let mem key = Array.exists (String.equal key) footprint in
  Array.exists mem (Txn.read_keys r)
  || List.exists (fun (w : Txn.write) -> mem w.Txn.key) r.Txn.writes

(* The first [(txid, footprint)] that blocks [record], in order. *)
let blocker prepares (record : Txn.record) =
  let own =
    match Twopc.classify record with
    | Twopc.Outcome _ | Twopc.Decision _ -> None
    | Twopc.Prepare { txid } -> Some txid
    | Twopc.Plain -> Some ""
  in
  match own with
  | None -> None
  | Some own ->
      Seq.find_map
        (fun (txid, footprint) ->
          if String.equal txid own then None
          else if footprint_conflict ~footprint record then Some txid
          else None)
        prepares

let conflicts prepares record = blocker (List.to_seq prepares) record <> None

(* Prepares in log entries not yet absorbed into the table (decided or
   in-flight positions above the applied watermark), minus those an
   outcome among the same entries already released, in any order. One
   pass classifies each record once. *)
let unresolved entries =
  let prepares = ref [] and released = ref [] in
  List.iter
    (fun (_, entry) ->
      List.iter
        (fun r ->
          match Twopc.classify r with
          | Twopc.Prepare { txid } ->
              prepares := (txid, Txn.read_keys r) :: !prepares
          | Twopc.Outcome { txid; _ } -> released := txid :: !released
          | Twopc.Decision _ | Twopc.Plain -> ())
        entry)
    entries;
  match !released with
  | [] -> !prepares
  | released ->
      let set = Strtbl.create 8 in
      List.iter (fun txid -> Strtbl.replace set txid ()) released;
      List.filter (fun (txid, _) -> not (Strtbl.mem set txid)) !prepares

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

let rpc_timeout t = t.env.config.Config.rpc_timeout

(* Resolvers stagger by datacenter: one usually settles the transaction
   before the rest wake, and they then find it resolved and log
   nothing. *)
let first_delay t =
  (4.0 *. rpc_timeout t) +. (float_of_int t.env.dc *. rpc_timeout t)

let attempts = 100

let rec without txid = function
  | [] -> []
  | r :: rest -> if String.equal r txid then rest else r :: without txid rest

let rec note t ~submit ~group ~pos (r : Txn.record) =
  match Twopc.classify r with
  | Twopc.Prepare { txid } ->
      let g = group_of t group in
      if not (Strtbl.mem g.prepared txid) then begin
        Strtbl.replace g.prepared txid { record = r; pos };
        Counters.incr t.counters Twopc_prepares;
        watch t ~submit ~group txid
      end
  | Twopc.Outcome { txid; _ } -> Strtbl.remove (group_of t group).prepared txid
  | Twopc.Decision _ | Twopc.Plain -> ()

(* Incremental, contiguous scan of the group's log for 2PC markers: the
   in-doubt table is exactly "prepares without a later outcome" over the
   scanned prefix. Deliberately cheap when the feature is idle — each
   entry is classified once per service lifetime, and classification is
   one prefix test per record. *)
and scan t ~submit ~group =
  let g = group_of t group in
  let scanned = max g.scanned (Wal.compacted_position t.wal ~group) in
  let last = Wal.last_position t.wal ~group in
  let rec go pos =
    if pos > last then pos - 1
    else
      match Wal.entry t.wal ~group ~pos with
      | None -> pos - 1 (* gap: resume once it is learned *)
      | Some entry ->
          List.iter (note t ~submit ~group ~pos) entry;
          go (pos + 1)
  in
  g.scanned <- go (scanned + 1)

(* Authoritative check: refresh the table from the log first. The scan,
   not the table, is the truth — a late duplicated apply may have left a
   stale entry (see {!note_applied}). *)
and still_indoubt t ~submit ~group txid =
  ignore (Wal.apply_available t.wal ~group);
  scan t ~submit ~group;
  Strtbl.find_opt (group_of t group).prepared txid

and resolve t ~submit ~group txid prepared =
  let payload = Twopc.payload prepared.record in
  let coord = payload.Twopc.coordinator in
  let tag = "dc" ^ string_of_int t.env.dc in
  let drec =
    Twopc.decision_record ~txid ~tag ~origin:t.env.dc
      ~verdict:Twopc.abort_verdict
  in
  (* Any service can drive a record through a group's Paxos log — [submit]
     is the manager path run in-process, so resolution does not depend on
     reaching a remote manager. *)
  match submit ~group:coord drec with
  | Messages.Accepted_at dpos -> (
      match Catchup.ensure_applied t.catchup ~group:coord ~upto:dpos with
      | Error _ -> false
      | Ok () -> (
          let verdict =
            match
              Wal.read_data t.wal ~group:coord ~key:(Twopc.decision_key txid)
                ~at:dpos
            with
            | Some v -> v
            | None -> Twopc.abort_verdict (* unreachable: own marker applied *)
          in
          let orec =
            Twopc.outcome_record ~txid ~tag ~origin:t.env.dc
              ~prepare_position:prepared.pos ~verdict
              ~writes:payload.Twopc.writes
          in
          match submit ~group orec with
          | Messages.Accepted_at _ ->
              Strtbl.remove (group_of t group).prepared txid;
              Counters.incr t.counters Twopc_resolved;
              Trace.record t.env.trace ~source:t.source ~category:"2pc"
                "resolved in-doubt %s in %s: %s" txid group verdict;
              true
          | _ -> false))
  | _ -> false

(* Arm a resolver for [txid] unless one is already running. The fiber
   clears its mark in the record it set it in: after a restart that
   record is gone, and the mark of the resolver armed since stays. *)
and watch t ~submit ~group txid =
  let g = group_of t group in
  if not (List.mem txid g.resolving) then begin
    g.resolving <- txid :: g.resolving;
    let epoch = t.epoch in
    Engine.spawn (Rpc.engine t.env.rpc) (fun () ->
        Fun.protect
          ~finally:(fun () -> g.resolving <- without txid g.resolving)
          (fun () ->
            Engine.sleep (first_delay t);
            (* Bounded, RNG-free ladder: the run quiesces even if the
               transaction can never be resolved (permanent partition). *)
            let rec loop attempts =
              if attempts > 0 && t.epoch = epoch then
                match still_indoubt t ~submit ~group txid with
                | None -> ()
                | Some prepared ->
                    if not (resolve t ~submit ~group txid prepared) then begin
                      Engine.sleep (2.0 *. rpc_timeout t);
                      loop (attempts - 1)
                    end
            in
            loop attempts))
  end

(* Every replica tracks in-doubt prepares from the applies it sees, so
   resolution does not depend on the manager that admitted them
   surviving; the manager's own decided prepares arrive here too, through
   the proposer's synchronous local apply. Out-of-order or duplicated
   applies at or below the scan watermark are already absorbed (the scan
   is the authority; a late prepare must not resurrect a resolved
   transaction). *)
let note_applied t ~submit ~group ~pos entry =
  let scanned =
    match Strtbl.find_opt t.groups group with
    | Some g when g.scanned >= 0 -> g.scanned
    | _ -> Wal.compacted_position t.wal ~group
  in
  if pos > scanned then List.iter (note t ~submit ~group ~pos) entry

(* Admission blocking against the table. A refusal re-arms the resolver
   for the blocking transaction, so a dead coordinator cannot wedge a key
   range forever. *)
let blocked t ~submit ~group record =
  let blocker =
    match Strtbl.find_opt t.groups group with
    | None -> None
    | Some g when Strtbl.length g.prepared = 0 -> None
    | Some g ->
        blocker
          (Seq.map
             (fun (txid, p) -> (txid, Txn.read_keys p.record))
             (Strtbl.to_seq g.prepared))
          record
  in
  Option.iter (watch t ~submit ~group) blocker;
  blocker <> None

(* Never compact past an in-doubt prepare: the prepare record is what a
   restarted replica rebuilds its in-doubt table from, and what a
   resolver's outcome refers back to. Resolution is quick, so the clamp
   is short-lived. *)
let compaction_bound t ~submit ~group ~upto =
  scan t ~submit ~group;
  Strtbl.fold (fun _ p acc -> min acc (p.pos - 1)) (group_of t group).prepared upto

let arm_trap t f = t.trap <- Some f

let fire_trap t entry =
  match t.trap with
  | None -> ()
  | Some f ->
      if
        List.exists
          (fun r ->
            match Twopc.classify r with Twopc.Prepare _ -> true | _ -> false)
          entry
      then begin
        t.trap <- None;
        Engine.spawn (Rpc.engine t.env.rpc) f
      end
