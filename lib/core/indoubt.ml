module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Engine = Mdds_sim.Engine
module Trace = Mdds_sim.Trace
module Rpc = Mdds_net.Rpc

type submit = group:string -> Txn.record -> Messages.submit_result

(* One prepared-but-undecided cross-group transaction (PROTOCOL.md §10),
   as derived from the group's log: a Prepare marker record without a
   later Outcome marker. Its footprint excludes conflicting admissions
   until resolved. *)
type indoubt = {
  footprint : string array;
      (* The prepare record's read set — reads ∪ write keys by
         construction (see {!Twopc.prepare_record}). *)
  payload : Twopc.payload;
  pos : int;  (* log position of the prepare *)
}

type t = {
  env : Proposer.env;
  wal : Wal.t;
  catchup : Catchup.t;
  source : string;  (* the service's trace source *)
  tables : (string, (string, indoubt) Hashtbl.t) Hashtbl.t;
      (* In-doubt table per group, volatile: re-derived from the log by
         an incremental scan ({!scan}); reset and rebuilt on restart.
         Never allocated into when no cross-group transactions run. *)
  scanned : (string, int) Hashtbl.t;
      (* Contiguous log prefix already absorbed into the in-doubt table. *)
  resolving : (string * string, unit) Hashtbl.t;
      (* (group, txid) pairs with a live resolver fiber (spawn dedup). *)
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
    tables = Hashtbl.create 4;
    scanned = Hashtbl.create 4;
    resolving = Hashtbl.create 8;
    epoch = 0;
    trap = None;
    counters;
  }

(* 2PC state is volatile and log-derived: restart drops it and orphans
   every resolver fiber (the epoch bump makes them exit at their next
   wake); the caller rebuilds it from the recovered log with {!scan}. *)
let reset t =
  t.epoch <- t.epoch + 1;
  Hashtbl.reset t.tables;
  Hashtbl.reset t.scanned;
  Hashtbl.reset t.resolving;
  t.trap <- None

let table t ~group = Tbl.find_or_add t.tables group (fun () -> Hashtbl.create 8)

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
   outcome among the same entries already released. *)
let unresolved entries =
  let markers f = List.concat_map (fun (_, entry) -> List.filter_map f entry) in
  let released =
    markers
      (fun r ->
        match Twopc.classify r with
        | Twopc.Outcome { txid; _ } -> Some txid
        | _ -> None)
      entries
  in
  markers
    (fun r ->
      match Twopc.classify r with
      | Twopc.Prepare { txid } when not (List.mem txid released) ->
          Some (txid, Txn.read_keys r)
      | _ -> None)
    entries

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

let scanned_upto t ~group =
  match Hashtbl.find_opt t.scanned group with
  | Some p -> p
  | None -> Wal.compacted_position t.wal ~group

let rec note t ~submit ~group ~pos (r : Txn.record) =
  match Twopc.classify r with
  | Twopc.Prepare { txid } ->
      let tbl = table t ~group in
      if not (Hashtbl.mem tbl txid) then begin
        Hashtbl.replace tbl txid
          { footprint = Txn.read_keys r; payload = Twopc.payload r; pos };
        Counters.incr t.counters Twopc_prepares;
        watch t ~submit ~group txid
      end
  | Twopc.Outcome { txid; _ } -> Hashtbl.remove (table t ~group) txid
  | Twopc.Decision _ | Twopc.Plain -> ()

(* Incremental, contiguous scan of the group's log for 2PC markers: the
   in-doubt table is exactly "prepares without a later outcome" over the
   scanned prefix. Deliberately cheap when the feature is idle — each
   entry is classified once per service lifetime, and classification is
   one prefix test per record. *)
and scan t ~submit ~group =
  let scanned =
    max (scanned_upto t ~group) (Wal.compacted_position t.wal ~group)
  in
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
  Hashtbl.replace t.scanned group (go (scanned + 1))

(* Authoritative check: refresh the table from the log first. The scan,
   not the table, is the truth — a late duplicated apply may have left a
   stale entry (see {!note_applied}). *)
and still_indoubt t ~submit ~group txid =
  ignore (Wal.apply_available t.wal ~group);
  scan t ~submit ~group;
  match Hashtbl.find_opt t.tables group with
  | None -> None
  | Some tbl -> Hashtbl.find_opt tbl txid

and resolve t ~submit ~group txid ind =
  let coord = ind.payload.Twopc.coordinator in
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
              ~prepare_position:ind.pos ~verdict
              ~writes:ind.payload.Twopc.writes
          in
          match submit ~group orec with
          | Messages.Accepted_at _ ->
              Hashtbl.remove (table t ~group) txid;
              Counters.incr t.counters Twopc_resolved;
              Trace.record t.env.trace ~source:t.source ~category:"2pc"
                "resolved in-doubt %s in %s: %s" txid group verdict;
              true
          | _ -> false))
  | _ -> false

(* Arm a resolver for [txid] unless one is already running. *)
and watch t ~submit ~group txid =
  let key = (group, txid) in
  if not (Hashtbl.mem t.resolving key) then begin
    Hashtbl.add t.resolving key ();
    let epoch = t.epoch in
    Engine.spawn (Rpc.engine t.env.rpc) (fun () ->
        Fun.protect
          ~finally:(fun () -> Hashtbl.remove t.resolving key)
          (fun () ->
            Engine.sleep (first_delay t);
            (* Bounded, RNG-free ladder: the run quiesces even if the
               transaction can never be resolved (permanent partition). *)
            let rec loop attempts =
              if attempts > 0 && t.epoch = epoch then
                match still_indoubt t ~submit ~group txid with
                | None -> ()
                | Some ind ->
                    if not (resolve t ~submit ~group txid ind) then begin
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
  if pos > scanned_upto t ~group then
    List.iter (note t ~submit ~group ~pos) entry

(* Admission blocking against the table. A refusal re-arms the resolver
   for the blocking transaction, so a dead coordinator cannot wedge a key
   range forever. *)
let blocked t ~submit ~group record =
  let blocker =
    match Hashtbl.find_opt t.tables group with
    | None -> None
    | Some tbl when Hashtbl.length tbl = 0 -> None
    | Some tbl ->
        blocker
          (Seq.map
             (fun (txid, ind) -> (txid, ind.footprint))
             (Hashtbl.to_seq tbl))
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
  Hashtbl.fold (fun _ ind acc -> min acc (ind.pos - 1)) (table t ~group) upto

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
