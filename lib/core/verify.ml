module Checker = Mdds_serial.Checker
module Strtbl = Mdds_kvstore.Strtbl
module Txn = Mdds_types.Txn

(* Merge an archived log (entries captured before compaction discarded
   them) with the live union log: one linear merge of two position-sorted
   lists. An archived entry must agree with any surviving live entry at
   the same position — (R1) extended across time. An archive out of
   position order, or holding a position twice, is refused rather than
   merged into a log the checkers would misread. *)
let merge_archive ~archive live =
  let rec merge merged prev archive live =
    match (archive, live) with
    | [], rest -> Ok (List.rev_append merged rest)
    | (apos, _) :: _, _ when apos <= prev ->
        Error
          (Printf.sprintf
             "archive: position %d after position %d (positions must increase)"
             apos prev)
    | ((apos, _) as a) :: arest, [] -> merge (a :: merged) apos arest []
    | ((apos, aentry) as a) :: arest, ((lpos, lentry) as l) :: lrest ->
        if apos < lpos then merge (a :: merged) apos arest live
        else if lpos < apos then merge (l :: merged) prev archive lrest
        else if Txn.equal_entry lentry aentry then
          merge (l :: merged) apos arest lrest
        else
          Error
            (Printf.sprintf
               "R1: archived entry for position %d differs from the live log"
               apos)
  in
  match archive with [] -> Ok live | _ -> merge [] min_int archive live

(* Mirror the WAL's write-once rule (PROTOCOL.md §10) before handing the
   log to the serial checkers: a 2PC marker record whose marker key was
   already written by an earlier record (log order, then entry order)
   applied nothing — first decision/outcome wins, duplicates are inert —
   so the checkers must not count its writes either. [dropped] sees each
   inert record. Every entry without an inert record is shared, not
   copied, and a log without marker records (every single-group run) is
   returned as it is. *)
let effective_log ?(dropped = ignore) log =
  let seen = Strtbl.create 16 in
  (* Marker records carry the marker as their first write. *)
  let inert (r : Txn.record) =
    match r.Txn.writes with
    | w :: _ when Twopc.is_marker r ->
        Strtbl.mem seen w.Txn.key || (Strtbl.add seen w.Txn.key (); false)
    | _ -> false
  in
  let rec effective = function
    | [] -> []
    | r :: rest as entry ->
        if inert r then begin
          dropped r;
          effective rest
        end
        else
          let kept = effective rest in
          if kept == rest then entry else r :: kept
  in
  if not (List.exists (fun (_, entry) -> List.exists Twopc.is_marker entry) log)
  then log
  else
    List.map
      (fun ((pos, entry) as slot) ->
        let kept = effective entry in
        if kept == entry then slot else (pos, kept))
      log

let describe (v : Checker.violation) =
  Format.asprintf "%s: %a" v.property Checker.pp_violation v

(* [found], else [result]'s violation. *)
let first found result =
  match (found, result) with
  | Some _, _ | None, Ok () -> found
  | None, Error v -> Some v

let check ?(archive = []) cluster ~group =
  let ( let* ) = Result.bind in
  let* log = Cluster.agreed_log cluster ~group in
  let* log = merge_archive ~archive log in
  let* positions = Result.map_error describe (Checker.positions log) in
  (* L1 asks where the effective log holds a transaction. L2 holds, so an
     inert record's id is nowhere else in it. *)
  let log =
    effective_log ~dropped:(fun r -> Hashtbl.remove positions r.Txn.txn_id) log
  in
  (* One pass over the group's audit events, newest first: L1 reports the
     newest dishonest commit, else the newest dishonest abort; a
     transaction's observed values are those of its newest event; the
     readers come out in completion order. *)
  let observed = Hashtbl.create 256 in
  let committed, aborted, readers =
    List.fold_left
      (fun ((committed, aborted, readers) as acc) (e : Audit.event) ->
        if not (String.equal e.group group) then acc
        else begin
          let txn_id = e.record.txn_id in
          if not (Hashtbl.mem observed txn_id) then
            Hashtbl.add observed txn_id e.observed;
          match e.outcome with
          | Audit.Committed { position; _ } ->
              ( first committed
                  (Checker.committed_at positions ~txn_id ~pos:position),
                aborted,
                readers )
          | Audit.Aborted _ ->
              ( committed,
                first aborted (Checker.aborted positions ~txn_id),
                readers )
          | Audit.Read_only_committed ->
              ( committed,
                aborted,
                (txn_id, e.record.read_position, e.observed) :: readers )
          | Audit.Unknown -> acc
        end)
      (None, None, [])
      (Audit.newest_first (Cluster.audit cluster))
  in
  let* () =
    match (committed, aborted) with
    | Some v, _ | None, Some v -> Error (describe v)
    | None, None -> Ok ()
  in
  Result.map_error describe
    (Checker.check_log log ~observed:(Hashtbl.find_opt observed) ~readers)

let check_exn ?archive cluster ~group =
  match check ?archive cluster ~group with Ok () -> () | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Cross-group atomicity oracle (PROTOCOL.md §10): the multi-shot commit
   specification (after Chockler & Gotsman), checked on the participant
   groups' effective logs — the marker records ({!Twopc}) are the
   protocol's only durable state — and on the pseudo-group audit events.
   Every marker left in an effective log is the one that took (write-once,
   first wins), so each is recorded as it comes. *)

(* A prepare in the group with index [slot] in [groups]. *)
type prepare = {
  txid : string;
  slot : int;
  pos : int;
  payload : Twopc.payload;
  footprint : Txn.key array;  (* reads ∪ write keys *)
  later : (int * Txn.entry) list;  (* the effective log after [pos] *)
  txn : markers;
}

(* One transaction's effective markers, by slot. *)
and markers = {
  prepared : prepare option array;
  outcomes : (int * string * Txn.write list) option array;  (* pos, verdict *)
  decisions : string option array;
}

(* An outcome's writes, less its markers, are exactly the prepared
   [(key, value)] writes, in order. *)
let rec applies_exactly (writes : Txn.write list) prepared =
  match (writes, prepared) with
  | w :: rest, _ when Txn.is_reserved w.key -> applies_exactly rest prepared
  | w :: rest, (key, value) :: more ->
      String.equal w.key key && String.equal w.value value
      && applies_exactly rest more
  | [], [] -> true
  | _ -> false

(* An observed ["g/k"] as ["k"], if [prefix] is ["g/"]. *)
let unqualify prefix (qkey, value) =
  let n = String.length prefix in
  if String.starts_with ~prefix qkey then
    Some (String.sub qkey n (String.length qkey - n), value)
  else None

(* Whether [r] reads a footprint key or writes one (markers aside). *)
let touches footprint (r : Txn.record) =
  let mem key = Array.exists (String.equal key) footprint in
  Array.exists mem (Txn.read_keys r)
  || Array.exists (fun k -> (not (Txn.is_reserved k)) && mem k) (Txn.write_keys r)

let check_cross ?(archives = []) cluster ~groups =
  let exception Violation of string in
  let fail fmt = Format.kasprintf (fun s -> raise (Violation ("cross: " ^ s))) fmt in
  let effective group =
    let archive = Option.value (List.assoc_opt group archives) ~default:[] in
    let log = Cluster.agreed_log cluster ~group in
    match Result.bind log (merge_archive ~archive) with
    | Ok log -> effective_log log
    | Error s -> raise (Violation s)
  in
  try
    let logs = Array.of_list (List.map effective groups) in
    let names = Array.of_list groups in
    let slot group = List.find_index (String.equal group) groups in
    let decision txn g = Option.bind (slot g) (Array.get txn.decisions) in
    (* One fold over each effective log fills one record per txid. The
       prepares come out in (groups, log) order: each phase below reports
       its first violation in that order. *)
    let txns = Strtbl.create 64 and prepares = ref [] in
    let markers txid =
      match Strtbl.find_opt txns txid with
      | Some txn -> txn
      | None ->
          let none () = Array.make (Array.length names) None in
          let txn = { prepared = none (); outcomes = none (); decisions = none () } in
          Strtbl.add txns txid txn;
          txn
    in
    let note slot pos later (r : Txn.record) =
      match Twopc.classify r with
      | Twopc.Prepare { txid } ->
          let txn = markers txid in
          let payload = Twopc.payload r and footprint = Txn.read_keys r in
          let p = { txid; slot; pos; payload; footprint; later; txn } in
          txn.prepared.(slot) <- Some p;
          prepares := p :: !prepares
      | Twopc.Outcome { txid; verdict } ->
          (markers txid).outcomes.(slot) <- Some (pos, verdict, r.writes)
      | Twopc.Decision { txid; verdict } ->
          (markers txid).decisions.(slot) <- Some verdict
      | Twopc.Plain -> ()
    in
    let rec scan slot = function
      | [] -> ()
      | (pos, entry) :: later ->
          List.iter (note slot pos later) entry;
          scan slot later
    in
    Array.iteri scan logs;
    let prepares = List.rev !prepares in
    (* Resolution: every prepare is settled by an outcome equal to the
       decision logged in its coordinator's group — never an invented
       one. *)
    List.iter
      (fun p ->
        let group = names.(p.slot) and coordinator = p.payload.coordinator in
        match (p.txn.outcomes.(p.slot), decision p.txn coordinator) with
        | None, _ ->
            fail "prepare %s in %s (pos %d) left unresolved: no outcome logged"
              p.txid group p.pos
        | Some (opos, verdict, _), None ->
            fail
              "outcome %s for %s in %s (pos %d) without a decision in \
               coordinator %s"
              verdict p.txid group opos coordinator
        | Some (opos, verdict, _), Some d when not (String.equal d verdict) ->
            fail "outcome %s for %s in %s (pos %d) contradicts decision %s"
              verdict p.txid group opos d
        | Some _, Some _ -> ())
      prepares;
    (* Agreement, commit completeness, membership: a transaction's
       prepares agree on coordinator and participants; a committed one is
       prepared in every participant, and each of its outcomes (the
       commit, by resolution) applies exactly the prepared writes; no
       other group prepared it. *)
    List.iter
      (fun p ->
        let group = names.(p.slot) in
        let { Twopc.coordinator; participants; writes } = p.payload in
        Array.iteri
          (fun i -> function
            | Some q
              when q.payload.coordinator <> coordinator
                   || q.payload.participants <> participants ->
                fail "prepares for %s in %s and %s disagree on the payload"
                  p.txid group names.(i)
            | _ -> ())
          p.txn.prepared;
        if decision p.txn coordinator = Some Twopc.commit_verdict then begin
          List.iter
            (fun g ->
              if Option.is_none (Option.bind (slot g) (Array.get p.txn.prepared))
              then fail "%s committed but participant %s has no prepare" p.txid g)
            participants;
          match p.txn.outcomes.(p.slot) with
          | Some (opos, _, applied) when not (applies_exactly applied writes) ->
              fail
                "%s commit outcome in %s (pos %d) does not apply the prepared \
                 writes"
                p.txid group opos
          | _ -> ()
        end;
        if not (List.exists (String.equal group) participants) then
          fail "prepare %s logged in %s, not a listed participant" p.txid group)
      prepares;
    (* Window exclusivity — the 1SR linchpin: between a prepare and its
       outcome no record of the effective log touches the prepared
       footprint (the in-doubt table's admission blocking, verified from
       the log after the fact). A decision touches nothing: no reads,
       marker-only writes. Each window is walked from just after its
       prepare, so the check costs the windows' total length. *)
    List.iter
      (fun p ->
        match p.txn.outcomes.(p.slot) with
        | None -> ()
        | Some (opos, _, _) ->
            let rec walk = function
              | (pos, entry) :: later when pos < opos ->
                  List.iter
                    (fun (r : Txn.record) ->
                      if touches p.footprint r then
                        fail
                          "record %s at pos %d in %s inside the in-doubt \
                           window of %s (prepare %d, outcome %d)"
                          r.txn_id pos names.(p.slot) p.txid p.pos opos)
                    entry;
                  walk later
              | _ -> ()
            in
            walk p.later)
      prepares;
    (* One pass over the cross-group audit events, newest first, for
       outcome honesty (a reported commit ⇔ a logged commit decision; the
       oldest dishonest report is named) and each transaction's observed
       values, those of its newest event. *)
    let observed = Strtbl.create 64 in
    let dishonest =
      List.fold_left
        (fun dishonest (e : Audit.event) ->
          if not (Twopc.is_audit_group e.group) then dishonest
          else begin
            let txid = e.record.txn_id in
            if not (Strtbl.mem observed txid) then
              Strtbl.add observed txid e.observed;
            let committed =
              match Strtbl.find_opt txns txid with
              | Some txn -> Array.mem (Some Twopc.commit_verdict) txn.decisions
              | None -> false
            in
            match e.outcome with
            | Audit.Committed _ when not committed ->
                Some (txid, "committed but no commit decision is logged")
            | Audit.Aborted _ when committed ->
                Some (txid, "aborted but a commit decision is logged")
            | _ -> dishonest
          end)
        None
        (Audit.newest_first (Cluster.audit cluster))
    in
    Option.iter (fun (txid, what) -> fail "client reported %s %s" txid what)
      dishonest;
    (* Value level: each group's effective log, replayed serially (and
       checked for (L3) on the way), reproduces every value a cross-group
       transaction observed in that group, at its read position there
       (its prepare carries the footprint and the read position). *)
    Array.iteri
      (fun i log ->
        let prefix = names.(i) ^ "/" in
        let observed txid =
          match Strtbl.find_opt observed txid with
          | None -> None
          | Some pairs -> (
              match List.filter_map (unqualify prefix) pairs with
              | [] -> None
              | mine -> Some mine)
        in
        match Checker.check_log log ~observed with
        | Ok () -> ()
        | Error v ->
            fail "%s in %s: %a" v.property names.(i) Checker.pp_violation v)
      logs;
    Ok ()
  with Violation s -> Error s

let check_cross_exn ?archives cluster ~groups =
  match check_cross ?archives cluster ~groups with
  | Ok () -> ()
  | Error msg -> failwith msg
