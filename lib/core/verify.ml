module Checker = Mdds_serial.Checker
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
  let seen = Hashtbl.create 16 in
  (* Marker records carry the marker as their first write. *)
  let inert (r : Txn.record) =
    match r.Txn.writes with
    | w :: _ when Twopc.is_marker r ->
        Hashtbl.mem seen w.Txn.key || (Hashtbl.add seen w.Txn.key (); false)
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
(* Cross-group atomicity oracle (PROTOCOL.md §10).

   Works from the participant groups' merged logs alone — the marker
   records ({!Twopc}) are the protocol's only durable state — plus the
   pseudo-group audit events for outcome honesty. The effective
   (write-once, first-wins) marker per key is the one that took. *)

(* An outcome's writes, less its markers, are exactly the prepared
   [(key, value)] writes, in order. *)
let rec applies_exactly (writes : Txn.write list) prepared =
  match (writes, prepared) with
  | w :: rest, _ when String.starts_with ~prefix:Twopc.reserved_prefix w.key ->
      applies_exactly rest prepared
  | w :: rest, (key, value) :: more ->
      String.equal w.key key && String.equal w.value value
      && applies_exactly rest more
  | [], [] -> true
  | _ -> false

let check_cross ?(archives = []) cluster ~groups =
  let ( let* ) = Result.bind in
  let errf fmt = Printf.ksprintf (fun s -> Error ("cross: " ^ s)) fmt in
  let* logs =
    List.fold_left
      (fun acc group ->
        let* acc = acc in
        let* log = Cluster.agreed_log cluster ~group in
        let archive =
          Option.value (List.assoc_opt group archives) ~default:[]
        in
        let* log = merge_archive ~archive log in
        Ok ((group, log) :: acc))
      (Ok []) groups
  in
  let logs = List.rev logs in
  (* Effective (first in log order) marker record per (txid, group). *)
  let prepares = Hashtbl.create 64 in (* -> pos, record, payload, later log *)
  let outcomes = Hashtbl.create 64 in (* -> pos, verdict, record *)
  let decisions = Hashtbl.create 64 in (* -> verdict *)
  List.iter
    (fun (group, log) ->
      let rec scan = function
        | [] -> ()
        | (pos, entry) :: later ->
            List.iter
              (fun (r : Txn.record) ->
                match Twopc.classify r with
                | Twopc.Prepare { txid } ->
                    if not (Hashtbl.mem prepares (txid, group)) then
                      Hashtbl.add prepares (txid, group)
                        (pos, r, Twopc.payload r, later)
                | Twopc.Outcome { txid; verdict } ->
                    if not (Hashtbl.mem outcomes (txid, group)) then
                      Hashtbl.add outcomes (txid, group) (pos, verdict, r)
                | Twopc.Decision { txid; verdict } ->
                    if not (Hashtbl.mem decisions (txid, group)) then
                      Hashtbl.add decisions (txid, group) verdict
                | Twopc.Plain -> ())
              entry;
            scan later
      in
      scan log)
    logs;
  let fold_tbl tbl f = Hashtbl.fold (fun k v acc -> let* () = acc in f k v) tbl (Ok ()) in
  (* Every logged prepare is resolved, by an outcome agreeing with the
     decision logged in its coordinator's group — never an invented one. *)
  let* () =
    fold_tbl prepares (fun (txid, group) (pos, _, payload, _) ->
        match Hashtbl.find_opt outcomes (txid, group) with
        | None ->
            errf "prepare %s in %s (pos %d) left unresolved: no outcome logged"
              txid group pos
        | Some (opos, verdict, _) -> (
            match Hashtbl.find_opt decisions (txid, payload.Twopc.coordinator) with
            | None ->
                errf
                  "outcome %s for %s in %s (pos %d) without a decision in \
                   coordinator %s"
                  verdict txid group opos payload.Twopc.coordinator
            | Some dverdict when not (String.equal dverdict verdict) ->
                errf "outcome %s for %s in %s (pos %d) contradicts decision %s"
                  verdict txid group opos dverdict
            | Some _ -> Ok ()))
  in
  (* Prepares of one transaction agree on coordinator and participants;
     a committed transaction prepared — and committed — everywhere, with
     the outcome applying exactly the prepared writes. *)
  let* () =
    fold_tbl prepares (fun (txid, group) (_, _, payload, _) ->
        let* () =
          List.fold_left
            (fun acc g ->
              let* () = acc in
              match Hashtbl.find_opt prepares (txid, g) with
              | Some (_, _, other, _)
                when other.Twopc.coordinator <> payload.Twopc.coordinator
                     || other.Twopc.participants <> payload.Twopc.participants
                ->
                  errf "prepares for %s in %s and %s disagree on the payload"
                    txid group g
              | _ -> Ok ())
            (Ok ()) groups
        in
        let* () =
          match Hashtbl.find_opt decisions (txid, payload.Twopc.coordinator) with
          | Some d when String.equal d Twopc.commit_verdict ->
              List.fold_left
                (fun acc g ->
                  let* () = acc in
                  match
                    ( Hashtbl.find_opt prepares (txid, g),
                      Hashtbl.find_opt outcomes (txid, g) )
                  with
                  | None, _ ->
                      errf "%s committed but participant %s has no prepare"
                        txid g
                  | _, None ->
                      errf "%s committed but participant %s has no outcome"
                        txid g
                  | Some (_, _, pl, _), Some (opos, verdict, o) ->
                      if not (String.equal verdict Twopc.commit_verdict) then
                        errf "%s committed but %s logged outcome %s" txid g
                          verdict
                      else if not (applies_exactly o.Txn.writes pl.Twopc.writes)
                      then
                        errf
                          "%s commit outcome in %s (pos %d) does not apply the \
                           prepared writes"
                          txid g opos
                      else Ok ())
                (Ok ()) payload.Twopc.participants
          | _ -> Ok ()
        in
        if not (List.mem group payload.Twopc.participants) then
          errf "prepare %s logged in %s, not a listed participant" txid group
        else Ok ())
  in
  (* Window exclusivity — the 1SR linchpin: between a prepare and its
     first outcome, no other effective record may touch the prepared
     footprint in that group (the in-doubt table's admission blocking,
     verified from the log after the fact). Each window is walked along
     the log from just after its prepare, so the check costs the windows'
     total length, not one log pass per prepare. *)
  let* () =
    fold_tbl prepares (fun (txid, group) (ppos, prep, _, later) ->
        match Hashtbl.find_opt outcomes (txid, group) with
        | Some (opos, _, _) when opos > ppos + 1 ->
            let footprint = Txn.read_keys prep in
            let in_footprint key = Array.exists (String.equal key) footprint in
            let check_record pos acc (r : Txn.record) =
              let* () = acc in
              let effective =
                match Twopc.classify r with
                | Twopc.Plain -> true
                | Twopc.Prepare { txid = id } -> (
                    match Hashtbl.find_opt prepares (id, group) with
                    | Some (p, _, _, _) -> p = pos
                    | None -> false)
                | Twopc.Outcome { txid = id; _ } -> (
                    match Hashtbl.find_opt outcomes (id, group) with
                    | Some (p, _, _) -> p = pos
                    | None -> false)
                | Twopc.Decision _ -> false (* marker-only writes *)
              in
              let touched () =
                Array.exists in_footprint (Txn.read_keys r)
                || List.exists
                     (fun (w : Txn.write) ->
                       (not
                          (String.starts_with ~prefix:Twopc.reserved_prefix
                             w.Txn.key))
                       && in_footprint w.Txn.key)
                     r.Txn.writes
              in
              if effective && touched () then
                errf
                  "record %s at pos %d in %s inside the in-doubt window of %s \
                   (prepare %d, outcome %d)"
                  r.Txn.txn_id pos group txid ppos opos
              else Ok ()
            in
            let rec walk = function
              | (pos, entry) :: later when pos < opos ->
                  let* () = List.fold_left (check_record pos) (Ok ()) entry in
                  walk later
              | _ -> Ok ()
            in
            walk later
        | _ -> Ok ())
  in
  (* Outcome honesty against the pseudo-group audit events, and
     value-level verification of every cross-group read: each group's
     effective log, replayed serially, must reproduce the values the
     client observed at its per-group read position (the prepare record
     in that log carries the footprint and read position). *)
  let events =
    List.fold_left
      (fun events (e : Audit.event) ->
        if Twopc.is_audit_group e.group then e :: events else events)
      []
      (Audit.newest_first (Cluster.audit cluster))
  in
  let* () =
    List.fold_left
      (fun acc (e : Audit.event) ->
        let* () = acc in
        let txid = e.record.Txn.txn_id in
        let committed_somewhere =
          List.exists
            (fun g ->
              Hashtbl.find_opt decisions (txid, g)
              = Some Twopc.commit_verdict)
            groups
        in
        match e.outcome with
        | Audit.Committed _ when not committed_somewhere ->
            errf "client reported %s committed but no commit decision is logged"
              txid
        | Audit.Aborted _ when committed_somewhere ->
            errf "client reported %s aborted but a commit decision is logged"
              txid
        | _ -> Ok ())
      (Ok ()) events
  in
  let observed_in group =
    let tbl = Hashtbl.create 64 in
    let prefix = group ^ "/" in
    List.iter
      (fun (e : Audit.event) ->
        let mine =
          List.filter_map
            (fun (qkey, v) ->
              if String.starts_with ~prefix qkey then
                Some
                  ( String.sub qkey (String.length prefix)
                      (String.length qkey - String.length prefix),
                    v )
              else None)
            e.observed
        in
        if mine <> [] then Hashtbl.replace tbl e.record.Txn.txn_id mine)
      events;
    tbl
  in
  List.fold_left
    (fun acc (group, log) ->
      let* () = acc in
      let tbl = observed_in group in
      match
        Checker.check_log (effective_log log) ~observed:(Hashtbl.find_opt tbl)
      with
      | Ok () -> Ok ()
      | Error v ->
          Error
            (Format.asprintf "cross: %s in %s: %a" v.property group
               Checker.pp_violation v))
    (Ok ()) logs

let check_cross_exn ?archives cluster ~groups =
  match check_cross ?archives cluster ~groups with
  | Ok () -> ()
  | Error msg -> failwith msg
