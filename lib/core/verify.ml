module Checker = Mdds_serial.Checker
module Txn = Mdds_types.Txn

(* Merge an archived log (entries captured before compaction discarded
   them) with the live union log. An archived entry must agree with any
   surviving live entry at the same position — (R1) extended across
   time. *)
let merge_archive ~archive live =
  let ( let* ) = Result.bind in
  let by_pos = Hashtbl.create 64 in
  List.iter (fun (pos, entry) -> Hashtbl.replace by_pos pos entry) live;
  let* () =
    List.fold_left
      (fun acc (pos, entry) ->
        let* () = acc in
        match Hashtbl.find_opt by_pos pos with
        | Some live_entry when not (Txn.equal_entry live_entry entry) ->
            Error
              (Printf.sprintf
                 "R1: archived entry for position %d differs from the live log"
                 pos)
        | Some _ -> Ok ()
        | None ->
            Hashtbl.replace by_pos pos entry;
            Ok ())
      (Ok ()) archive
  in
  Ok
    (Hashtbl.fold (fun pos entry acc -> (pos, entry) :: acc) by_pos []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b))

(* Mirror the WAL's write-once rule (PROTOCOL.md §10) before handing the
   log to the serial checkers: a 2PC marker record whose marker key was
   already written by an earlier record (log order, then entry order)
   applied nothing — first decision/outcome wins, duplicates are inert —
   so the checkers must not count its writes either. Identity on logs
   without marker records, i.e. on every single-group run. *)
let marker_key (r : Txn.record) =
  match Twopc.classify r with
  | Twopc.Plain -> None
  | Twopc.Prepare _ | Twopc.Outcome _ | Twopc.Decision _ -> (
      (* Marker records carry the marker as their first write. *)
      match r.Txn.writes with w :: _ -> Some w.Txn.key | [] -> None)

let effective_log log =
  let seen = Hashtbl.create 16 in
  List.map
    (fun (pos, entry) ->
      ( pos,
        List.filter
          (fun (r : Txn.record) ->
            match marker_key r with
            | None -> true
            | Some key ->
                if Hashtbl.mem seen key then false
                else begin
                  Hashtbl.add seen key ();
                  true
                end)
          entry ))
    log

let check ?(archive = []) cluster ~group =
  let ( let* ) = Result.bind in
  let of_violation what = function
    | Ok () -> Ok ()
    | Error v -> Error (Format.asprintf "%s: %a" what Checker.pp_violation v)
  in
  let* log = Cluster.agreed_log cluster ~group in
  let* log = merge_archive ~archive log in
  let* () = of_violation "L2" (Checker.unique_txn_ids log) in
  let log = effective_log log in
  let events =
    List.filter
      (fun (e : Audit.event) -> String.equal e.group group)
      (Audit.events (Cluster.audit cluster))
  in
  let committed, aborted =
    List.fold_left
      (fun (cs, abs) (e : Audit.event) ->
        match e.outcome with
        | Audit.Committed { position; _ } ->
            ((e.record.txn_id, position) :: cs, abs)
        | Audit.Aborted _ -> (cs, e.record.txn_id :: abs)
        | Audit.Read_only_committed | Audit.Unknown -> (cs, abs))
      ([], []) events
  in
  let* () = of_violation "L1" (Checker.check_audit ~log ~committed ~aborted) in
  let* () = of_violation "L3" (Checker.check_log log) in
  let observed_tbl = Hashtbl.create 256 in
  List.iter
    (fun (e : Audit.event) -> Hashtbl.replace observed_tbl e.record.txn_id e.observed)
    events;
  let* () =
    of_violation "replay" (Checker.replay log ~observed:(Hashtbl.find_opt observed_tbl))
  in
  let readers =
    List.filter_map
      (fun (e : Audit.event) ->
        match e.outcome with
        | Audit.Read_only_committed ->
            Some (e.record.txn_id, e.record.read_position, e.observed)
        | _ -> None)
      events
  in
  of_violation "read-only" (Checker.check_read_only log ~readers)

let check_exn ?archive cluster ~group =
  match check ?archive cluster ~group with Ok () -> () | Error msg -> failwith msg

(* ------------------------------------------------------------------ *)
(* Cross-group atomicity oracle (PROTOCOL.md §10).

   Works from the participant groups' merged logs alone — the marker
   records ({!Twopc}) are the protocol's only durable state — plus the
   pseudo-group audit events for outcome honesty. The effective
   (write-once, first-wins) marker per key is the one that took. *)

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
  let prepares = Hashtbl.create 64 in (* -> pos, record, payload *)
  let outcomes = Hashtbl.create 64 in (* -> pos, verdict, record *)
  let decisions = Hashtbl.create 64 in (* -> verdict *)
  List.iter
    (fun (group, log) ->
      List.iter
        (fun (pos, entry) ->
          List.iter
            (fun (r : Txn.record) ->
              match Twopc.classify r with
              | Twopc.Prepare { txid } ->
                  if not (Hashtbl.mem prepares (txid, group)) then
                    Hashtbl.add prepares (txid, group)
                      (pos, r, Twopc.payload r)
              | Twopc.Outcome { txid; verdict } ->
                  if not (Hashtbl.mem outcomes (txid, group)) then
                    Hashtbl.add outcomes (txid, group) (pos, verdict, r)
              | Twopc.Decision { txid; verdict } ->
                  if not (Hashtbl.mem decisions (txid, group)) then
                    Hashtbl.add decisions (txid, group) verdict
              | Twopc.Plain -> ())
            entry)
        log)
    logs;
  let fold_tbl tbl f = Hashtbl.fold (fun k v acc -> let* () = acc in f k v) tbl (Ok ()) in
  (* Every logged prepare is resolved, by an outcome agreeing with the
     decision logged in its coordinator's group — never an invented one. *)
  let* () =
    fold_tbl prepares (fun (txid, group) (pos, _, payload) ->
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
    fold_tbl prepares (fun (txid, group) (_, _, payload) ->
        let* () =
          List.fold_left
            (fun acc g ->
              let* () = acc in
              match Hashtbl.find_opt prepares (txid, g) with
              | Some (_, _, other)
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
                  | Some (_, _, pl), Some (opos, verdict, o) ->
                      if not (String.equal verdict Twopc.commit_verdict) then
                        errf "%s committed but %s logged outcome %s" txid g
                          verdict
                      else
                        let applied =
                          List.filter_map
                            (fun (w : Txn.write) ->
                              if
                                String.starts_with
                                  ~prefix:Twopc.reserved_prefix w.Txn.key
                              then None
                              else Some (w.Txn.key, w.Txn.value))
                            o.Txn.writes
                        in
                        if applied <> pl.Twopc.writes then
                          errf
                            "%s commit outcome in %s (pos %d) does not apply \
                             the prepared writes"
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
     verified from the log after the fact). Each window is walked
     position by position through a per-group position table, so the
     check costs the windows' total length, not one log pass per
     prepare. *)
  let at_pos =
    List.map
      (fun (group, log) ->
        let tbl = Hashtbl.create (List.length log) in
        List.iter (fun (pos, entry) -> Hashtbl.replace tbl pos entry) log;
        (group, tbl))
      logs
  in
  let* () =
    fold_tbl prepares (fun (txid, group) (ppos, prep, _) ->
        match Hashtbl.find_opt outcomes (txid, group) with
        | Some (opos, _, _) when opos > ppos + 1 ->
            let footprint = Txn.read_keys prep in
            let in_footprint key = Array.exists (String.equal key) footprint in
            let at_pos = List.assoc group at_pos in
            let check_record pos acc (r : Txn.record) =
              let* () = acc in
              let effective =
                match Twopc.classify r with
                | Twopc.Plain -> true
                | Twopc.Prepare { txid = id } -> (
                    match Hashtbl.find_opt prepares (id, group) with
                    | Some (p, _, _) -> p = pos
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
            let rec walk pos =
              if pos >= opos then Ok ()
              else
                let* () =
                  match Hashtbl.find_opt at_pos pos with
                  | Some entry -> List.fold_left (check_record pos) (Ok ()) entry
                  | None -> Ok ()
                in
                walk (pos + 1)
            in
            walk (ppos + 1)
        | _ -> Ok ())
  in
  (* Outcome honesty against the pseudo-group audit events, and
     value-level verification of every cross-group read: each group's
     effective log, replayed serially, must reproduce the values the
     client observed at its per-group read position (the prepare record
     in that log carries the footprint and read position). *)
  let events =
    List.filter
      (fun (e : Audit.event) -> Twopc.is_audit_group e.group)
      (Audit.events (Cluster.audit cluster))
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
    List.iter
      (fun (e : Audit.event) ->
        let prefix = group ^ "/" in
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
      match Checker.replay (effective_log log) ~observed:(Hashtbl.find_opt tbl) with
      | Ok () -> Ok ()
      | Error v ->
          Error
            (Format.asprintf "cross: replay in %s: %a" group Checker.pp_violation
               v))
    (Ok ()) logs

let check_cross_exn ?archives cluster ~groups =
  match check_cross ?archives cluster ~groups with
  | Ok () -> ()
  | Error msg -> failwith msg
