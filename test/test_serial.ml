(* Tests for the serializability theory: the SCSV history tester and the
   log-based one-copy serializability checker. *)

module Checker = Mdds_serial.Checker
module Txn = Mdds_types.Txn

(* ------------------------------------------------------------------ *)
(* History (conflict serializability).                                  *)

let step txn action = { History.txn; action }

let test_history_serializable () =
  (* t1 then t2 on the same key, cleanly ordered. *)
  let schedule =
    [
      step "t1" (History.Write "x");
      step "t2" (History.Read "x");
      step "t2" (History.Write "y");
    ]
  in
  Alcotest.(check bool) "serializable" true (History.conflict_serializable schedule);
  match History.serial_order schedule with
  | Some [ "t1"; "t2" ] -> ()
  | Some other -> Alcotest.failf "order: %s" (String.concat "," other)
  | None -> Alcotest.fail "no order"

let test_history_lost_update_cycle () =
  (* Classic lost update: both read x, then both write x. *)
  let schedule =
    [
      step "t1" (History.Read "x");
      step "t2" (History.Read "x");
      step "t1" (History.Write "x");
      step "t2" (History.Write "x");
    ]
  in
  Alcotest.(check bool) "not serializable" false (History.conflict_serializable schedule);
  Alcotest.(check bool) "no serial order" true (History.serial_order schedule = None)

let test_history_read_read_no_conflict () =
  let schedule = [ step "t1" (History.Read "x"); step "t2" (History.Read "x") ] in
  Alcotest.(check (list (pair string string))) "no edges" [] (History.conflict_edges schedule);
  Alcotest.(check bool) "serializable" true (History.conflict_serializable schedule)

let test_history_edges () =
  let schedule =
    [ step "t1" (History.Write "x"); step "t2" (History.Read "x"); step "t2" (History.Write "x") ]
  in
  let edges = History.conflict_edges schedule in
  Alcotest.(check bool) "t1->t2 edge" true (List.mem ("t1", "t2") edges);
  Alcotest.(check bool) "no self edges" true
    (List.for_all (fun (a, b) -> a <> b) edges)

let prop_serial_schedules_serializable =
  let open QCheck in
  let action_gen =
    Gen.(
      map2
        (fun read key -> if read then History.Read key else History.Write key)
        bool
        (oneofl [ "x"; "y"; "z" ]))
  in
  let txns_gen =
    Gen.(
      list_size (1 -- 6)
        (pair (map (Printf.sprintf "t%d") nat) (list_size (1 -- 4) action_gen)))
  in
  Test.make ~name:"back-to-back execution is always serializable" ~count:300
    (make txns_gen)
    (fun txns ->
      (* Deduplicate ids to keep transactions distinct. *)
      let txns = List.mapi (fun i (id, ops) -> (Printf.sprintf "%s_%d" id i, ops)) txns in
      History.conflict_serializable (History.of_serial txns))

(* ------------------------------------------------------------------ *)
(* History equivalence: the per-key-indexed graph build must agree with
   the old full-suffix-scan reference — same edges in the same order,
   same witness order, same verdict. *)

let ref_conflicting a b =
  History.(
    (match a with Read k | Write k -> k) = (match b with Read k | Write k -> k))
  && match (a, b) with History.Read _, History.Read _ -> false | _ -> true

let ref_conflict_edges schedule =
  let rec go acc = function
    | [] -> acc
    | (s : History.step) :: rest ->
        let acc =
          List.fold_left
            (fun acc (s' : History.step) ->
              if s'.History.txn <> s.History.txn && ref_conflicting s.History.action s'.History.action
              then
                let edge = (s.History.txn, s'.History.txn) in
                if List.mem edge acc then acc else edge :: acc
              else acc)
            acc rest
        in
        go acc rest
  in
  List.rev (go [] schedule)

let ref_txns schedule =
  List.fold_left
    (fun acc (s : History.step) ->
      if List.mem s.History.txn acc then acc else s.History.txn :: acc)
    [] schedule
  |> List.rev

let ref_serial_order schedule =
  let nodes = ref_txns schedule in
  let edges = ref_conflict_edges schedule in
  let in_degree = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace in_degree n 0) nodes;
  List.iter
    (fun (_, dst) -> Hashtbl.replace in_degree dst (Hashtbl.find in_degree dst + 1))
    edges;
  let rec go acc remaining edges =
    match List.find_opt (fun n -> Hashtbl.find in_degree n = 0) remaining with
    | None -> if remaining = [] then Some (List.rev acc) else None
    | Some n ->
        let outgoing, rest = List.partition (fun (src, _) -> src = n) edges in
        List.iter
          (fun (_, dst) ->
            Hashtbl.replace in_degree dst (Hashtbl.find in_degree dst - 1))
          outgoing;
        go (n :: acc) (List.filter (fun m -> m <> n) remaining) rest
  in
  go [] nodes edges

let schedule_gen =
  let open QCheck.Gen in
  let step_gen =
    map3
      (fun t read key ->
        step (Printf.sprintf "t%d" t)
          (if read then History.Read key else History.Write key))
      (0 -- 5) bool
      (oneofl [ "a"; "b"; "c"; "d" ])
  in
  list_size (0 -- 30) step_gen

let prop_history_matches_reference =
  QCheck.Test.make
    ~name:"indexed conflict graph matches the O(S^2) reference (edges, order, verdict)"
    ~count:500
    (QCheck.make schedule_gen)
    (fun schedule ->
      History.txns schedule = ref_txns schedule
      && History.conflict_edges schedule = ref_conflict_edges schedule
      && History.serial_order schedule = ref_serial_order schedule)

(* ------------------------------------------------------------------ *)
(* Checker.                                                             *)

let record ?(reads = []) ?(writes = []) ~rp txn_id =
  Txn.make_record ~txn_id ~origin:0 ~read_position:rp ~reads
    ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)

let ok_log =
  [
    (1, [ record "t1" ~rp:0 ~writes:[ ("x", "1"); ("y", "1") ] ]);
    (2, [ record "t2" ~rp:1 ~reads:[ "x" ] ~writes:[ ("x", "2") ] ]);
    (* combined entry: t4 does not read what t3 wrote *)
    ( 3,
      [
        record "t3" ~rp:2 ~reads:[ "x" ] ~writes:[ ("y", "3") ];
        record "t4" ~rp:2 ~reads:[ "x" ] ~writes:[ ("z", "3") ];
      ] );
    (* promoted transaction: rp=2, commits at 4, reads z?? no: reads x
       which was last written at 2 <= rp. *)
    (4, [ record "t5" ~rp:2 ~reads:[ "x" ] ~writes:[ ("w", "4") ] ]);
  ]

let test_check_log_ok () =
  match Checker.check_log ok_log with
  | Ok () -> ()
  | Error v ->
      Alcotest.failf "unexpected violation: %s"
        (Format.asprintf "%a" Checker.pp_violation v)

let test_check_log_stale_read () =
  let log =
    [
      (1, [ record "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (* t2 read at position 0 but x was overwritten at 1 before its slot. *)
      (2, [ record "t2" ~rp:0 ~reads:[ "x" ] ~writes:[ ("y", "2") ] ]);
    ]
  in
  match Checker.check_log log with
  | Error { txn_id = "t2"; position = 2; _ } -> ()
  | Error v -> Alcotest.failf "wrong violation: %s" (Format.asprintf "%a" Checker.pp_violation v)
  | Ok () -> Alcotest.fail "stale read not detected"

let test_check_log_intra_entry () =
  (* Within one entry, a later record reading an earlier record's write is
     a violation of the combination rule. *)
  let log =
    [
      ( 1,
        [
          record "t1" ~rp:0 ~writes:[ ("x", "1") ];
          record "t2" ~rp:0 ~reads:[ "x" ];
        ] );
    ]
  in
  match Checker.check_log log with
  | Error { txn_id = "t2"; _ } -> ()
  | _ -> Alcotest.fail "intra-entry stale read not detected"

let test_replay_values () =
  let observed = function
    | "t2" -> Some [ ("x", Some "1") ]
    | "t5" -> Some [ ("x", Some "2") ]
    | _ -> Some []
  in
  (match Checker.check_log ok_log ~observed with
  | Ok () -> ()
  | Error v -> Alcotest.failf "replay: %s" (Format.asprintf "%a" Checker.pp_violation v));
  (* A wrong observed value is caught. *)
  let observed = function "t2" -> Some [ ("x", Some "stale") ] | _ -> None in
  match Checker.check_log ok_log ~observed with
  | Error { txn_id = "t2"; _ } -> ()
  | _ -> Alcotest.fail "wrong value not detected"

let test_replay_initial_none () =
  let log = [ (1, [ record "t1" ~rp:0 ~reads:[ "q" ] ~writes:[ ("q", "1") ] ]) ] in
  let observed = function "t1" -> Some [ ("q", None) ] | _ -> None in
  (match Checker.check_log log ~observed with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "initial None mismatch");
  let observed = function "t1" -> Some [ ("q", Some "ghost") ] | _ -> None in
  match Checker.check_log log ~observed with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "phantom initial value accepted"

let test_unique_ids () =
  (match Checker.positions ok_log with
  | Ok positions ->
      Alcotest.(check (option int)) "t4's position" (Some 3)
        (Hashtbl.find_opt positions "t4")
  | Error _ -> Alcotest.fail "unique ids rejected");
  let log = [ (1, [ record "t1" ~rp:0 ]); (2, [ record "t1" ~rp:1 ]) ] in
  match Checker.positions log with
  | Error { txn_id = "t1"; position = 2; _ } -> ()
  | _ -> Alcotest.fail "duplicate id not detected"

let test_check_audit () =
  let log = [ (1, [ record "t1" ~rp:0 ~writes:[ ("x", "1") ] ]) ] in
  let positions =
    match Checker.positions log with
    | Ok positions -> positions
    | Error _ -> Alcotest.fail "unique ids rejected"
  in
  (match
     ( Checker.committed_at positions ~txn_id:"t1" ~pos:1,
       Checker.aborted positions ~txn_id:"t9" )
   with
  | Ok (), Ok () -> ()
  | _ -> Alcotest.fail "honest audit rejected");
  (match Checker.committed_at positions ~txn_id:"t2" ~pos:1 with
  | Error { txn_id = "t2"; _ } -> ()
  | _ -> Alcotest.fail "phantom commit not detected");
  (match Checker.committed_at positions ~txn_id:"t1" ~pos:3 with
  | Error { txn_id = "t1"; _ } -> ()
  | _ -> Alcotest.fail "wrong position not detected");
  match Checker.aborted positions ~txn_id:"t1" with
  | Error { txn_id = "t1"; _ } -> ()
  | _ -> Alcotest.fail "aborted-but-logged not detected"

let test_check_read_only () =
  let log =
    [
      (1, [ record "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (2, [ record "t2" ~rp:1 ~writes:[ ("x", "2") ] ]);
    ]
  in
  (* A reader at position 1 must see x=1; at 2, x=2; at 0, nothing. *)
  (match
     Checker.check_log log
       ~readers:
         [
           ("r0", 0, [ ("x", None) ]);
           ("r1", 1, [ ("x", Some "1") ]);
           ("r2", 2, [ ("x", Some "2") ]);
         ]
   with
  | Ok () -> ()
  | Error v -> Alcotest.failf "read-only: %s" (Format.asprintf "%a" Checker.pp_violation v));
  match Checker.check_log log ~readers:[ ("r1", 1, [ ("x", Some "2") ]) ] with
  | Error { txn_id = "r1"; _ } -> ()
  | _ -> Alcotest.fail "stale read-only not detected"

(* ------------------------------------------------------------------ *)
(* Mvmc: the definitional (Definition 1) decision procedure.             *)

let mtxn id reads writes = { Mvmc.id; reads; writes }

let test_mvmc_witness () =
  (* w1 writes x; r reads x from w1: witness must place w1 before r. *)
  let txns = [ mtxn "r" [ ("x", Some "w1") ] []; mtxn "w1" [] [ "x" ] ] in
  (match Mvmc.one_copy_serializable txns with
  | Some order ->
      let pos id = Option.get (List.find_index (String.equal id) order) in
      Alcotest.(check bool) "writer first" true (pos "w1" < pos "r")
  | None -> Alcotest.fail "serializable history rejected");
  (* Reading the initial version forces r before w1. *)
  let txns = [ mtxn "r" [ ("x", None) ] []; mtxn "w1" [] [ "x" ] ] in
  match Mvmc.one_copy_serializable txns with
  | Some order ->
      let pos id = Option.get (List.find_index (String.equal id) order) in
      Alcotest.(check bool) "reader first" true (pos "r" < pos "w1")
  | None -> Alcotest.fail "initial-version read rejected"

let test_mvmc_not_serializable () =
  (* Classic write-skew-like contradiction: t1 reads initial x but must
     follow t2 (reads t2's y), while t2 reads initial y but must follow
     t1 (reads t1's x) — no serial order satisfies both. *)
  let txns =
    [
      mtxn "t1" [ ("x", None); ("y", Some "t2") ] [ "x" ];
      mtxn "t2" [ ("y", None); ("x", Some "t1") ] [ "y" ];
    ]
  in
  Alcotest.(check bool) "cycle rejected" true
    (Mvmc.one_copy_serializable txns = None)

let test_mvmc_validation () =
  Alcotest.check_raises "unknown writer"
    (Invalid_argument "Mvmc: t reads from unknown transaction ghost") (fun () ->
      ignore (Mvmc.one_copy_serializable [ mtxn "t" [ ("x", Some "ghost") ] [] ]));
  Alcotest.check_raises "non-writer"
    (Invalid_argument "Mvmc: t reads x from w, which never writes it") (fun () ->
      ignore
        (Mvmc.one_copy_serializable
           [ mtxn "t" [ ("x", Some "w") ] []; mtxn "w" [] [ "y" ] ]));
  Alcotest.check_raises "duplicate ids"
    (Invalid_argument "Mvmc: duplicate transaction id d") (fun () ->
      ignore (Mvmc.one_copy_serializable [ mtxn "d" [] []; mtxn "d" [] [] ]))

let test_mvmc_of_log () =
  let txns = Mvmc.of_log ok_log in
  (* t2 read x from t1 (written at 1, read position 1). *)
  let t2 = List.find (fun t -> t.Mvmc.id = "t2") txns in
  Alcotest.(check bool) "reads-from derived" true
    (t2.Mvmc.reads = [ ("x", Some "t1") ]);
  match Mvmc.one_copy_serializable txns with
  | Some _ -> ()
  | None -> Alcotest.fail "honest log rejected by Definition 1"

let prop_checker_agrees_with_definition =
  (* Cross-validation of the practical oracle against the definitional
     procedure: every honest serial log accepted by check_log is 1SR by
     Definition 1. *)
  let open QCheck in
  let key_gen = Gen.oneofl [ "x"; "y"; "z" ] in
  let log_gen =
    Gen.(list_size (1 -- 6) (pair (list_size (0 -- 2) key_gen) (list_size (0 -- 2) key_gen)))
  in
  Test.make ~name:"check_log-accepted logs satisfy Definition 1" ~count:200
    (make log_gen)
    (fun txns ->
      let log =
        List.mapi
          (fun i (reads, writes) ->
            ( i + 1,
              [
                record (Printf.sprintf "t%d" i) ~rp:i ~reads
                  ~writes:(List.map (fun k -> (k, string_of_int i)) writes);
              ] ))
          txns
      in
      match Checker.check_log log with
      | Error _ -> true (* not applicable *)
      | Ok () -> Mvmc.one_copy_serializable (Mvmc.of_log log) <> None)

(* ------------------------------------------------------------------ *)
(* Cross-validation: logs that pass check_log are conflict-serializable
   in the SCSV sense when projected to a schedule in log order. *)

let prop_checked_logs_serializable =
  let open QCheck in
  let key_gen = Gen.oneofl [ "x"; "y"; "z" ] in
  let log_gen =
    (* Build an honest log: transactions execute serially, each reading at
       the previous position. This must pass both checkers. *)
    Gen.(
      list_size (1 -- 10) (pair (list_size (0 -- 2) key_gen) (list_size (0 -- 2) key_gen)))
  in
  Test.make ~name:"honest serial logs pass check_log and are serializable" ~count:200
    (make log_gen)
    (fun txns ->
      let log =
        List.mapi
          (fun i (reads, writes) ->
            ( i + 1,
              [
                record (Printf.sprintf "t%d" i) ~rp:i ~reads
                  ~writes:(List.map (fun k -> (k, string_of_int i)) writes);
              ] ))
          txns
      in
      (match Checker.check_log log with Ok () -> true | Error _ -> false)
      &&
      let schedule =
        List.concat_map
          (fun (_, entry) ->
            List.concat_map
              (fun (r : Txn.record) ->
                List.map (fun k -> step r.txn_id (History.Read k)) (Txn.read_set r)
                @ List.map (fun k -> step r.txn_id (History.Write k)) (Txn.write_set r))
              entry)
          log
      in
      History.conflict_serializable schedule)

(* ------------------------------------------------------------------ *)
(* Checker verdict equivalence: check_log now walks the footprint's
   deduped arrays; the reference below re-derives the sets with the old
   list code. Random logs (honest and corrupted alike) must get the same
   verdict — including the same flagged key in the same message. *)

let ref_check_log log =
  let ref_read_set (r : Txn.record) = List.sort_uniq String.compare r.Txn.reads in
  let ref_write_set (r : Txn.record) =
    List.sort_uniq String.compare (List.map (fun w -> w.Txn.key) r.Txn.writes)
  in
  let last_write : (Txn.key, int * string) Hashtbl.t = Hashtbl.create 256 in
  let rec entries = function
    | [] -> Ok ()
    | (pos, entry) :: rest ->
        let rec records = function
          | [] -> entries rest
          | (r : Txn.record) :: more -> (
              let stale =
                List.find_opt
                  (fun key ->
                    match Hashtbl.find_opt last_write key with
                    | Some (wpos, _) when wpos > r.Txn.read_position -> true
                    | _ -> false)
                  (ref_read_set r)
              in
              match stale with
              | Some key ->
                  let wpos, writer = Hashtbl.find last_write key in
                  Error
                    {
                      Checker.txn_id = r.Txn.txn_id;
                      position = pos;
                      property = "L3";
                      message =
                        Printf.sprintf
                          "stale read of %s: wrote at position %d by %s, read \
                           position %d"
                          key wpos writer r.Txn.read_position;
                    }
              | None ->
                  List.iter
                    (fun key -> Hashtbl.replace last_write key (pos, r.Txn.txn_id))
                    (ref_write_set r);
                  records more)
        in
        records entry
  in
  entries log

let prop_check_log_matches_reference =
  let open QCheck in
  let key_gen = Gen.oneofl [ "x"; "y"; "z" ] in
  let log_gen =
    (* Arbitrary read positions: many of these logs contain genuine stale
       reads, so both the Ok and the Error (message included) paths are
       compared. *)
    Gen.(
      list_size (1 -- 8)
        (triple (int_bound 8) (list_size (0 -- 3) key_gen) (list_size (0 -- 3) key_gen)))
  in
  Test.make ~name:"check_log verdicts match the list-based reference" ~count:500
    (make log_gen)
    (fun txns ->
      let log =
        List.mapi
          (fun i (rp, reads, writes) ->
            ( i + 1,
              [
                record (Printf.sprintf "t%d" i) ~rp ~reads
                  ~writes:(List.map (fun k -> (k, string_of_int i)) writes);
              ] ))
          txns
      in
      Checker.check_log log = ref_check_log log)

let () =
  Alcotest.run "serial"
    [
      ( "history",
        [
          Alcotest.test_case "serializable" `Quick test_history_serializable;
          Alcotest.test_case "lost update cycle" `Quick test_history_lost_update_cycle;
          Alcotest.test_case "read-read no conflict" `Quick test_history_read_read_no_conflict;
          Alcotest.test_case "edges" `Quick test_history_edges;
          QCheck_alcotest.to_alcotest prop_serial_schedules_serializable;
          QCheck_alcotest.to_alcotest prop_history_matches_reference;
        ] );
      ( "checker",
        [
          Alcotest.test_case "valid log passes" `Quick test_check_log_ok;
          Alcotest.test_case "stale read detected" `Quick test_check_log_stale_read;
          Alcotest.test_case "intra-entry rule" `Quick test_check_log_intra_entry;
          Alcotest.test_case "replay values" `Quick test_replay_values;
          Alcotest.test_case "replay initial state" `Quick test_replay_initial_none;
          Alcotest.test_case "unique ids" `Quick test_unique_ids;
          Alcotest.test_case "audit honesty" `Quick test_check_audit;
          Alcotest.test_case "read-only transactions" `Quick test_check_read_only;
          QCheck_alcotest.to_alcotest prop_checked_logs_serializable;
          QCheck_alcotest.to_alcotest prop_check_log_matches_reference;
        ] );
      ( "mvmc",
        [
          Alcotest.test_case "witness order" `Quick test_mvmc_witness;
          Alcotest.test_case "non-serializable rejected" `Quick test_mvmc_not_serializable;
          Alcotest.test_case "validation" `Quick test_mvmc_validation;
          Alcotest.test_case "of_log" `Quick test_mvmc_of_log;
          QCheck_alcotest.to_alcotest prop_checker_agrees_with_definition;
        ] );
    ]
