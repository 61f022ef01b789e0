(* Tests for the write-ahead log view over the key-value store. *)

module Store = Mdds_kvstore.Store
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn

let record ?(reads = []) ?(writes = []) ?(rp = 0) txn_id =
  Txn.make_record ~txn_id ~origin:0 ~read_position:rp ~reads
    ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)

let fresh () = Wal.create (Store.create ())

let group = "g"

let test_append_and_read () =
  let wal = fresh () in
  Alcotest.(check int) "empty last" 0 (Wal.last_position wal ~group);
  Alcotest.(check bool) "no entry" true (Wal.entry wal ~group ~pos:1 = None);
  let e1 = [ record "t1" ~writes:[ ("x", "1") ] ] in
  Wal.append wal ~group ~pos:1 e1;
  Alcotest.(check int) "last" 1 (Wal.last_position wal ~group);
  (match Wal.entry wal ~group ~pos:1 with
  | Some e -> Alcotest.(check bool) "roundtrip" true (Txn.equal_entry e e1)
  | None -> Alcotest.fail "entry missing");
  (* Idempotent duplicate append. *)
  Wal.append wal ~group ~pos:1 e1;
  Alcotest.(check int) "still 1" 1 (Wal.last_position wal ~group)

let test_append_conflict_fails () =
  let wal = fresh () in
  Wal.append wal ~group ~pos:1 [ record "t1" ];
  match Wal.append wal ~group ~pos:1 [ record "t2" ] with
  | () -> Alcotest.fail "conflicting append accepted (R1 violation absorbed)"
  | exception Failure _ -> ()

let test_groups_independent () =
  let wal = fresh () in
  Wal.append wal ~group:"a" ~pos:1 [ record "t1" ];
  Alcotest.(check int) "other group empty" 0 (Wal.last_position wal ~group:"b")

let test_gaps () =
  let wal = fresh () in
  Wal.append wal ~group ~pos:1 [ record "t1" ];
  Wal.append wal ~group ~pos:3 [ record "t3" ];
  Alcotest.(check int) "last sees max" 3 (Wal.last_position wal ~group);
  Alcotest.(check (option int)) "gap at 2" (Some 2) (Wal.first_gap wal ~group ~upto:3);
  Alcotest.(check (option int)) "no gap through 1" None (Wal.first_gap wal ~group ~upto:1);
  match Wal.apply wal ~group ~upto:3 with
  | Error (`Gap 2) -> ()
  | Error (`Gap n) -> Alcotest.failf "gap at %d" n
  | Ok () -> Alcotest.fail "apply skipped a gap"

let test_apply_and_read_data () =
  let wal = fresh () in
  Wal.append wal ~group ~pos:1 [ record "t1" ~writes:[ ("x", "a"); ("y", "b") ] ];
  Wal.append wal ~group ~pos:2 [ record "t2" ~writes:[ ("x", "c") ] ];
  Alcotest.(check int) "not applied yet" 0 (Wal.applied_position wal ~group);
  Alcotest.(check bool) "apply ok" true (Wal.apply wal ~group ~upto:2 = Ok ());
  Alcotest.(check int) "watermark" 2 (Wal.applied_position wal ~group);
  Alcotest.(check (option string)) "x at 1" (Some "a") (Wal.read_data wal ~group ~key:"x" ~at:1);
  Alcotest.(check (option string)) "x at 2" (Some "c") (Wal.read_data wal ~group ~key:"x" ~at:2);
  Alcotest.(check (option string)) "y at 2" (Some "b") (Wal.read_data wal ~group ~key:"y" ~at:2);
  Alcotest.(check (option string)) "unknown key" None (Wal.read_data wal ~group ~key:"z" ~at:2);
  Alcotest.(check (option int)) "version of x at 2" (Some 2) (Wal.data_version wal ~group ~key:"x" ~at:2);
  Alcotest.(check (option int)) "version of y at 2" (Some 1) (Wal.data_version wal ~group ~key:"y" ~at:2)

let test_apply_idempotent () =
  let wal = fresh () in
  Wal.append wal ~group ~pos:1 [ record "t1" ~writes:[ ("x", "a") ] ];
  Alcotest.(check bool) "first" true (Wal.apply wal ~group ~upto:1 = Ok ());
  Alcotest.(check bool) "second" true (Wal.apply wal ~group ~upto:1 = Ok ());
  Alcotest.(check (option string)) "value stable" (Some "a")
    (Wal.read_data wal ~group ~key:"x" ~at:1)

let test_combined_entry_order () =
  (* Within one combined entry, a later record's write to the same key
     wins — list order is the serial order (§5). *)
  let wal = fresh () in
  Wal.append wal ~group ~pos:1
    [ record "t1" ~writes:[ ("x", "first") ]; record "t2" ~writes:[ ("x", "second") ] ];
  Alcotest.(check bool) "apply" true (Wal.apply wal ~group ~upto:1 = Ok ());
  Alcotest.(check (option string)) "later record wins" (Some "second")
    (Wal.read_data wal ~group ~key:"x" ~at:1)

let test_dump_sorted () =
  let wal = fresh () in
  Wal.append wal ~group ~pos:2 [ record "t2" ];
  Wal.append wal ~group ~pos:1 [ record "t1" ];
  Wal.append wal ~group ~pos:3 [ record "t3" ];
  let positions = List.map fst (Wal.dump wal ~group) in
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3 ] positions

let test_compaction () =
  let wal = fresh () in
  for pos = 1 to 5 do
    Wal.append wal ~group ~pos
      [ record (Printf.sprintf "t%d" pos) ~writes:[ ("x", string_of_int pos) ] ]
  done;
  (* Cannot compact unapplied entries. *)
  Alcotest.(check bool) "refuse unapplied" true
    (Wal.compact wal ~group ~upto:3 = Error `Not_applied);
  Alcotest.(check bool) "apply" true (Wal.apply wal ~group ~upto:5 = Ok ());
  Alcotest.(check bool) "compact" true (Wal.compact wal ~group ~upto:3 = Ok ());
  Alcotest.(check int) "compacted watermark" 3 (Wal.compacted_position wal ~group);
  Alcotest.(check bool) "entries gone" true (Wal.entry wal ~group ~pos:2 = None);
  Alcotest.(check bool) "later entries kept" true (Wal.entry wal ~group ~pos:4 <> None);
  (* Data reads still served from the versioned rows. *)
  Alcotest.(check (option string)) "historic read" (Some "2")
    (Wal.read_data wal ~group ~key:"x" ~at:2);
  Alcotest.(check int) "last position unchanged" 5 (Wal.last_position wal ~group);
  (* Apply after compaction starts past the compaction point. *)
  Wal.append wal ~group ~pos:6 [ record "t6" ~writes:[ ("x", "6") ] ];
  Alcotest.(check bool) "apply resumes" true (Wal.apply wal ~group ~upto:6 = Ok ());
  Alcotest.(check (option string)) "new value" (Some "6")
    (Wal.read_data wal ~group ~key:"x" ~at:6)

let test_snapshot_roundtrip () =
  let a = fresh () in
  Wal.append a ~group ~pos:1 [ record "t1" ~writes:[ ("x", "1"); ("y", "1") ] ];
  Wal.append a ~group ~pos:2 [ record "t2" ~rp:1 ~writes:[ ("x", "2") ] ];
  Alcotest.(check bool) "apply" true (Wal.apply a ~group ~upto:2 = Ok ());
  let applied, rows = Wal.snapshot a ~group in
  Alcotest.(check int) "applied" 2 applied;
  Alcotest.(check int) "two keys" 2 (List.length rows);
  (* Install into an empty replica. *)
  let b = fresh () in
  Wal.install_snapshot b ~group ~applied rows;
  Alcotest.(check int) "applied watermark" 2 (Wal.applied_position b ~group);
  Alcotest.(check int) "compacted below snapshot" 2 (Wal.compacted_position b ~group);
  Alcotest.(check (option string)) "x" (Some "2") (Wal.read_data b ~group ~key:"x" ~at:2);
  Alcotest.(check (option string)) "y" (Some "1") (Wal.read_data b ~group ~key:"y" ~at:2);
  (* Installing an older snapshot does not regress newer local data. *)
  Wal.append b ~group ~pos:3 [ record "t3" ~rp:2 ~writes:[ ("x", "3") ] ];
  Alcotest.(check bool) "apply 3" true (Wal.apply b ~group ~upto:3 = Ok ());
  Wal.install_snapshot b ~group ~applied rows;
  Alcotest.(check (option string)) "newer kept" (Some "3")
    (Wal.read_data b ~group ~key:"x" ~at:3)

let prop_install_snapshot =
  (* Snapshot installation is the one path that writes foreign state into
     a replica's store, so it carries three safety obligations: installing
     the same snapshot again changes nothing observable (the catch-up
     ladder may retry after a lost ack); a replica already at or past the
     snapshot keeps every newer local value and never regresses its
     watermarks; and a cold WAL reopened over the same store answers every
     accessor identically (nothing observable lives only in the caches). *)
  let open QCheck in
  let keys = [ "k1"; "k2"; "k3" ] in
  let key_gen = Gen.oneofl keys in
  let writes_gen =
    Gen.(list_size (1 -- 3) (pair key_gen (map string_of_int small_nat)))
  in
  let gen =
    Gen.(pair (list_size (1 -- 8) writes_gen) (list_size (0 -- 4) writes_gen))
  in
  let print =
    Print.(pair (list (list (pair string string))) (list (list (pair string string))))
  in
  Test.make ~name:"install_snapshot idempotent, never regresses, cold-reopen equal"
    ~count:150 (make ~print gen)
    (fun (src_entries, extra_entries) ->
      let append wal pos tag writes =
        Wal.append wal ~group ~pos [ record (Printf.sprintf "%s%d" tag pos) ~writes ]
      in
      let a = fresh () in
      List.iteri (fun i writes -> append a (i + 1) "s" writes) src_entries;
      let n = List.length src_entries in
      (match Wal.apply a ~group ~upto:n with Ok () -> () | Error _ -> assert false);
      let applied, rows = Wal.snapshot a ~group in
      let observe wal =
        let at = Wal.applied_position wal ~group in
        ( Wal.last_position wal ~group,
          at,
          Wal.compacted_position wal ~group,
          List.map (fun k -> Wal.read_data wal ~group ~key:k ~at) keys,
          List.map (fun k -> Wal.data_version wal ~group ~key:k ~at) keys )
      in
      (* Fresh replica: the intended catch-up path. *)
      let empty_store = Store.create () in
      let e = Wal.create empty_store in
      Wal.install_snapshot e ~group ~applied rows;
      let installed = observe e in
      let _, e_applied, e_compacted, e_values, _ = installed in
      if e_applied <> applied || e_compacted <> applied then
        Test.fail_reportf "watermarks not at snapshot: applied %d compacted %d"
          e_applied e_compacted;
      if e_values <> List.map (fun k -> Wal.read_data a ~group ~key:k ~at:applied) keys
      then Test.fail_reportf "installed values differ from source at %d" applied;
      Wal.install_snapshot e ~group ~applied rows;
      if observe e <> installed then
        Test.fail_reportf "re-install into fresh replica not idempotent";
      if Wal.coherent e <> Ok () then Test.fail_reportf "fresh replica incoherent";
      (* Replica already at or past the snapshot: same log prefix plus
         newer local entries, everything applied. *)
      let store = Store.create () in
      let b = Wal.create store in
      List.iteri (fun i writes -> append b (i + 1) "s" writes) src_entries;
      List.iteri (fun i writes -> append b (n + i + 1) "x" writes) extra_entries;
      let head = n + List.length extra_entries in
      (match Wal.apply b ~group ~upto:head with Ok () -> () | Error _ -> assert false);
      let before = observe b in
      Wal.install_snapshot b ~group ~applied rows;
      let after = observe b in
      let b_last, b_applied, b_compacted, b_values, b_versions = after in
      let l0, a0, c0, v0, ver0 = before in
      (* Newer local state survives: watermarks never regress (compaction
         may legitimately advance to the snapshot point), values and
         versions at the local head are untouched. *)
      if b_last <> l0 || b_applied <> a0 || b_compacted < c0 then
        Test.fail_reportf "watermarks regressed: last %d->%d applied %d->%d"
          l0 b_last a0 b_applied;
      if b_values <> v0 || b_versions <> ver0 then
        Test.fail_reportf "newer local data overwritten by older snapshot";
      Wal.install_snapshot b ~group ~applied rows;
      if observe b <> after then Test.fail_reportf "re-install not idempotent";
      if Wal.coherent b <> Ok () then Test.fail_reportf "replica incoherent";
      (* Cold reopen over both stores answers identically. *)
      let cold_equal wal store =
        let cold = Wal.create store in
        observe cold = observe wal
        && List.equal
             (fun (p, e) (p', e') -> p = p' && Txn.equal_entry e e')
             (Wal.dump cold ~group) (Wal.dump wal ~group)
      in
      cold_equal e empty_store && cold_equal b store)

let prop_apply_matches_sequential_replay =
  (* Applying entries through the WAL gives the same final values as a
     naive sequential replay into an association list. *)
  let open QCheck in
  let key_gen = Gen.oneofl [ "k1"; "k2"; "k3" ] in
  let writes_gen = Gen.(list_size (1 -- 3) (pair key_gen (map string_of_int small_nat))) in
  let entry_gen i =
    Gen.map
      (fun writes -> [ record (Printf.sprintf "t%d" i) ~writes ])
      writes_gen
  in
  Test.make ~name:"apply equals sequential replay" ~count:100
    (make
       Gen.(sized (fun n -> flatten_l (List.init (max 1 (min n 10)) entry_gen))))
    (fun entries ->
      let wal = fresh () in
      List.iteri (fun i e -> Wal.append wal ~group ~pos:(i + 1) e) entries;
      let n = List.length entries in
      (match Wal.apply wal ~group ~upto:n with Ok () -> () | Error _ -> assert false);
      let expected =
        List.fold_left
          (fun acc entry ->
            List.fold_left
              (fun acc (r : Txn.record) ->
                List.fold_left
                  (fun acc (w : Txn.write) ->
                    (w.key, w.value) :: List.remove_assoc w.key acc)
                  acc r.writes)
              acc entry)
          [] entries
      in
      List.for_all
        (fun (k, v) -> Wal.read_data wal ~group ~key:k ~at:n = Some v)
        expected)

let prop_cache_coherent_under_interleavings =
  (* The storage fast-path invariant: after any interleaving of WAL
     operations — including [invalidate], which models a process restart
     dropping the volatile caches — the decoded view equals a fresh decode
     of the durable store ([Wal.coherent]), and a cold WAL opened over the
     same store answers every accessor identically. Snapshots taken
     mid-stream are installed into a second replica whose caches must stay
     coherent too. *)
  let open QCheck in
  let op_gen =
    Gen.frequency
      [
        (5, Gen.return `Append);
        (1, Gen.return `Append_gap);
        (3, Gen.return `Apply);
        (2, Gen.return `Compact);
        (1, Gen.return `Snapshot);
        (2, Gen.return `Invalidate);
        (2, Gen.return `Read);
      ]
  in
  Test.make ~name:"caches coherent under random op interleavings" ~count:150
    (make
       ~print:(Print.list (function
         | `Append -> "append"
         | `Append_gap -> "append-gap"
         | `Apply -> "apply"
         | `Compact -> "compact"
         | `Snapshot -> "snapshot"
         | `Invalidate -> "invalidate"
         | `Read -> "read"))
       Gen.(list_size (1 -- 30) op_gen))
    (fun ops ->
      let store = Store.create () in
      let wal = Wal.create store in
      let replica = fresh () in
      let i = ref 0 in
      let append offset =
        let pos = Wal.last_position wal ~group + offset in
        Wal.append wal ~group ~pos
          [
            record
              (Printf.sprintf "t%d" !i)
              ~writes:[ ("k" ^ string_of_int (!i mod 3), string_of_int !i) ];
          ]
      in
      List.iter
        (fun op ->
          incr i;
          (match op with
          | `Append -> append 1
          | `Append_gap -> append 2
          | `Apply -> ignore (Wal.apply wal ~group ~upto:(Wal.last_position wal ~group))
          | `Compact ->
              ignore (Wal.compact wal ~group ~upto:(Wal.applied_position wal ~group))
          | `Snapshot ->
              let applied, rows = Wal.snapshot wal ~group in
              Wal.install_snapshot replica ~group ~applied rows
          | `Invalidate -> Wal.invalidate wal
          | `Read ->
              ignore
                (Wal.read_data wal ~group
                   ~key:("k" ^ string_of_int (!i mod 3))
                   ~at:(Wal.applied_position wal ~group)));
          match (Wal.coherent wal, Wal.coherent replica) with
          | Ok (), Ok () -> ()
          | Error e, _ | _, Error e ->
              Test.fail_reportf "incoherent after op %d: %s" !i e)
        ops;
      (* A cold WAL over the same durable store answers identically —
         nothing observable lives only in the caches. *)
      let cold = Wal.create store in
      let at = Wal.applied_position wal ~group in
      Wal.last_position cold ~group = Wal.last_position wal ~group
      && Wal.applied_position cold ~group = at
      && Wal.compacted_position cold ~group = Wal.compacted_position wal ~group
      && List.equal
           (fun (p, e) (p', e') -> p = p' && Txn.equal_entry e e')
           (Wal.dump cold ~group) (Wal.dump wal ~group)
      && List.for_all
           (fun k ->
             Wal.read_data cold ~group ~key:k ~at
             = Wal.read_data wal ~group ~key:k ~at)
           [ "k0"; "k1"; "k2" ])

let test_invalidate_rebuilds () =
  let store = Store.create () in
  let wal = Wal.create store in
  Wal.append wal ~group ~pos:1 [ record "t1" ~writes:[ ("x", "a") ] ];
  Wal.append wal ~group ~pos:2 [ record "t2" ~writes:[ ("x", "b") ] ];
  Alcotest.(check bool) "apply" true (Wal.apply wal ~group ~upto:2 = Ok ());
  Wal.invalidate wal;
  (* Everything is rebuilt lazily from the durable rows. *)
  Alcotest.(check int) "last survives" 2 (Wal.last_position wal ~group);
  Alcotest.(check int) "applied survives" 2 (Wal.applied_position wal ~group);
  Alcotest.(check (option string)) "data survives" (Some "b")
    (Wal.read_data wal ~group ~key:"x" ~at:2);
  (match Wal.entry wal ~group ~pos:1 with
  | Some e ->
      Alcotest.(check bool) "entry decodes" true
        (Txn.equal_entry e [ record "t1" ~writes:[ ("x", "a") ] ])
  | None -> Alcotest.fail "entry lost across invalidate");
  Alcotest.(check bool) "coherent" true (Wal.coherent wal = Ok ())

(* ------------------------------------------------------------------ *)
(* Crash recovery (PROTOCOL.md §7 steps 0–1) over an explicit-sync store. *)

let explicit () =
  let store = Store.create ~mode:Store.Sync_explicit () in
  (store, Wal.create store)

let test_recover_reapplies_lazy_applies () =
  (* Appends sync (they are the commit point); data applies are lazy and
     ride the write buffer. A dirty crash loses the applies; [recover]
     re-derives them from the surviving log. *)
  let store, wal = explicit () in
  for pos = 1 to 3 do
    Wal.append wal ~group ~pos
      [ record (Printf.sprintf "t%d" pos) ~writes:[ ("x", string_of_int pos) ] ]
  done;
  Alcotest.(check bool) "apply" true (Wal.apply wal ~group ~upto:3 = Ok ());
  Alcotest.(check (option string)) "data visible" (Some "3")
    (Wal.read_data wal ~group ~key:"x" ~at:3);
  Store.crash store ~lose_unsynced:true;
  Wal.invalidate wal;
  let r = Wal.recover wal ~group in
  Alcotest.(check int) "nothing torn" 0 r.Wal.scrubbed;
  Alcotest.(check (option int)) "nothing truncated" None r.Wal.truncated;
  Alcotest.(check bool) "lazy applies re-derived" true (r.Wal.reapplied > 0);
  Alcotest.(check int) "log intact" 3 (Wal.last_position wal ~group);
  Alcotest.(check int) "applied watermark restored" 3 (Wal.applied_position wal ~group);
  Alcotest.(check (option string)) "data restored" (Some "3")
    (Wal.read_data wal ~group ~key:"x" ~at:3);
  Alcotest.(check bool) "durably coherent" true (Wal.durable_coherent wal ~group = Ok ());
  Alcotest.(check bool) "coherent" true (Wal.coherence wal ~group = Ok ())

let test_recover_truncates_torn_tail () =
  let store, wal = explicit () in
  for pos = 1 to 3 do
    Wal.append wal ~group ~pos
      [ record (Printf.sprintf "t%d" pos) ~writes:[ ("x", string_of_int pos) ] ]
  done;
  Forge.mangle_checksum (Forge.family_row store ~prefix:("log/" ^ group ^ "/") 3);
  Wal.invalidate wal;
  let r = Wal.recover wal ~group in
  Alcotest.(check int) "torn version scrubbed" 1 r.Wal.scrubbed;
  Alcotest.(check (option int)) "log truncated at the tear" (Some 3) r.Wal.truncated;
  Alcotest.(check int) "last rewound" 2 (Wal.last_position wal ~group);
  Alcotest.(check bool) "torn entry gone" true (Wal.entry wal ~group ~pos:3 = None);
  Alcotest.(check (option string)) "valid prefix applied" (Some "2")
    (Wal.read_data wal ~group ~key:"x" ~at:2);
  Alcotest.(check bool) "durably coherent" true (Wal.durable_coherent wal ~group = Ok ());
  (* The truncated entry is gone for good locally: a re-learned copy can be
     re-appended without conflict (the recovery ladder's job). *)
  Wal.append wal ~group ~pos:3 [ record "t3" ~writes:[ ("x", "3") ] ];
  Alcotest.(check int) "re-learned entry re-enters" 3 (Wal.last_position wal ~group)

let test_durable_coherent_catches_skipped_recovery () =
  (* The deliberately-broken-recovery check: damage the durable tail but
     skip the recovery scan. The stale decoded view still claims entry 2,
     which the durable store can no longer produce — the oracle must say
     so (this is exactly what the chaos engine asserts after every
     fault). *)
  let store, wal = explicit () in
  Wal.append wal ~group ~pos:1 [ record "t1" ~writes:[ ("x", "1") ] ];
  Wal.append wal ~group ~pos:2 [ record "t2" ~writes:[ ("x", "2") ] ];
  Forge.mangle_checksum (Forge.family_row store ~prefix:("log/" ^ group ^ "/") 2);
  (match Wal.durable_coherent wal ~group with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oracle blessed a view the durable store cannot re-produce");
  (* Running the real ladder repairs the disagreement. *)
  Wal.invalidate wal;
  ignore (Wal.recover wal ~group);
  Alcotest.(check bool) "coherent after real recovery" true
    (Wal.durable_coherent wal ~group = Ok ())

let prop_recover_preserves_synced_log =
  (* Appends are synced (they are the commit point), so no crash — dirty or
     torn, at any point in the workload — may lose one: after any
     interleaving of appends, lazy applies and crash/recover cycles, the
     final recovery rebuilds the complete log, a gap-free applied state and
     a durably-coherent view. *)
  let open QCheck in
  let op_gen =
    Gen.frequency
      [
        (5, Gen.return `Append);
        (3, Gen.return `Apply);
        (2, Gen.return `Dirty);
        (2, Gen.return `Torn);
        (1, Gen.return `Recover);
      ]
  in
  Test.make ~name:"recovery preserves every synced append" ~count:150
    (make
       ~print:(Print.list (function
         | `Append -> "append"
         | `Apply -> "apply"
         | `Dirty -> "dirty-crash"
         | `Torn -> "torn-crash"
         | `Recover -> "recover"))
       Gen.(list_size (1 -- 25) op_gen))
    (fun ops ->
      let store, wal = explicit () in
      let appended = ref 0 in
      let recover () =
        Wal.invalidate wal;
        ignore (Wal.recover wal ~group)
      in
      List.iter
        (fun op ->
          match op with
          | `Append ->
              incr appended;
              Wal.append wal ~group ~pos:!appended
                [
                  record
                    (Printf.sprintf "t%d" !appended)
                    ~writes:
                      [ ("k" ^ string_of_int (!appended mod 3), string_of_int !appended) ];
                ]
          | `Apply -> ignore (Wal.apply wal ~group ~upto:(Wal.last_position wal ~group))
          | `Dirty ->
              Store.crash store ~lose_unsynced:true;
              recover ()
          | `Torn ->
              Store.crash ~torn:true store ~lose_unsynced:true;
              recover ()
          | `Recover -> recover ())
        ops;
      recover ();
      Wal.last_position wal ~group = !appended
      && Wal.first_gap wal ~group ~upto:!appended = None
      && Wal.applied_position wal ~group = !appended
      && Wal.durable_coherent wal ~group = Ok ()
      && Wal.coherence wal ~group = Ok ())

(* Replay detection: [Wal.logged_at] answers from the transaction id index
   exactly what the linear scan it replaced returns. The spec scans a cold
   WAL over the same store, so it reads durable rows only and leaves the
   view under test untouched. *)
let scan_logged_at store ~txn_id ~from ~upto =
  let cold = Wal.create store in
  let rec find pos =
    if pos > upto then None
    else
      match Wal.entry cold ~group ~pos with
      | Some e when Txn.mem_entry ~txn_id e -> Some pos
      | _ -> find (pos + 1)
  in
  find (max from (Wal.compacted_position cold ~group + 1))

type index_op =
  | Append of int * int list  (* gap before the position, txid picks *)
  | Fill of int list  (* the lowest missing position above compaction *)
  | Apply
  | Compact
  | Snapshot of int  (* install a snapshot this far past [applied] *)
  | Invalidate
  | Recover
  | Query of int * int * int  (* txid, from, span *)

let prop_logged_at_matches_scan =
  let open QCheck in
  let picks = Gen.(list_size (1 -- 3) (0 -- 5)) in
  let op_gen =
    Gen.frequency
      [
        (5, Gen.map2 (fun gap ids -> Append (gap, ids)) Gen.(0 -- 2) picks);
        (2, Gen.map (fun ids -> Fill ids) picks);
        (2, Gen.return Apply);
        (2, Gen.return Compact);
        (1, Gen.map (fun k -> Snapshot k) Gen.(0 -- 3));
        (1, Gen.return Invalidate);
        (1, Gen.return Recover);
        (3, Gen.map3 (fun i f s -> Query (i, f, s)) Gen.(0 -- 6) Gen.(0 -- 20) Gen.(0 -- 20));
      ]
  in
  let print = function
    | Append (gap, ids) ->
        Printf.sprintf "append+%d[%s]" gap
          (String.concat "," (List.map string_of_int ids))
    | Fill ids ->
        Printf.sprintf "fill[%s]" (String.concat "," (List.map string_of_int ids))
    | Apply -> "apply"
    | Compact -> "compact"
    | Snapshot k -> Printf.sprintf "snapshot+%d" k
    | Invalidate -> "invalidate"
    | Recover -> "recover"
    | Query (i, f, s) -> Printf.sprintf "query t%d %d+%d" i f s
  in
  Test.make ~name:"logged_at equals the linear scan" ~count:300
    (make ~print:(Print.list print) Gen.(list_size (1 -- 40) op_gen))
    (fun ops ->
      let store = Store.create () in
      let wal = Wal.create store in
      let n = ref 0 in
      (* Ids repeat across positions on purpose: the index keeps every
         position, the query returns the lowest in range. *)
      let entry ids =
        List.map
          (fun i ->
            incr n;
            record (Printf.sprintf "t%d" i)
              ~writes:[ ("k" ^ string_of_int (i mod 3), string_of_int !n) ])
          (List.sort_uniq Int.compare ids)
      in
      let agree txn_id ~from ~upto =
        let got = Wal.logged_at wal ~group ~txn_id ~from ~upto in
        let want = scan_logged_at store ~txn_id ~from ~upto in
        if got <> want then
          Test.fail_reportf "logged_at %s %d..%d: index %s, scan %s" txn_id from
            upto
            (Option.fold ~none:"none" ~some:string_of_int got)
            (Option.fold ~none:"none" ~some:string_of_int want)
      in
      List.iter
        (fun op ->
          let last = Wal.last_position wal ~group in
          (match op with
          | Append (gap, ids) -> Wal.append wal ~group ~pos:(last + 1 + gap) (entry ids)
          | Fill ids ->
              let rec missing pos =
                if pos > last then None
                else if Wal.entry wal ~group ~pos = None then Some pos
                else missing (pos + 1)
              in
              Option.iter
                (fun pos -> Wal.append wal ~group ~pos (entry ids))
                (missing (Wal.compacted_position wal ~group + 1))
          | Apply -> ignore (Wal.apply wal ~group ~upto:last)
          | Compact ->
              ignore (Wal.compact wal ~group ~upto:(Wal.applied_position wal ~group))
          | Snapshot k ->
              Wal.install_snapshot wal ~group
                ~applied:(Wal.applied_position wal ~group + k) []
          | Invalidate -> Wal.invalidate wal
          | Recover -> ignore (Wal.recover wal ~group)
          | Query (i, from, span) ->
              agree (Printf.sprintf "t%d" i) ~from ~upto:(from + span - 1));
          (match Wal.coherence wal ~group with
          | Ok () -> ()
          | Error e -> Test.fail_reportf "incoherent after %s: %s" (print op) e);
          let last = Wal.last_position wal ~group in
          for i = 0 to 6 do
            agree (Printf.sprintf "t%d" i) ~from:0 ~upto:(last + 1)
          done)
        ops;
      true)

let test_recover_noop_on_sync_always () =
  (* In the default mode the scan finds nothing — restart stays cheap. *)
  let wal = fresh () in
  Wal.append wal ~group ~pos:1 [ record "t1" ~writes:[ ("x", "1") ] ];
  Alcotest.(check bool) "apply" true (Wal.apply wal ~group ~upto:1 = Ok ());
  let r = Wal.recover wal ~group in
  Alcotest.(check int) "no scrub" 0 r.Wal.scrubbed;
  Alcotest.(check (option int)) "no truncation" None r.Wal.truncated;
  Alcotest.(check int) "no reapply needed" 0 r.Wal.reapplied

let () =
  Alcotest.run "wal"
    [
      ( "log",
        [
          Alcotest.test_case "append and read" `Quick test_append_and_read;
          Alcotest.test_case "conflicting append fails" `Quick test_append_conflict_fails;
          Alcotest.test_case "groups independent" `Quick test_groups_independent;
          Alcotest.test_case "gaps" `Quick test_gaps;
          Alcotest.test_case "dump sorted" `Quick test_dump_sorted;
        ] );
      ( "apply",
        [
          Alcotest.test_case "apply and read data" `Quick test_apply_and_read_data;
          Alcotest.test_case "idempotent" `Quick test_apply_idempotent;
          Alcotest.test_case "combined entry order" `Quick test_combined_entry_order;
          Alcotest.test_case "compaction" `Quick test_compaction;
          Alcotest.test_case "snapshot roundtrip" `Quick test_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_install_snapshot;
          QCheck_alcotest.to_alcotest prop_apply_matches_sequential_replay;
        ] );
      ( "cache",
        [
          Alcotest.test_case "invalidate rebuilds from store" `Quick
            test_invalidate_rebuilds;
          QCheck_alcotest.to_alcotest prop_cache_coherent_under_interleavings;
          QCheck_alcotest.to_alcotest prop_logged_at_matches_scan;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "lazy applies re-derived after dirty crash" `Quick
            test_recover_reapplies_lazy_applies;
          Alcotest.test_case "torn tail truncated" `Quick
            test_recover_truncates_torn_tail;
          Alcotest.test_case "skipped recovery caught by oracle" `Quick
            test_durable_coherent_catches_skipped_recovery;
          Alcotest.test_case "no-op on Sync_always" `Quick
            test_recover_noop_on_sync_always;
          QCheck_alcotest.to_alcotest prop_recover_preserves_synced_log;
        ] );
    ]
