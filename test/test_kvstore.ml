(* Tests for the multi-version key-value store (the §2.2 contract). *)

module Row = Mdds_kvstore.Row
module Store = Mdds_kvstore.Store

let value v = [ ("v", v) ]
let block v = Row.of_list (value v)

let read_attr store key =
  match Store.read store ~key () with
  | None -> None
  | Some (_, attrs) -> Row.attribute attrs "v"

(* ------------------------------------------------------------------ *)
(* Row.                                                                 *)

let test_row_versions () =
  let row = Row.create () in
  Alcotest.(check bool) "no versions" true (Row.latest row = None);
  Alcotest.(check bool) "auto ts 1" true (Row.write row (block "a") = Ok 1);
  Alcotest.(check bool) "auto ts 2" true (Row.write row (block "b") = Ok 2);
  Alcotest.(check int) "count" 2 (Row.version_count row);
  match Row.latest row with
  | Some (2, attrs) -> Alcotest.(check (option string)) "latest" (Some "b") (Row.attribute attrs "v")
  | _ -> Alcotest.fail "latest"

let test_row_read_at_timestamp () =
  let row = Row.create () in
  ignore (Row.write row ~timestamp:10 (block "ten"));
  ignore (Row.write row ~timestamp:20 (block "twenty"));
  let at ts =
    match Row.read row ~timestamp:ts () with
    | None -> None
    | Some (_, attrs) -> Row.attribute attrs "v"
  in
  Alcotest.(check (option string)) "before first" None (at 9);
  Alcotest.(check (option string)) "exactly first" (Some "ten") (at 10);
  Alcotest.(check (option string)) "between" (Some "ten") (at 15);
  Alcotest.(check (option string)) "at second" (Some "twenty") (at 20);
  Alcotest.(check (option string)) "after" (Some "twenty") (at 99)

let test_row_stale_write () =
  let row = Row.create () in
  ignore (Row.write row ~timestamp:5 (block "x"));
  Alcotest.(check bool) "stale rejected" true (Row.write row ~timestamp:3 (block "y") = Error `Stale);
  (* Same timestamp overwrites (idempotent log re-apply). *)
  Alcotest.(check bool) "same ts ok" true (Row.write row ~timestamp:5 (block "z") = Ok 5);
  Alcotest.(check int) "no duplicate version" 1 (Row.version_count row)

let test_row_normalize () =
  let v = Row.normalize [ ("b", "1"); ("a", "2"); ("b", "3") ] in
  Alcotest.(check (list (pair string string))) "sorted, last wins"
    [ ("a", "2"); ("b", "3") ] v;
  (* Pin the full contract: sorted by attribute name, exactly one binding
     per name, and that binding is the textually last one in the input. *)
  Alcotest.(check (list (pair string string))) "empty" [] (Row.normalize []);
  Alcotest.(check (list (pair string string))) "singleton"
    [ ("x", "1") ] (Row.normalize [ ("x", "1") ]);
  Alcotest.(check (list (pair string string))) "all duplicates keep last"
    [ ("k", "4") ]
    (Row.normalize [ ("k", "1"); ("k", "2"); ("k", "3"); ("k", "4") ]);
  Alcotest.(check (list (pair string string))) "interleaved"
    [ ("a", "5"); ("b", "4"); ("c", "3") ]
    (Row.normalize [ ("a", "1"); ("b", "2"); ("c", "3"); ("b", "4"); ("a", "5") ]);
  (* Already-normalized input is returned as is, without copying. *)
  let sorted = [ ("a", "1"); ("b", "2"); ("c", "3") ] in
  Alcotest.(check bool) "sorted input kept" true (Row.normalize sorted == sorted);
  Alcotest.(check (list (pair string string))) "sorted with a duplicate"
    [ ("a", "2"); ("b", "3") ]
    (Row.normalize [ ("a", "1"); ("a", "2"); ("b", "3") ])

let test_flat_block () =
  let pairs = Alcotest.(list (pair string string)) in
  let b = Row.of_list [ ("b", "1"); ("a", "2"); ("b", "3") ] in
  Alcotest.(check pairs) "of_list normalizes" [ ("a", "2"); ("b", "3") ] (Row.bindings b);
  Alcotest.(check int) "length" 2 (Row.length b);
  Alcotest.(check (option string)) "attribute" (Some "3") (Row.attribute b "b");
  Alcotest.(check (option string)) "absent attribute" None (Row.attribute b "2");
  Alcotest.(check pairs) "prefix keeps whole pairs" [ ("a", "2") ]
    (Row.bindings (Row.prefix b 1));
  Alcotest.(check pairs) "fold in order" (Row.bindings b)
    (List.rev (Row.fold (fun k v acc -> (k, v) :: acc) b []));
  Alcotest.(check pairs) "of_array takes sorted pairs as they are"
    [ ("a", "1"); ("c", "2") ] (Row.bindings (Row.of_array [| "a"; "1"; "c"; "2" |]));
  List.iter
    (fun bad ->
      Alcotest.check_raises "of_array refuses it"
        (Invalid_argument "Row.of_array: not name/value pairs with increasing names")
        (fun () -> ignore (Row.of_array bad)))
    [ [| "a" |]; [| "b"; "1"; "a"; "2" |]; [| "a"; "1"; "a"; "2" |] ];
  Alcotest.(check pairs) "prepend in front" [ ("#", "0"); ("a", "2"); ("b", "3") ]
    (Row.bindings (Row.prepend "#" "0" b));
  Alcotest.(check pairs) "prepend keeps an existing binding"
    [ ("a", "2"); ("b", "3") ] (Row.bindings (Row.prepend "b" "0" b));
  Alcotest.(check pairs) "prepend sorts" [ ("a", "2"); ("ab", "0"); ("b", "3") ]
    (Row.bindings (Row.prepend "ab" "0" b))

(* Reference implementation of the normalize contract (the original
   quadratic walk); the optimized version must agree on any input. *)
let reference_normalize value =
  let rec keep_last seen = function
    | [] -> []
    | (k, v) :: rest ->
        if List.mem k seen then keep_last seen rest
        else (k, v) :: keep_last (k :: seen) rest
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (keep_last [] (List.rev value))

let prop_normalize_matches_reference =
  QCheck.Test.make ~name:"normalize agrees with the reference dedup" ~count:500
    QCheck.(
      list (pair (string_of_size Gen.(1 -- 4)) (string_of_size Gen.(0 -- 3))))
    (fun value -> Row.normalize value = reference_normalize value)

let prop_normalize_sorted_fast_path =
  (* Sorted, duplicate-free inputs take the fast path: the result is the
     input itself, and still agrees with the reference. *)
  QCheck.Test.make ~name:"normalize returns normalized input unchanged" ~count:300
    QCheck.(
      small_list (pair (string_of_size Gen.(1 -- 4)) (string_of_size Gen.(0 -- 3))))
    (fun value ->
      let value = reference_normalize value in
      Row.normalize value == value)

(* ------------------------------------------------------------------ *)
(* Store.                                                               *)

let test_store_basic () =
  let store = Store.create () in
  Alcotest.(check bool) "missing row" true (Store.read store ~key:"k" () = None);
  ignore (Store.write store ~key:"k" (value "v1"));
  Alcotest.(check (option string)) "read back" (Some "v1") (read_attr store "k");
  Alcotest.(check (option string)) "attribute" (Some "v1") (Store.attribute store ~key:"k" "v");
  Alcotest.(check (option string)) "missing attribute" None (Store.attribute store ~key:"k" "w");
  Alcotest.(check int) "row count" 1 (Store.row_count store);
  Alcotest.(check (list string)) "keys" [ "k" ] (Store.keys store)

let test_store_versioned_reads () =
  let store = Store.create () in
  ignore (Store.write store ~key:"k" ~timestamp:1 (value "a"));
  ignore (Store.write store ~key:"k" ~timestamp:3 (value "b"));
  (match Store.read store ~key:"k" ~timestamp:2 () with
  | Some (1, attrs) ->
      Alcotest.(check (option string)) "snapshot" (Some "a") (Row.attribute attrs "v")
  | _ -> Alcotest.fail "versioned read");
  Alcotest.(check bool) "stale" true (Store.write store ~key:"k" ~timestamp:2 (value "c") = Error `Stale)

let test_check_and_write () =
  let store = Store.create () in
  (* Missing row: test against None succeeds (create). *)
  Alcotest.(check bool) "create when absent" true
    (Store.check_and_write store ~key:"p" ~test_attribute:"nb" ~test_value:None
       [ ("nb", "1"); ("vote", "a") ]);
  (* Wrong expectation fails and writes nothing. *)
  Alcotest.(check bool) "wrong expectation" false
    (Store.check_and_write store ~key:"p" ~test_attribute:"nb" ~test_value:(Some "9")
       [ ("nb", "2") ]);
  Alcotest.(check (option string)) "unchanged" (Some "1") (Store.attribute store ~key:"p" "nb");
  (* Correct expectation succeeds. *)
  Alcotest.(check bool) "correct expectation" true
    (Store.check_and_write store ~key:"p" ~test_attribute:"nb" ~test_value:(Some "1")
       [ ("nb", "2"); ("vote", "b") ]);
  Alcotest.(check (option string)) "updated" (Some "2") (Store.attribute store ~key:"p" "nb");
  Alcotest.(check (option string)) "other attribute too" (Some "b")
    (Store.attribute store ~key:"p" "vote");
  (* Absent attribute on an existing row equals None. *)
  ignore (Store.write store ~key:"q" [ ("other", "x") ]);
  Alcotest.(check bool) "absent attr is None" true
    (Store.check_and_write store ~key:"q" ~test_attribute:"nb" ~test_value:None
       [ ("nb", "0") ])

let test_store_reset () =
  let store = Store.create () in
  ignore (Store.write store ~key:"k" (value "v"));
  Store.reset store;
  Alcotest.(check int) "empty after reset" 0 (Store.row_count store)

(* ------------------------------------------------------------------ *)
(* Durability: write buffer, sync points, dirty and torn crashes.       *)

let explicit () = Store.create ~mode:Store.Sync_explicit ()

let test_sync_always_crash_noop () =
  (* Default mode: every write is durable as it lands, crash loses
     nothing — the pre-existing behaviour every figure run relies on. *)
  let store = Store.create () in
  ignore (Store.write store ~key:"k" (value "v1"));
  Alcotest.(check int) "nothing ever buffered" 0 (Store.unsynced store);
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "write survives" (Some "v1") (read_attr store "k");
  Store.crash ~torn:true store ~lose_unsynced:true;
  Alcotest.(check (option string)) "torn arm is a no-op too" (Some "v1")
    (read_attr store "k")

let test_dirty_crash_rewinds_to_sync_point () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" (value "durable"));
  Store.sync store;
  ignore (Store.write store ~key:"k" (value "buffered"));
  ignore (Store.write store ~key:"fresh" (value "new"));
  (* Buffered writes are visible immediately (page-cache semantics). *)
  Alcotest.(check (option string)) "buffered visible" (Some "buffered") (read_attr store "k");
  Alcotest.(check int) "two dirty keys" 2 (Store.unsynced store);
  (* [unsynced] counts journal records: "k"'s write and its delete are
     two, one row. *)
  Store.delete store ~key:"k";
  Alcotest.(check int) "written then deleted counts twice" 3 (Store.unsynced store);
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "rewound to sync point" (Some "durable")
    (read_attr store "k");
  Alcotest.(check bool) "never-synced row gone" true
    (Store.read store ~key:"fresh" () = None);
  Alcotest.(check int) "buffer empty after crash" 0 (Store.unsynced store)

let test_sync_point_makes_durable () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" (value "v"));
  Store.sync store;
  Alcotest.(check int) "buffer drained" 0 (Store.unsynced store);
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "synced write survives" (Some "v") (read_attr store "k")

let test_crash_keeping_buffer () =
  (* lose_unsynced:false models the OS flushing before the process died:
     the buffer contents survive even without an explicit sync. *)
  let store = explicit () in
  ignore (Store.write store ~key:"k" (value "v"));
  Store.crash store ~lose_unsynced:false;
  Alcotest.(check (option string)) "flushed buffer survives" (Some "v")
    (read_attr store "k");
  (* The flush was real: a later dirty crash no longer loses it. *)
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "now durable" (Some "v") (read_attr store "k")

let test_delete_rolls_back () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" (value "keep"));
  Store.sync store;
  Store.delete store ~key:"k";
  Alcotest.(check bool) "delete visible" true (Store.read store ~key:"k" () = None);
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "unsynced delete undone" (Some "keep")
    (read_attr store "k")

let test_torn_crash_persists_prefix () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" [ ("a", "old"); ("b", "old"); ("c", "old") ]);
  Store.sync store;
  ignore (Store.write store ~key:"k" [ ("a", "new"); ("b", "new"); ("c", "new") ]);
  Store.crash ~torn:true store ~lose_unsynced:true;
  (* The in-flight write persisted a strict prefix of its attributes; the
     checksum no longer matches, so the tear is detectable. *)
  (match Store.read store ~key:"k" () with
  | None -> Alcotest.fail "torn version missing entirely"
  | Some (_, attrs) ->
      Alcotest.(check bool) "torn version detectable" false (Store.checksum_valid attrs);
      Alcotest.(check bool) "strictly fewer attributes" true
        (Row.length attrs < 4 (* a b c + #sum *)));
  let dropped = Store.scrub store ~key:"k" in
  Alcotest.(check int) "scrub drops the torn version" 1 dropped;
  (match Store.read store ~key:"k" () with
  | Some (_, attrs) ->
      Alcotest.(check bool) "survivor checksums" true (Store.checksum_valid attrs);
      Alcotest.(check (option string)) "survivor is the synced version" (Some "old")
        (Row.attribute attrs "a")
  | None -> Alcotest.fail "synced version lost by scrub")

let test_torn_crash_on_created_row_stays_absent () =
  (* A torn write of a row that never reached a sync point models the row
     write itself never reaching the disk: the row must stay absent. *)
  let store = explicit () in
  ignore (Store.write store ~key:"fresh" [ ("a", "1"); ("b", "2") ]);
  Store.crash ~torn:true store ~lose_unsynced:true;
  Alcotest.(check bool) "created row absent after torn crash" true
    (Store.read store ~key:"fresh" () = None)

let test_scrub_drops_forged_damage () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" (value "good"));
  Store.sync store;
  ignore (Store.write store ~key:"k" (value "bad"));
  Store.sync store;
  Forge.mangle_checksum (Store.row store ~key:"k");
  Alcotest.(check int) "one version dropped" 1 (Store.scrub store ~key:"k");
  Alcotest.(check (option string)) "valid predecessor restored" (Some "good")
    (read_attr store "k");
  (* A row whose every version is damaged disappears entirely. *)
  ignore (Store.write store ~key:"solo" (value "x"));
  Store.sync store;
  Forge.mangle_checksum (Store.row store ~key:"solo");
  ignore (Store.scrub store ~key:"solo");
  Alcotest.(check bool) "fully damaged row deleted" true
    (Store.read store ~key:"solo" () = None)

let test_durable_versions_oracle () =
  let store = explicit () in
  ignore (Store.write store ~key:"k" ~timestamp:1 (value "durable"));
  Store.sync store;
  ignore (Store.write store ~key:"k" ~timestamp:2 (value "buffered"));
  (* The oracle previews the post-crash state without mutating. *)
  (match Store.durable_versions store ~key:"k" with
  | [ (1, attrs) ] ->
      Alcotest.(check (option string)) "durable version only" (Some "durable")
        (Row.attribute attrs "v")
  | other -> Alcotest.failf "unexpected durable view (%d versions)" (List.length other));
  Alcotest.(check (option string)) "store unchanged by the oracle" (Some "buffered")
    (read_attr store "k");
  Alcotest.(check int) "buffer unchanged by the oracle" 1 (Store.unsynced store);
  (* And it agrees with an actual crash. *)
  Store.crash store ~lose_unsynced:true;
  Alcotest.(check (option string)) "crash matches the preview" (Some "durable")
    (read_attr store "k")

(* ------------------------------------------------------------------ *)
(* Properties.                                                          *)

let prop_monotonic_read =
  (* Reading at timestamp t always returns the write with the greatest
     timestamp <= t. *)
  QCheck.Test.make ~name:"read returns latest version <= timestamp" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 20) (int_bound 50)) (int_bound 60))
    (fun (timestamps, probe) ->
      let store = Store.create () in
      let applied =
        List.filter
          (fun ts ->
            ts > 0
            && Store.write store ~key:"k" ~timestamp:ts (value (string_of_int ts)) = Ok ts)
          timestamps
      in
      let expected =
        List.fold_left
          (fun acc ts -> if ts <= probe then max acc ts else acc)
          0 applied
      in
      match Store.read store ~key:"k" ~timestamp:probe () with
      | None -> expected = 0
      | Some (ts, attrs) ->
          ts = expected && Row.attribute attrs "v" = Some (string_of_int expected))

let prop_check_and_write_atomic =
  (* check_and_write succeeds iff the expectation matched, and on success
     the new value is visible. *)
  QCheck.Test.make ~name:"check_and_write success implies visibility" ~count:200
    QCheck.(list (pair (option (int_bound 3)) (int_bound 9)))
    (fun steps ->
      let store = Store.create () in
      List.for_all
        (fun (expect, next) ->
          let expect = Option.map string_of_int expect in
          let current = Store.attribute store ~key:"r" "nb" in
          let ok =
            Store.check_and_write store ~key:"r" ~test_attribute:"nb"
              ~test_value:expect
              [ ("nb", string_of_int next) ]
          in
          if current = expect then
            ok && Store.attribute store ~key:"r" "nb" = Some (string_of_int next)
          else (not ok) && Store.attribute store ~key:"r" "nb" = current)
        steps)

(* ------------------------------------------------------------------ *)
(* Checksums.                                                           *)

(* The digest as first specified: FNV-1a (32-bit) over each attribute
   name and value but the checksum's own, a 0xff sentinel after each,
   printed as 8 lowercase hex digits. *)
let reference_checksum value =
  let h = ref 0x811c9dc5 in
  let feed s =
    String.iter
      (fun c ->
        h := !h lxor Char.code c;
        h := !h * 0x01000193 land 0xffffffff)
      s;
    h := !h lxor 0xff;
    h := !h * 0x01000193 land 0xffffffff
  in
  List.iter
    (fun (k, v) ->
      if k <> "#sum" then begin
        feed k;
        feed v
      end)
    value;
  Printf.sprintf "%08x" !h

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"stamped checksums equal the reference FNV-1a" ~count:500
    QCheck.(
      small_list
        (pair
           (map (fun s -> "a" ^ s) (string_of_size Gen.(0 -- 4)))
           (string_of_size Gen.(0 -- 40))))
    (fun value ->
      let store = Store.create ~mode:Store.Sync_explicit () in
      ignore (Store.write store ~key:"k" value);
      match Store.read store ~key:"k" () with
      | None -> false
      | Some (_, stored) ->
          Row.attribute stored "#sum"
          = Some (reference_checksum (Row.normalize value))
          && Store.checksum_valid stored)

(* ------------------------------------------------------------------ *)
(* Retention: auto-stamped writes are register updates and replace the
   row's history; timestamped writes are MVCC versions and keep it.     *)

let version_count store key = Row.version_count (Store.row store ~key)

let test_auto_stamped_writes_bounded () =
  List.iter
    (fun (mode, kept) ->
      let store = Store.create ~mode () in
      for i = 1 to 1000 do
        ignore (Store.write store ~key:"reg" (value (string_of_int i)));
        if i mod 7 = 0 then Store.sync store
      done;
      Alcotest.(check int) "versions kept" kept (version_count store "reg");
      (match Store.read store ~key:"reg" () with
      | Some (1000, attrs) ->
          Alcotest.(check (option string)) "newest" (Some "1000")
            (Row.attribute attrs "v")
      | _ -> Alcotest.fail "newest version or its timestamp");
      for i = 1 to 1000 do
        ignore
          (Store.check_and_write store ~key:"cas" ~test_attribute:"v"
             ~test_value:(if i = 1 then None else Some (string_of_int (i - 1)))
             (value (string_of_int i)))
      done;
      Alcotest.(check int) "check_and_write versions kept" kept
        (version_count store "cas");
      Alcotest.(check (option string)) "check_and_write newest" (Some "1000")
        (Store.attribute store ~key:"cas" "v"))
    [ (Store.Sync_always, 1); (Store.Sync_explicit, 2) ]

let test_timestamped_writes_keep_history () =
  List.iter
    (fun mode ->
      let store = Store.create ~mode () in
      let row = Store.row store ~key:"data" in
      for ts = 1 to 1000 do
        let v = value (string_of_int ts) in
        ignore
          (if ts mod 2 = 0 then Store.write store ~key:"data" ~timestamp:ts v
           else Store.write_row store row ~timestamp:ts (Row.of_list v))
      done;
      Alcotest.(check int) "every version kept" 1000 (version_count store "data");
      List.iter
        (fun ts ->
          match Store.read store ~key:"data" ~timestamp:ts () with
          | Some (got, attrs) ->
              Alcotest.(check int) "version timestamp" ts got;
              Alcotest.(check (option string)) "version value"
                (Some (string_of_int ts)) (Row.attribute attrs "v")
          | None -> Alcotest.failf "no version at %d" ts)
        [ 1; 2; 500; 999; 1000 ])
    [ Store.Sync_always; Store.Sync_explicit ]

(* A list model of the store that keeps every version: the reference the
   retention rule must agree with on everything a reader can see. Each
   key holds its versions, newest first ([] when the row is absent), and
   the versions a dirty crash rewinds it to; [dirty] marks keys written
   since the last sync point. *)
type model_key = {
  mutable cur : (int * (string * string) list) list;
  mutable synced : (int * (string * string) list) list;
  mutable dirty : bool;
}

type op =
  | Write of int * string
  | Cas of int * string option * string
  | Sync
  | Crash of bool * bool  (* torn, lose_unsynced *)
  | Scrub of int

let pp_op = function
  | Write (k, v) -> Printf.sprintf "write k%d %s" k v
  | Cas (k, e, v) ->
      Printf.sprintf "cas k%d %s %s" k (Option.value e ~default:"-") v
  | Sync -> "sync"
  | Crash (torn, lose) -> Printf.sprintf "crash torn=%b lose=%b" torn lose
  | Scrub k -> Printf.sprintf "scrub k%d" k

let op_gen =
  let open QCheck.Gen in
  let k = int_bound 1 in
  let v = map string_of_int (int_bound 5) in
  frequency
    [
      (4, map2 (fun k v -> Write (k, v)) k v);
      (3, map3 (fun k e v -> Cas (k, e, v)) k (opt v) v);
      (2, return Sync);
      (2, map2 (fun t l -> Crash (t, l)) bool bool);
      (2, map (fun k -> Scrub k) k);
    ]

let model_valid (_, v) =
  match List.assoc_opt "#sum" v with
  | None -> true
  | Some sum -> String.equal sum (reference_checksum v)

let head = function v :: _ -> Some v | [] -> None
let head_attr versions = Option.bind (head versions) (fun (_, v) -> List.assoc_opt "a" v)

(* A stored version as the list model holds it. *)
let listed (ts, v) = (ts, Row.bindings v)

let run_model mode ops =
  let explicit = mode = Store.Sync_explicit in
  let store = Store.create ~mode () in
  let keys = [| "k0"; "k1" |] in
  let model = Array.init 2 (fun _ -> { cur = []; synced = []; dirty = false }) in
  let inflight = ref None in
  (* Three attributes, so a torn version keeps a strict prefix. *)
  let attrs v = [ ("a", v); ("b", v ^ v); ("c", "x") ] in
  let stamp value =
    if explicit then ("#sum", reference_checksum value) :: value else value
  in
  let model_write k value =
    let m = model.(k) in
    let ts = match m.cur with [] -> 1 | (ts, _) :: _ -> ts + 1 in
    m.cur <- (ts, stamp value) :: m.cur;
    if explicit then begin
      m.dirty <- true;
      inflight := Some k
    end
  in
  let sync_point () =
    Array.iter (fun m -> m.synced <- m.cur; m.dirty <- false) model;
    inflight := None
  in
  let step = function
    | Write (k, v) ->
        ignore (Store.write store ~key:keys.(k) (attrs v));
        model_write k (attrs v)
    | Cas (k, expected, v) ->
        let ok =
          Store.check_and_write store ~key:keys.(k) ~test_attribute:"a"
            ~test_value:expected (attrs v)
        in
        if ok <> (head_attr model.(k).cur = expected) then
          failwith "check_and_write verdict";
        if ok then model_write k (attrs v)
    | Sync ->
        Store.sync store;
        if explicit then sync_point ()
    | Crash (torn, lose_unsynced) ->
        Store.crash ~torn store ~lose_unsynced;
        if explicit then begin
          if lose_unsynced then begin
            let victim =
              match !inflight with
              | Some k when torn -> Option.map (fun v -> (model.(k), v)) (head model.(k).cur)
              | _ -> None
            in
            Array.iter (fun m -> m.cur <- m.synced) model;
            match victim with
            | Some (m, (ts, value)) when m.cur <> [] ->
                (* Re-persisted over the rewound row, then cut to a prefix;
                   a row rewound to absent stays absent. *)
                let rest =
                  match m.cur with
                  | (vts, _) :: rest when vts = ts -> rest
                  | versions -> versions
                in
                let n = List.length value in
                let value =
                  if n >= 2 then List.filteri (fun i _ -> i < max 1 (n / 2)) value
                  else value
                in
                m.cur <- (ts, value) :: rest
            | _ -> ()
          end;
          sync_point ()
        end
    | Scrub k ->
        ignore (Store.scrub store ~key:keys.(k));
        let m = model.(k) in
        m.cur <- List.filter model_valid m.cur;
        (* Scrubs are not journaled: a clean row keeps the repair. *)
        if not m.dirty then m.synced <- m.cur
  in
  let agree k =
    let m = model.(k) and key = keys.(k) in
    let durable = if explicit then List.filter model_valid m.synced else m.cur in
    let versions =
      match Store.row_handle store ~key with
      | None -> []
      | Some row -> Row.versions row
    in
    let valid = List.filter (fun (_, v) -> Store.checksum_valid v) versions in
    Option.map listed (Store.read store ~key ()) = head m.cur
    && Store.attribute store ~key "a" = head_attr m.cur
    && Option.map listed (head (Store.durable_versions store ~key)) = head durable
    && Option.map listed (head valid) = head (List.filter model_valid m.cur)
    && List.length valid <= if explicit then 2 else 1
  in
  List.for_all
    (fun op ->
      step op;
      agree 0 && agree 1)
    ops

let prop_retention_matches_model mode name =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map pp_op ops))
       QCheck.Gen.(list_size (1 -- 40) op_gen))
    (run_model mode)

(* ------------------------------------------------------------------ *)
(* Flat rows against a list model, where each version is a normalized
   [(string * string) list]. The model keeps each row's retained
   versions, newest first, and the versions a dirty crash rewinds it to;
   the store keeps flat blocks. Writes carry unsorted attributes with
   repeated names, so normalization is in play; every answer a reader
   can get must be the model's, as lists. *)

type list_row = {
  mutable versions : (int * (string * string) list) list;
  mutable durable : (int * (string * string) list) list;
  mutable written : bool;  (* since the last sync point *)
}

type flat_op =
  | Put of int * (string * string) list
  | Put_ts of int * int * (string * string) list  (* named rows only *)
  | Put_if of int * string option * (string * string) list
  | Flush
  | Power_loss of bool * bool  (* torn, lose_unsynced *)
  | Repair of int

(* Two named rows and one family position. *)
let flat_rows = [| "k0"; "k1"; "log/g/1" |]

let pp_attrs attrs =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)

let pp_flat_op = function
  | Put (k, a) -> Printf.sprintf "put %s [%s]" flat_rows.(k) (pp_attrs a)
  | Put_ts (k, ts, a) -> Printf.sprintf "put %s ts=%d [%s]" flat_rows.(k) ts (pp_attrs a)
  | Put_if (k, e, a) ->
      Printf.sprintf "put-if %s a=%s [%s]" flat_rows.(k)
        (Option.value e ~default:"-") (pp_attrs a)
  | Flush -> "sync"
  | Power_loss (torn, lose) -> Printf.sprintf "crash torn=%b lose=%b" torn lose
  | Repair k -> Printf.sprintf "scrub %s" flat_rows.(k)

let flat_op_gen =
  let open QCheck.Gen in
  let k = int_bound 2 in
  let v = oneofl [ ""; "0"; "1"; "xy" ] in
  let attrs = list_size (0 -- 4) (pair (oneofl [ "a"; "b"; "c"; "d" ]) v) in
  frequency
    [
      (4, map2 (fun k a -> Put (k, a)) k attrs);
      (3, map3 (fun k ts a -> Put_ts (k, ts, a)) (int_bound 1) (int_range 1 6) attrs);
      (3, map3 (fun k e a -> Put_if (k, e, a)) k (opt v) attrs);
      (2, return Flush);
      (2, map2 (fun t l -> Power_loss (t, l)) bool bool);
      (2, map (fun k -> Repair k) k);
    ]

let run_flat_model mode ops =
  let explicit = mode = Store.Sync_explicit in
  let store = Store.create ~mode () in
  let fam = Store.family store ~prefix:"log/g/" in
  let model = Array.init 3 (fun _ -> { versions = []; durable = []; written = false }) in
  let inflight = ref None in
  let same what a b = if a <> b then failwith (what ^ " differs") in
  (* What the list rows stored: normalized, and in [Sync_explicit] with
     the checksum in front ('#' sorts before every name used here). *)
  let stored attrs =
    let attrs = reference_normalize attrs in
    if explicit then ("#sum", reference_checksum attrs) :: attrs else attrs
  in
  let wrote k =
    if explicit then begin
      model.(k).written <- true;
      inflight := Some k
    end
  in
  (* A timestamped version: stale below the newest, replacing it at its
     own timestamp. *)
  let put_ts versions ts value =
    match versions with
    | (newest, _) :: _ when newest > ts -> None
    | (newest, _) :: older when newest = ts -> Some ((ts, value) :: older)
    | _ -> Some ((ts, value) :: versions)
  in
  (* An auto-stamped version replaces the history but for one
     predecessor in [Sync_explicit]. *)
  let put k attrs =
    let m = model.(k) in
    let ts, kept =
      match m.versions with
      | [] -> (1, [])
      | ((ts, _) as newest) :: _ -> (ts + 1, if explicit then [ newest ] else [])
    in
    m.versions <- (ts, stored attrs) :: kept;
    wrote k
  in
  let sync_point () =
    Array.iter
      (fun m ->
        m.durable <- m.versions;
        m.written <- false)
      model;
    inflight := None
  in
  let newest_a k = Option.bind (head model.(k).versions) (fun (_, v) -> List.assoc_opt "a" v) in
  let step = function
    | Put (k, attrs) ->
        (if k = 2 then Store.write_at fam 1 (Row.of_list attrs)
         else ignore (Store.write store ~key:flat_rows.(k) attrs));
        put k attrs
    | Put_ts (k, timestamp, attrs) ->
        let got = Store.write store ~key:flat_rows.(k) ~timestamp attrs in
        let m = model.(k) in
        let expected =
          match put_ts m.versions timestamp (stored attrs) with
          | None ->
              (* The store journals the row before it finds the write
                 stale, so a dirty crash rewinds the row (undoing a
                 scrub), but the write is not the torn victim. *)
              if explicit then m.written <- true;
              Error `Stale
          | Some versions ->
              m.versions <- versions;
              wrote k;
              Ok timestamp
        in
        same "timestamped write" expected got
    | Put_if (k, test_value, attrs) ->
        let ok =
          if k = 2 then
            Store.check_and_write_at fam 1 ~test_attribute:"a" ~test_value (Row.of_list attrs)
          else Store.check_and_write store ~key:flat_rows.(k) ~test_attribute:"a" ~test_value attrs
        in
        same "check_and_write verdict" (newest_a k = test_value) ok;
        if ok then put k attrs
    | Flush ->
        Store.sync store;
        if explicit then sync_point ()
    | Power_loss (torn, lose_unsynced) ->
        Store.crash ~torn store ~lose_unsynced;
        if explicit then begin
          if lose_unsynced then begin
            let victim =
              match !inflight with
              | Some k when torn -> Option.map (fun v -> (k, v)) (head model.(k).versions)
              | _ -> None
            in
            Array.iter (fun m -> m.versions <- m.durable) model;
            match victim with
            | Some (k, (ts, value)) when model.(k).versions <> [] -> (
                (* Re-persisted over the rewound row, then cut to a prefix
                   of whole pairs; a row rewound to absent stays absent. *)
                let n = List.length value in
                let value =
                  if n >= 2 then List.filteri (fun i _ -> i < max 1 (n / 2)) value
                  else value
                in
                match put_ts model.(k).versions ts value with
                | Some versions -> model.(k).versions <- versions
                | None -> ())
            | _ -> ()
          end;
          sync_point ()
        end
    | Repair k ->
        let dropped =
          if k = 2 then Store.scrub_at fam 1 else Store.scrub store ~key:flat_rows.(k)
        in
        let m = model.(k) in
        let valid = List.filter model_valid m.versions in
        same "scrub count" (List.length m.versions - List.length valid) dropped;
        m.versions <- valid;
        (* Scrubs are not journaled: a clean row keeps the repair. *)
        if not m.written then m.durable <- valid
  in
  let agree k =
    let m = model.(k) and key = flat_rows.(k) in
    let name = "row " ^ key ^ ": " in
    let handle = if k = 2 then Store.row_handle_at fam 1 else Store.row_handle store ~key in
    let versions = match handle with None -> [] | Some row -> Row.versions row in
    same (name ^ "versions") m.versions (List.map listed versions);
    List.iter
      (fun ((_, block) as version) ->
        same (name ^ "checksum verdict") (model_valid (listed version))
          (Store.checksum_valid block);
        same (name ^ "attribute count") (List.length (Row.bindings block)) (Row.length block))
      versions;
    let read = if k = 2 then Store.read_at fam 1 else Store.read store ~key () in
    same (name ^ "read") (head m.versions) (Option.map listed read);
    if k < 2 then
      for timestamp = 0 to 7 do
        same (name ^ "read at a timestamp")
          (List.find_opt (fun (ts, _) -> ts <= timestamp) m.versions)
          (Option.map listed (Store.read store ~key ~timestamp ()))
      done;
    List.iter
      (fun attr ->
        same (name ^ "attribute " ^ attr)
          (Option.bind (head m.versions) (fun (_, v) -> List.assoc_opt attr v))
          (if k = 2 then Store.attribute_at fam 1 attr else Store.attribute store ~key attr))
      [ "#sum"; "a"; "b"; "d" ];
    let durable =
      if k = 2 then Store.durable_versions_at fam 1 else Store.durable_versions store ~key
    in
    same (name ^ "durable versions")
      (List.filter model_valid (if explicit then m.durable else m.versions))
      (List.map listed durable)
  in
  List.iter
    (fun op ->
      step op;
      Array.iteri (fun k _ -> agree k) flat_rows)
    ops;
  true

let prop_flat_matches_list_model mode name =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map pp_flat_op ops))
       QCheck.Gen.(list_size (1 -- 40) flat_op_gen))
    (run_flat_model mode)

(* ------------------------------------------------------------------ *)
(* Positional row families: a second namespace beside the named rows.   *)

let sorted_keys store = List.sort String.compare (Store.keys store)

let latest_v = function
  | None -> None
  | Some (_, attrs) -> Row.attribute attrs "v"

let test_family_survives_reset () =
  let store = Store.create () in
  let log = Store.family store ~prefix:"log/g/" in
  Store.write_at log 1 (block "a");
  Store.reset store;
  Alcotest.(check bool) "emptied" true (Store.read_at log 1 = None);
  Alcotest.(check int) "no rows" 0 (Store.row_count store);
  Store.write_at log 2 (block "b");
  Alcotest.(check (option string)) "handle still writes" (Some "b")
    (latest_v (Store.read_at log 2));
  Alcotest.(check (list int)) "positions" [ 2 ] (Store.positions log)

let test_family_apart_from_named () =
  let store = Store.create () in
  let log = Store.family store ~prefix:"log/g/" in
  ignore (Store.write store ~key:"log/g/7" (value "named"));
  Alcotest.(check bool) "read_at misses the named row" true (Store.read_at log 7 = None);
  Alcotest.(check (list int)) "no positions" [] (Store.positions log);
  Store.write_at log 7 (block "seven");
  Alcotest.(check (option string)) "named row kept" (Some "named") (read_attr store "log/g/7");
  Alcotest.(check (option string)) "position row" (Some "seven")
    (latest_v (Store.read_at log 7));
  Alcotest.(check (list string)) "keys lists no family row" [ "log/g/7" ] (sorted_keys store);
  Alcotest.(check int) "two rows" 2 (Store.row_count store);
  Alcotest.(check bool) "reopening gives the same handle" true
    (Store.family store ~prefix:"log/g/" == log)

(* The reference model: positional operations on a store with families
   must answer exactly as the keys the positions spell do on a plain
   store that opened none. *)
let fam_prefixes = [| "log/g/"; "paxos/g/" |]

(* Key, and the (family, position) it spells; [None] for a named row. *)
let fam_keys =
  [|
    ("log/g/0", Some (0, 0));
    ("log/g/1", Some (0, 1));
    ("log/g/7", Some (0, 7));
    ("paxos/g/1", Some (1, 1));
    ("paxos/g/3", Some (1, 3));
    ("log/g/07", None);
    ("log/g/x", None);
    ("logmeta/g", None);
    ("paxos/h/1", None);
  |]

type fop =
  | Fwrite of int * string
  | Fwrite_ts of int * int * string  (* named keys only *)
  | Fcas of int * string option * string
  | Fdelete of int
  | Fsync
  | Fcrash of bool * bool
  | Fscrub of int
  | Freset

let pp_fop = function
  | Fwrite (k, v) -> Printf.sprintf "write %s %s" (fst fam_keys.(k)) v
  | Fwrite_ts (k, ts, v) -> Printf.sprintf "write %s ts=%d %s" (fst fam_keys.(k)) ts v
  | Fcas (k, e, v) ->
      Printf.sprintf "cas %s %s %s" (fst fam_keys.(k)) (Option.value e ~default:"-") v
  | Fdelete k -> Printf.sprintf "delete %s" (fst fam_keys.(k))
  | Fsync -> "sync"
  | Fcrash (torn, lose) -> Printf.sprintf "crash torn=%b lose=%b" torn lose
  | Fscrub k -> Printf.sprintf "scrub %s" (fst fam_keys.(k))
  | Freset -> "reset"

let fop_gen =
  let open QCheck.Gen in
  let k = int_bound (Array.length fam_keys - 1) in
  let named = int_range 5 (Array.length fam_keys - 1) in
  let v = map string_of_int (int_bound 5) in
  frequency
    [
      (5, map2 (fun k v -> Fwrite (k, v)) k v);
      (1, map3 (fun k ts v -> Fwrite_ts (k, ts, v)) named (int_bound 6) v);
      (4, map3 (fun k e v -> Fcas (k, e, v)) k (opt v) v);
      (2, map (fun k -> Fdelete k) k);
      (2, return Fsync);
      (2, map2 (fun t l -> Fcrash (t, l)) bool bool);
      (1, map (fun k -> Fscrub k) k);
      (1, return Freset);
    ]

let run_family_model mode ops =
  let plain = Store.create ~mode () and store = Store.create ~mode () in
  let fams = Array.map (fun prefix -> Store.family store ~prefix) fam_prefixes in
  let attrs v = [ ("a", v); ("b", v ^ v); ("c", "x") ] in
  let at k = Option.map (fun (f, pos) -> (fams.(f), pos)) (snd fam_keys.(k)) in
  let same what a b = if a <> b then failwith (what ^ " differs") in
  let step op =
    match op with
    | Fwrite (k, v) -> (
        let key = fst fam_keys.(k) in
        let expected = Store.write plain ~key (attrs v) in
        match at k with
        | Some (fam, pos) -> Store.write_at fam pos (Row.of_list (attrs v))
        | None -> same "write" expected (Store.write store ~key (attrs v)))
    | Fwrite_ts (k, timestamp, v) ->
        let key = fst fam_keys.(k) in
        same "timestamped write"
          (Store.write plain ~key ~timestamp (attrs v))
          (Store.write store ~key ~timestamp (attrs v))
    | Fcas (k, test_value, v) ->
        let key = fst fam_keys.(k) in
        let expected =
          Store.check_and_write plain ~key ~test_attribute:"a" ~test_value (attrs v)
        in
        same "check_and_write" expected
          (match at k with
          | Some (fam, pos) ->
              Store.check_and_write_at fam pos ~test_attribute:"a" ~test_value
                (Row.of_list (attrs v))
          | None -> Store.check_and_write store ~key ~test_attribute:"a" ~test_value (attrs v))
    | Fdelete k -> (
        let key = fst fam_keys.(k) in
        Store.delete plain ~key;
        match at k with
        | Some (fam, pos) -> Store.delete_at fam pos
        | None -> Store.delete store ~key)
    | Fsync ->
        Store.sync plain;
        Store.sync store
    | Fcrash (torn, lose_unsynced) ->
        Store.crash ~torn plain ~lose_unsynced;
        Store.crash ~torn store ~lose_unsynced
    | Fscrub k ->
        let key = fst fam_keys.(k) in
        same "scrub" (Store.scrub plain ~key)
          (match at k with
          | Some (fam, pos) -> Store.scrub_at fam pos
          | None -> Store.scrub store ~key)
    | Freset ->
        Store.reset plain;
        Store.reset store
  in
  let agree () =
    Array.iteri
      (fun k (key, _) ->
        let read = Store.read plain ~key () in
        let durable = Store.durable_versions plain ~key in
        match at k with
        | Some (fam, pos) ->
            same ("read_at " ^ key) read (Store.read_at fam pos);
            same ("durable_at " ^ key) durable (Store.durable_versions_at fam pos)
        | None ->
            same ("read " ^ key) read (Store.read store ~key ());
            same ("durable " ^ key) durable (Store.durable_versions store ~key))
      fam_keys;
    (* The plain store lists every row by key; the other lists its named
       rows, and each family its positions. *)
    let spelled =
      Array.to_list fams
      |> List.mapi (fun f fam ->
             List.map (fun pos -> fam_prefixes.(f) ^ string_of_int pos) (Store.positions fam))
      |> List.concat
    in
    same "keys" (sorted_keys plain) (List.sort String.compare (Store.keys store @ spelled));
    same "row_count" (Store.row_count plain) (Store.row_count store);
    same "unsynced" (Store.unsynced plain) (Store.unsynced store)
  in
  List.iter
    (fun op ->
      step op;
      agree ())
    ops;
  true

let prop_family_matches_plain mode name =
  QCheck.Test.make ~name ~count:500
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map pp_fop ops))
       QCheck.Gen.(list_size (1 -- 40) fop_gen))
    (run_family_model mode)

(* Positional slots: absent outside what was set, negative positions
   included; growth keeps what was set; iteration is ascending. *)
let test_slots () =
  let module Slots = Mdds_kvstore.Slots in
  let absent = ref 0 in
  let t = Slots.create absent in
  Alcotest.(check bool) "empty reads absent" true (Slots.get t 5 == absent);
  Alcotest.(check bool) "negative reads absent" true (Slots.get t (-1) == absent);
  let a = ref 1 and b = ref 2 in
  Slots.set t 3 a;
  Slots.set t 200 b;
  Slots.set t 3 a;
  Alcotest.(check bool) "kept across growth" true (Slots.get t 3 == a);
  Alcotest.(check int) "live" 2 (Slots.live t);
  Alcotest.(check (list int)) "positions" [ 3; 200 ] (Slots.positions t);
  let seen = ref [] in
  Slots.iter (fun pos v -> seen := (pos, !v) :: !seen) t;
  Alcotest.(check (list (pair int int))) "iter ascending" [ (3, 1); (200, 2) ]
    (List.rev !seen);
  Slots.clear t 3;
  Slots.clear t 3;
  Alcotest.(check bool) "cleared" false (Slots.mem t 3);
  Alcotest.(check int) "live after clear" 1 (Slots.live t);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Slots.set: position -1 out of range") (fun () ->
      Slots.set t (-1) a);
  Slots.reset t;
  Alcotest.(check (list int)) "reset" [] (Slots.positions t);
  Alcotest.(check int) "live after reset" 0 (Slots.live t)

let () =
  Alcotest.run "kvstore"
    [
      ( "row",
        [
          Alcotest.test_case "versions" `Quick test_row_versions;
          Alcotest.test_case "read at timestamp" `Quick test_row_read_at_timestamp;
          Alcotest.test_case "stale write" `Quick test_row_stale_write;
          Alcotest.test_case "normalize" `Quick test_row_normalize;
          Alcotest.test_case "flat block" `Quick test_flat_block;
        ] );
      ( "store",
        [
          Alcotest.test_case "basic" `Quick test_store_basic;
          Alcotest.test_case "versioned reads" `Quick test_store_versioned_reads;
          Alcotest.test_case "check_and_write" `Quick test_check_and_write;
          Alcotest.test_case "reset" `Quick test_store_reset;
        ] );
      ( "durability",
        [
          Alcotest.test_case "Sync_always crash is a no-op" `Quick
            test_sync_always_crash_noop;
          Alcotest.test_case "dirty crash rewinds to sync point" `Quick
            test_dirty_crash_rewinds_to_sync_point;
          Alcotest.test_case "sync makes writes durable" `Quick
            test_sync_point_makes_durable;
          Alcotest.test_case "crash keeping the buffer" `Quick
            test_crash_keeping_buffer;
          Alcotest.test_case "unsynced delete rolls back" `Quick
            test_delete_rolls_back;
          Alcotest.test_case "torn crash persists a detectable prefix" `Quick
            test_torn_crash_persists_prefix;
          Alcotest.test_case "torn created row stays absent" `Quick
            test_torn_crash_on_created_row_stays_absent;
          Alcotest.test_case "scrub repairs forged damage" `Quick
            test_scrub_drops_forged_damage;
          Alcotest.test_case "durable_versions oracle" `Quick
            test_durable_versions_oracle;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_monotonic_read;
          QCheck_alcotest.to_alcotest prop_check_and_write_atomic;
          QCheck_alcotest.to_alcotest prop_normalize_matches_reference;
          QCheck_alcotest.to_alcotest prop_normalize_sorted_fast_path;
          QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
        ] );
      ( "families",
        [
          Alcotest.test_case "positional slots" `Quick test_slots;
          Alcotest.test_case "handle survives reset" `Quick test_family_survives_reset;
          Alcotest.test_case "named key beside a family" `Quick
            test_family_apart_from_named;
          QCheck_alcotest.to_alcotest
            (prop_family_matches_plain Store.Sync_always
               "Sync_always families agree with a plain store");
          QCheck_alcotest.to_alcotest
            (prop_family_matches_plain Store.Sync_explicit
               "Sync_explicit families agree with a plain store");
        ] );
      ( "flat rows",
        [
          QCheck_alcotest.to_alcotest
            (prop_flat_matches_list_model Store.Sync_always
               "Sync_always flat rows agree with the list model");
          QCheck_alcotest.to_alcotest
            (prop_flat_matches_list_model Store.Sync_explicit
               "Sync_explicit flat rows agree with the list model");
        ] );
      ( "retention",
        [
          Alcotest.test_case "auto-stamped writes keep 1 or 2 versions" `Quick
            test_auto_stamped_writes_bounded;
          Alcotest.test_case "timestamped writes keep every version" `Quick
            test_timestamped_writes_keep_history;
          QCheck_alcotest.to_alcotest
            (prop_retention_matches_model Store.Sync_always
               "Sync_always agrees with the full-history model");
          QCheck_alcotest.to_alcotest
            (prop_retention_matches_model Store.Sync_explicit
               "Sync_explicit agrees with the full-history model");
        ] );
    ]
