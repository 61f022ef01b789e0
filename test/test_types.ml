(* Tests for transaction records, conflict predicates and codecs. *)

module Txn = Mdds_types.Txn
module Codec = Mdds_codec.Codec

let record ?(reads = []) ?(writes = []) ?(rp = 0) ?(origin = 0) txn_id =
  Txn.make_record ~txn_id ~origin ~read_position:rp ~reads
    ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)

let test_sets () =
  let r = record "t" ~reads:[ "b"; "a"; "b" ] ~writes:[ ("y", "1"); ("x", "2"); ("y", "3") ] in
  Alcotest.(check (list string)) "read set dedup+sort" [ "a"; "b" ] (Txn.read_set r);
  Alcotest.(check (list string)) "write set dedup+sort" [ "x"; "y" ] (Txn.write_set r);
  Alcotest.(check bool) "not read-only" false (Txn.is_read_only r);
  Alcotest.(check bool) "read-only" true (Txn.is_read_only (record "q" ~reads:[ "a" ]));
  let e = [ record "a" ~writes:[ ("k1", "v") ]; record "b" ~writes:[ ("k2", "v") ] ] in
  Alcotest.(check (list string)) "entry write set" [ "k1"; "k2" ] (Txn.entry_write_set e)

let test_reads_from () =
  let s = record "s" ~writes:[ ("x", "1") ] in
  let t = record "t" ~reads:[ "x" ] in
  let u = record "u" ~reads:[ "y" ] ~writes:[ ("x", "2") ] in
  Alcotest.(check bool) "t reads from s" true (Txn.reads_from t s);
  Alcotest.(check bool) "u does not read from s" false (Txn.reads_from u s);
  Alcotest.(check bool) "write-write is not reads-from" false (Txn.reads_from u s);
  Alcotest.(check bool) "conflicts with any" true (Txn.conflicts_with_any t [ u; s ]);
  Alcotest.(check bool) "no conflict" false (Txn.conflicts_with_any u [ s ])

let test_valid_combination () =
  let w_x = record "w" ~writes:[ ("x", "1") ] in
  let r_x = record "r" ~reads:[ "x" ] in
  let r_y = record "ry" ~reads:[ "y" ] ~writes:[ ("z", "1") ] in
  Alcotest.(check bool) "empty" true (Txn.valid_combination []);
  Alcotest.(check bool) "singleton" true (Txn.valid_combination [ r_x ]);
  Alcotest.(check bool) "reader before writer ok" true (Txn.valid_combination [ r_x; w_x ]);
  Alcotest.(check bool) "reader after writer invalid" false (Txn.valid_combination [ w_x; r_x ]);
  Alcotest.(check bool) "independent" true (Txn.valid_combination [ w_x; r_y ]);
  (* Blind write after write is fine (no read involved). *)
  let w_x2 = record "w2" ~writes:[ ("x", "2") ] in
  Alcotest.(check bool) "write-write ok" true (Txn.valid_combination [ w_x; w_x2 ]);
  (* Chains: r reads x written by first element two steps earlier. *)
  Alcotest.(check bool) "transitively invalid" false
    (Txn.valid_combination [ w_x; r_y; r_x ])

let test_mem_entry () =
  let e = [ record "a"; record "b" ] in
  Alcotest.(check bool) "present" true (Txn.mem_entry ~txn_id:"b" e);
  Alcotest.(check bool) "absent" false (Txn.mem_entry ~txn_id:"c" e)

let test_equal_and_pp () =
  let a = record "t" ~reads:[ "x" ] ~writes:[ ("y", "1") ] ~rp:4 in
  let b = record "t" ~reads:[ "x" ] ~writes:[ ("y", "1") ] ~rp:4 in
  Alcotest.(check bool) "equal" true (Txn.equal_record a b);
  Alcotest.(check bool) "entry equal" true (Txn.equal_entry [ a ] [ b ]);
  Alcotest.(check bool) "differs on rp" false
    (Txn.equal_record a (record "t" ~reads:[ "x" ] ~writes:[ ("y", "1") ] ~rp:5));
  let s = Format.asprintf "%a" Txn.pp_record a in
  Alcotest.(check bool) "pp braces" true
    (String.length s > 0 && String.contains s '{');
  Alcotest.(check bool) "pp mentions id" true
    (String.length s >= 2 && String.sub s 1 1 = "t")

let record_gen =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d" ] in
  let* txn_id = map (Printf.sprintf "t%d") small_nat in
  let* origin = int_bound 4 in
  let* rp = int_bound 100 in
  let* reads = list_size (0 -- 4) key in
  let* writes = list_size (0 -- 4) (pair key (map string_of_int small_nat)) in
  return
    (Txn.make_record ~txn_id ~origin ~read_position:rp ~reads
       ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"record/entry codec roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 5) record_gen))
    (fun entry ->
      let encoded = Codec.encode Txn.entry_codec entry in
      Txn.equal_entry (Codec.decode_exn Txn.entry_codec encoded) entry)

(* ------------------------------------------------------------------ *)
(* Footprint-vs-reference equivalence: the conflict predicates now run
   on interned sorted-array footprints; these reference implementations
   are the pre-footprint list-based definitions, kept here as the
   executable spec the fast versions must agree with everywhere. *)

let ref_read_set (r : Txn.record) = List.sort_uniq String.compare r.Txn.reads

let ref_write_set (r : Txn.record) =
  List.sort_uniq String.compare (List.map (fun w -> w.Txn.key) r.Txn.writes)

let ref_reads_from t s =
  let written = ref_write_set s in
  List.exists (fun k -> List.mem k written) (ref_read_set t)

let ref_conflicts_with_any t winners = List.exists (ref_reads_from t) winners

let ref_valid_combination entry =
  let rec go preceding_writes = function
    | [] -> true
    | (r : Txn.record) :: rest ->
        let stale =
          List.exists (fun k -> List.mem k preceding_writes) (ref_read_set r)
        in
        (not stale) && go (List.rev_append (ref_write_set r) preceding_writes) rest
  in
  go [] entry

let prop_sets_match_reference =
  QCheck.Test.make ~name:"footprint read/write sets match list reference" ~count:500
    (QCheck.make record_gen)
    (fun r ->
      Txn.read_set r = ref_read_set r
      && Txn.write_set r = ref_write_set r
      && Array.to_list (Txn.read_keys r) = ref_read_set r
      && Array.to_list (Txn.write_keys r) = ref_write_set r)

let prop_reads_from_matches_reference =
  QCheck.Test.make ~name:"footprint reads_from matches list reference" ~count:1000
    (QCheck.make QCheck.Gen.(pair record_gen record_gen))
    (fun (t, s) -> Txn.reads_from t s = ref_reads_from t s)

let prop_conflicts_matches_reference =
  QCheck.Test.make ~name:"footprint conflicts_with_any matches list reference"
    ~count:500
    (QCheck.make QCheck.Gen.(pair record_gen (list_size (0 -- 6) record_gen)))
    (fun (t, winners) ->
      Txn.conflicts_with_any t winners = ref_conflicts_with_any t winners)

let prop_valid_combination_matches_reference =
  QCheck.Test.make ~name:"footprint valid_combination matches list reference"
    ~count:1000
    (QCheck.make QCheck.Gen.(list_size (0 -- 6) record_gen))
    (fun entry -> Txn.valid_combination entry = ref_valid_combination entry)

let prop_footprint_decode_rebuild =
  (* The codec drops the footprint on encode and rebuilds it on decode:
     the decoded record's predicates must behave identically. *)
  QCheck.Test.make ~name:"decoded records carry equivalent footprints" ~count:300
    (QCheck.make QCheck.Gen.(pair record_gen record_gen))
    (fun (t, s) ->
      let roundtrip r =
        Codec.decode_exn Txn.record_codec (Codec.encode Txn.record_codec r)
      in
      let t' = roundtrip t and s' = roundtrip s in
      Txn.read_set t' = Txn.read_set t
      && Txn.write_set t' = Txn.write_set t
      && Txn.reads_from t' s' = Txn.reads_from t s)

let prop_combination_prefix_closed =
  (* Any prefix of a valid combination is itself valid. *)
  QCheck.Test.make ~name:"valid combinations are prefix-closed" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 5) record_gen))
    (fun entry ->
      (not (Txn.valid_combination entry))
      ||
      let rec prefixes acc = function
        | [] -> [ List.rev acc ]
        | x :: rest -> List.rev acc :: prefixes (x :: acc) rest
      in
      List.for_all Txn.valid_combination (prefixes [] entry))

(* ------------------------------------------------------------------ *)
(* The sharded interner under concurrency: ids must be globally
   consistent — whichever domain interns a key first, every domain sees
   the same id, reverse lookup works, and no id is ever assigned twice. *)

let test_intern_cross_domain () =
  let n = 200 in
  let keys = Array.init n (Printf.sprintf "xdom-key-%d") in
  let before = Txn.Intern.count () in
  let intern_all order = Array.map (fun k -> (k, Txn.Intern.id k)) order in
  let reversed = Array.init n (fun i -> keys.(n - 1 - i)) in
  let evens_first =
    Array.init n (fun i ->
        keys.(if i < n / 2 then 2 * i else (2 * (i - (n / 2))) + 1))
  in
  (* Three domains race on the same fresh key set in different orders while
     the caller interns too; every key is contended at least once. *)
  let d1 = Domain.spawn (fun () -> intern_all keys) in
  let d2 = Domain.spawn (fun () -> intern_all reversed) in
  let d3 = Domain.spawn (fun () -> intern_all evens_first) in
  let here = intern_all keys in
  let views = [ here; Domain.join d1; Domain.join d2; Domain.join d3 ] in
  let canonical = Hashtbl.create n in
  Array.iter (fun (k, id) -> Hashtbl.replace canonical k id) here;
  List.iter
    (Array.iter (fun (k, id) ->
         Alcotest.(check int)
           (Printf.sprintf "id of %s consistent across domains" k)
           (Hashtbl.find canonical k) id))
    views;
  let distinct = Hashtbl.create n in
  Array.iter (fun (_, id) -> Hashtbl.replace distinct id ()) here;
  Alcotest.(check int) "no id assigned twice" n (Hashtbl.length distinct);
  Alcotest.(check int) "exactly n fresh ids minted" (before + n)
    (Txn.Intern.count ());
  Array.iter
    (fun (k, id) ->
      Alcotest.(check (option string)) "reverse lookup" (Some k)
        (Txn.Intern.name id))
    here

(* A repeated key is served lock-free from its stripe's snapshot once the
   stripe has merged: after [1 + count/4] further first sightings in the
   same stripe (the snapshot holds at most [count] keys), a merge has
   published it. Keys are routed to one stripe by the interner's own rule,
   [(Hashtbl.hash key lsr 24) land 63]. *)
let test_intern_repeat_from_snapshot () =
  let stripe_of key = (Hashtbl.hash key lsr 24) land 63 in
  let target = stripe_of "snap-key" in
  let fresh =
    let i = ref 0 in
    let rec next () =
      incr i;
      let key = Printf.sprintf "snap-key-%d" !i in
      if stripe_of key = target then key else next ()
    in
    next
  in
  let key = fresh () in
  let id = Txn.Intern.id key in
  for _ = 0 to 1 + (Txn.Intern.count () / 4) do
    ignore (Txn.Intern.id (fresh ()))
  done;
  let before = Txn.Intern.slow_lookups () in
  for _ = 1 to 10 do
    Alcotest.(check int) "same id" id (Txn.Intern.id key)
  done;
  Alcotest.(check int) "no locked lookups for a published key" before
    (Txn.Intern.slow_lookups ());
  (* A YCSB-sized universe: 100 keys over 64 stripes, a key or two each.
     After one pass has interned them, repeat passes stay off the locks
     except for the few keys still pending in their stripe. *)
  let keys = Array.init 100 (Printf.sprintf "snap-ycsb-a%03d") in
  Array.iter (fun k -> ignore (Txn.Intern.id k)) keys;
  let before = Txn.Intern.slow_lookups () in
  Array.iter (fun k -> ignore (Txn.Intern.id k)) keys;
  let slow = Txn.Intern.slow_lookups () - before in
  (* About a quarter stay pending here; a fixed floor of 16 on the merge
     threshold kept all 100 on the locked path. *)
  if slow > 40 then
    Alcotest.failf "%d of 100 repeated lookups took a stripe lock" slow

(* Stripes and their tables must not pick from the same hash bits: a
   stripe chosen by the bits its tables bucket by fills 1/64 of its
   buckets, and every snapshot probe walks a chain tens of keys long. *)
let test_intern_buckets_spread () =
  for i = 1 to 4000 do
    ignore (Txn.Intern.id (Printf.sprintf "spread/%d" i))
  done;
  let longest = Txn.Intern.longest_chain () in
  if longest > 12 then
    Alcotest.failf "a stripe snapshot has a %d-key bucket chain" longest

let raw_record_gen =
  (* Raw construction inputs (not a built record): the point of the
     cross-domain property is that make_record — and hence interning —
     happens on the spawned domain. A wide key pool keeps a fresh-intern
     mix in every run alongside re-interned keys. *)
  let open QCheck.Gen in
  let key = map (Printf.sprintf "xq%d") (int_bound 60) in
  let* txn_id = map (Printf.sprintf "t%d") small_nat in
  let* reads = list_size (0 -- 4) key in
  let* writes = list_size (0 -- 4) (pair key (map string_of_int small_nat)) in
  return (txn_id, reads, writes)

let prop_cross_domain_footprints =
  QCheck.Test.make ~name:"footprints built on different domains intersect correctly"
    ~count:50
    (QCheck.make QCheck.Gen.(pair raw_record_gen raw_record_gen))
    (fun (a, b) ->
      let build (txn_id, reads, writes) =
        Txn.make_record ~txn_id ~origin:0 ~read_position:0 ~reads
          ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)
      in
      let d1 = Domain.spawn (fun () -> build a) in
      let d2 = Domain.spawn (fun () -> build b) in
      let t = Domain.join d1 and s = Domain.join d2 in
      Txn.reads_from t s = ref_reads_from t s
      && Txn.reads_from s t = ref_reads_from s t
      && Txn.conflicts_with_any t [ s ] = ref_conflicts_with_any t [ s ]
      && Txn.valid_combination [ t; s ] = ref_valid_combination [ t; s ])

let () =
  Alcotest.run "types"
    [
      ( "txn",
        [
          Alcotest.test_case "read/write sets" `Quick test_sets;
          Alcotest.test_case "reads_from" `Quick test_reads_from;
          Alcotest.test_case "valid_combination" `Quick test_valid_combination;
          Alcotest.test_case "mem_entry" `Quick test_mem_entry;
          Alcotest.test_case "equality and printing" `Quick test_equal_and_pp;
        ] );
      ( "props",
        [
          QCheck_alcotest.to_alcotest prop_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_combination_prefix_closed;
        ] );
      ( "footprint-equivalence",
        [
          QCheck_alcotest.to_alcotest prop_sets_match_reference;
          QCheck_alcotest.to_alcotest prop_reads_from_matches_reference;
          QCheck_alcotest.to_alcotest prop_conflicts_matches_reference;
          QCheck_alcotest.to_alcotest prop_valid_combination_matches_reference;
          QCheck_alcotest.to_alcotest prop_footprint_decode_rebuild;
        ] );
      ( "intern-sharded",
        [
          Alcotest.test_case "cross-domain id consistency" `Quick
            test_intern_cross_domain;
          Alcotest.test_case "repeated key served from the snapshot" `Quick
            test_intern_repeat_from_snapshot;
          Alcotest.test_case "stripe snapshots spread over their buckets" `Quick
            test_intern_buckets_spread;
          QCheck_alcotest.to_alcotest prop_cross_domain_footprints;
        ] );
    ]
