(* Unit tests for the transaction tier: service request handling
   (Algorithm 1), the combination search, configuration, and audit. *)

module Cluster = Mdds_core.Cluster
module Counters = Mdds_core.Counters
module Client = Mdds_core.Client
module Verify = Mdds_core.Verify
module Service = Mdds_core.Service
module Messages = Mdds_core.Messages
module Config = Mdds_core.Config
module Combine = Mdds_core.Combine
module Audit = Mdds_core.Audit
module Proposer = Mdds_core.Proposer
module Rtt = Mdds_core.Rtt
module Ballot = Mdds_paxos.Ballot
module Acceptor = Mdds_paxos.Acceptor
module Topology = Mdds_net.Topology
module Txn = Mdds_types.Txn

let record ?(reads = []) ?(writes = []) ?(rp = 0) ?(origin = 0) txn_id =
  Txn.make_record ~txn_id ~origin ~read_position:rp ~reads
    ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)

(* Drive one service directly inside a running engine. *)
let with_service f =
  let cluster = Cluster.create ~seed:3 (Topology.ec2 "VVV") in
  let service = Cluster.service cluster 0 in
  let result = ref None in
  Cluster.spawn cluster (fun () -> result := Some (f cluster service));
  Cluster.run cluster;
  Option.get !result

let b round proposer = Ballot.make ~round ~proposer

let group = "g"

(* ------------------------------------------------------------------ *)
(* Service: Paxos message handling against persisted state.             *)

let test_service_prepare_promise_reject () =
  with_service (fun _cluster service ->
      (match Service.handle service ~src:1 (Messages.Prepare { group; pos = 1; ballot = b 2 1 }) with
      | Messages.Promise { vote = None } -> ()
      | _ -> Alcotest.fail "expected null promise");
      (* Lower ballot now rejected, with the promised ballot as hint. *)
      (match Service.handle service ~src:2 (Messages.Prepare { group; pos = 1; ballot = b 1 2 }) with
      | Messages.Prepare_reject { next_bal } ->
          Alcotest.(check bool) "hint" true (Ballot.equal next_bal (b 2 1))
      | _ -> Alcotest.fail "expected reject");
      (* State persisted in the KV store. *)
      let state = Service.acceptor_state service ~group ~pos:1 in
      Alcotest.(check bool) "persisted nextBal" true
        (Ballot.equal state.Acceptor.next_bal (b 2 1)))

let test_service_accept_and_vote () =
  with_service (fun _cluster service ->
      let entry = [ record "t1" ~writes:[ ("x", "1") ] ] in
      ignore (Service.handle service ~src:1 (Messages.Prepare { group; pos = 1; ballot = b 1 1 }));
      (match
         Service.handle service ~src:1
           (Messages.accept ~group ~pos:1 ~ballot:(b 1 1) entry)
       with
      | Messages.Accept_reply { ok = true; _ } -> ()
      | _ -> Alcotest.fail "accept at promised ballot");
      (* The vote is returned by a later prepare. *)
      (match Service.handle service ~src:2 (Messages.Prepare { group; pos = 1; ballot = b 5 2 }) with
      | Messages.Promise { vote = Some (bv, e) } ->
          Alcotest.(check bool) "vote ballot" true (Ballot.equal bv (b 1 1));
          Alcotest.(check bool) "vote value" true (Txn.equal_entry e entry)
      | _ -> Alcotest.fail "vote not carried");
      (* Stale accept refused. *)
      match
        Service.handle service ~src:1
          (Messages.accept ~group ~pos:1 ~ballot:(b 2 1) entry)
      with
      | Messages.Accept_reply { ok = false; _ } -> ()
      | _ -> Alcotest.fail "stale accept must fail")

let test_service_fast_accept () =
  with_service (fun _cluster service ->
      let entry = [ record "fast" ] in
      match
        Service.handle service ~src:0
          (Messages.accept ~group ~pos:1 ~ballot:(Ballot.fast ~proposer:0) entry)
      with
      | Messages.Accept_reply { ok = true; _ } -> ()
      | _ -> Alcotest.fail "round-0 accept on fresh position must succeed")

let test_service_apply_and_read_position () =
  with_service (fun _cluster service ->
      (match Service.handle service ~src:0 (Messages.Get_read_position { group }) with
      | Messages.Read_position { position = 0; leader = None } -> ()
      | _ -> Alcotest.fail "empty log");
      let entry = [ record "t1" ~origin:2 ~writes:[ ("x", "1") ] ] in
      (match Service.handle service ~src:0 (Messages.apply ~group ~pos:1 entry) with
      | Messages.Applied -> ()
      | _ -> Alcotest.fail "apply");
      match Service.handle service ~src:0 (Messages.Get_read_position { group }) with
      | Messages.Read_position { position = 1; leader = Some 2 } -> ()
      | Messages.Read_position { position; leader } ->
          Alcotest.failf "position %d leader %s" position
            (match leader with None -> "-" | Some d -> string_of_int d)
      | _ -> Alcotest.fail "read position")

let test_service_read_serves_versions () =
  with_service (fun _cluster service ->
      ignore
        (Service.handle service ~src:0
           (Messages.apply ~group ~pos:1 [ record "t1" ~writes:[ ("x", "a") ] ]));
      ignore
        (Service.handle service ~src:0
           (Messages.apply ~group ~pos:2 [ record "t2" ~rp:1 ~writes:[ ("x", "b") ] ]));
      (match Service.handle service ~src:0 (Messages.Read { group; key = "x"; position = 1 }) with
      | Messages.Value { value = Some "a" } -> ()
      | _ -> Alcotest.fail "snapshot read at 1");
      (match Service.handle service ~src:0 (Messages.Read { group; key = "x"; position = 2 }) with
      | Messages.Value { value = Some "b" } -> ()
      | _ -> Alcotest.fail "read at 2");
      match Service.handle service ~src:0 (Messages.Read { group; key = "nope"; position = 2 }) with
      | Messages.Value { value = None } -> ()
      | _ -> Alcotest.fail "missing key")

let test_service_claim () =
  with_service (fun _cluster service ->
      (match
         Service.handle service ~src:0
           (Messages.Claim_leadership { group; pos = 1; claimant = "alice" })
       with
      | Messages.Claim_reply { first = true } -> ()
      | _ -> Alcotest.fail "first claim");
      (match
         Service.handle service ~src:1
           (Messages.Claim_leadership { group; pos = 1; claimant = "bob" })
       with
      | Messages.Claim_reply { first = false } -> ()
      | _ -> Alcotest.fail "second claim");
      (* Re-claim by the original claimant is still first (idempotent). *)
      match
        Service.handle service ~src:0
          (Messages.Claim_leadership { group; pos = 1; claimant = "alice" })
      with
      | Messages.Claim_reply { first = true } -> ()
      | _ -> Alcotest.fail "idempotent claim")

let test_service_read_with_learn () =
  (* dc0 misses position 1 (only applied at dc1 and dc2); a read at 1 via
     dc0 must learn it from its peers. *)
  let cluster = Cluster.create ~seed:9 (Topology.ec2 "VVV") in
  let entry = [ record "t1" ~writes:[ ("x", "learned") ] ] in
  let done_ = ref false in
  Cluster.spawn cluster (fun () ->
      (* Drive a full Paxos instance against dc1 and dc2 only, bypassing
         dc0, by sending messages directly. *)
      List.iter
        (fun dc ->
          let service = Cluster.service cluster dc in
          ignore
            (Service.handle service ~src:1
               (Messages.Prepare { group; pos = 1; ballot = b 1 1 }));
          ignore
            (Service.handle service ~src:1
               (Messages.accept ~group ~pos:1 ~ballot:(b 1 1) entry));
          ignore (Service.handle service ~src:1 (Messages.apply ~group ~pos:1 entry)))
        [ 1; 2 ];
      (* Now read through dc0 at position 1. *)
      (match
         Service.handle (Cluster.service cluster 0) ~src:0
           (Messages.Read { group; key = "x"; position = 1 })
       with
      | Messages.Value { value = Some "learned" } -> ()
      | Messages.Value { value } ->
          Alcotest.failf "got %s" (Option.value value ~default:"<none>")
      | _ -> Alcotest.fail "read failed");
      Alcotest.(check int) "one learn" 1 (Service.learns (Cluster.service cluster 0));
      done_ := true);
  Cluster.run cluster;
  Alcotest.(check bool) "ran" true !done_

(* Restart scans every group with a durable row. The groups come from
   the named rows' keys and from the families that hold rows, which
   name no key; the reference reads each family through its handle. *)
let test_durable_groups () =
  with_service (fun _cluster service ->
      let module Store = Mdds_kvstore.Store in
      let store = Service.store service in
      let entry = [ record "t1" ~writes:[ ("x", "1") ] ] in
      ignore (Service.handle service ~src:1 (Messages.Prepare { group; pos = 1; ballot = b 2 1 }));
      ignore (Service.handle service ~src:1 (Messages.apply ~group ~pos:1 entry));
      ignore
        (Service.handle service ~src:0
           (Messages.Claim_leadership { group = "claims"; pos = 3; claimant = "a" }));
      ignore
        (Service.handle service ~src:1
           (Messages.Prepare { group = "votes"; pos = 2; ballot = b 2 1 }));
      ignore (Store.write store ~key:"data/only-data/k" [ ("v", "1") ]);
      ignore (Store.write store ~key:"recover/only-recover" [ ("4", "1") ]);
      ignore (Store.write store ~key:"other/ignored" [ ("v", "1") ]);
      (* A family emptied by compaction names no group by itself. *)
      ignore
        (Service.handle service ~src:1
           (Messages.Prepare { group = "gone"; pos = 1; ballot = b 2 1 }));
      Store.delete_at (Store.family store ~prefix:"paxos/gone/") 1;
      let named =
        Store.keys store
        |> List.filter_map (fun key ->
               match String.split_on_char '/' key with
               | kind :: g :: _
                 when g <> ""
                      && List.mem kind
                           [ "logmeta"; "log"; "data"; "paxos"; "claim"; "recover" ] ->
                   Some g
               | _ -> None)
        |> List.sort_uniq String.compare
      in
      Alcotest.(check (list string)) "the groups the named rows name"
        [ "g"; "only-data"; "only-recover" ] named;
      let in_families =
        List.filter
          (fun g ->
            List.exists
              (fun kind -> Store.positions (Store.family store ~prefix:(kind ^ "/" ^ g ^ "/")) <> [])
              [ "log"; "paxos"; "claim" ])
          [ "claims"; "g"; "gone"; "votes" ]
      in
      Alcotest.(check (list string)) "the groups whose families hold rows"
        [ "claims"; "g"; "votes" ] in_families;
      let expected = List.sort_uniq String.compare (named @ in_families) in
      Alcotest.(check (list string)) "durable_groups" expected
        (Service.durable_groups service);
      Service.restart service;
      Alcotest.(check (list string)) "after a restart" expected
        (Service.durable_groups service))

let test_service_restart_keeps_promises () =
  with_service (fun _cluster service ->
      (* Promise ballot (5,1), vote at it, then restart. *)
      ignore (Service.handle service ~src:1 (Messages.Prepare { group; pos = 1; ballot = b 5 1 }));
      let entry = [ record "t1" ~writes:[ ("x", "1") ] ] in
      ignore
        (Service.handle service ~src:1
           (Messages.accept ~group ~pos:1 ~ballot:(b 5 1) entry));
      ignore (Service.handle service ~src:0 (Messages.Claim_leadership { group; pos = 2; claimant = "a" }));
      Service.restart service;
      (* Durable: the promise still blocks lower ballots, and the vote is
         still reported. *)
      (match Service.handle service ~src:2 (Messages.Prepare { group; pos = 1; ballot = b 3 2 }) with
      | Messages.Prepare_reject { next_bal } ->
          Alcotest.(check bool) "promise survived restart" true
            (Ballot.equal next_bal (b 5 1))
      | _ -> Alcotest.fail "promise lost across restart");
      (match Service.handle service ~src:2 (Messages.Prepare { group; pos = 1; ballot = b 9 2 }) with
      | Messages.Promise { vote = Some (bv, _) } ->
          Alcotest.(check bool) "vote survived restart" true (Ballot.equal bv (b 5 1))
      | _ -> Alcotest.fail "vote lost across restart");
      (* Durable: leadership claims survive too. The fast path is only
         safe if at most one round-0 value ever exists per position, so a
         restart must not let a second claimant be "first" — a rival
         round-0 vote is exactly the split the chaos tests surface. *)
      (match
         Service.handle service ~src:1
           (Messages.Claim_leadership { group; pos = 2; claimant = "b" })
       with
      | Messages.Claim_reply { first = false } -> ()
      | _ -> Alcotest.fail "claims must be durable across restart");
      match
        Service.handle service ~src:0
          (Messages.Claim_leadership { group; pos = 2; claimant = "a" })
      with
      | Messages.Claim_reply { first = true } -> ()
      | _ -> Alcotest.fail "original claimant still first after restart")

(* ------------------------------------------------------------------ *)
(* Combination search.                                                  *)

let test_combine_includes_own () =
  let own = record "own" ~reads:[ "a" ] in
  let result = Combine.best ~own ~candidates:[] ~exhaustive_limit:4 in
  Alcotest.(check bool) "own alone" true (Txn.equal_entry result [ own ])

let test_combine_compatible () =
  let own = record "own" ~reads:[ "a" ] ~writes:[ ("a", "1") ] in
  let c1 = record "c1" ~reads:[ "b" ] ~writes:[ ("b", "1") ] in
  let c2 = record "c2" ~reads:[ "c" ] ~writes:[ ("c", "1") ] in
  let result = Combine.best ~own ~candidates:[ c1; c2 ] ~exhaustive_limit:4 in
  Alcotest.(check int) "all three" 3 (List.length result);
  Alcotest.(check bool) "valid" true (Txn.valid_combination result);
  Alcotest.(check bool) "contains own" true (Txn.mem_entry ~txn_id:"own" result)

let test_combine_ordering_matters () =
  (* c reads "a" which own writes: c must precede own; a greedy append
     would drop it, the exhaustive search keeps it by reordering. *)
  let own = record "own" ~writes:[ ("a", "1") ] in
  let c = record "c" ~reads:[ "a" ] ~writes:[ ("b", "1") ] in
  let result = Combine.best ~own ~candidates:[ c ] ~exhaustive_limit:4 in
  Alcotest.(check int) "both kept" 2 (List.length result);
  match result with
  | [ first; second ] ->
      Alcotest.(check string) "reader first" "c" first.Txn.txn_id;
      Alcotest.(check string) "writer second" "own" second.Txn.txn_id
  | _ -> Alcotest.fail "unexpected shape"

let test_combine_conflicting_dropped () =
  (* Mutually incompatible candidates: both read what own writes AND own
     reads what they write — no valid two-element ordering. *)
  let own = record "own" ~reads:[ "x" ] ~writes:[ ("y", "1") ] in
  let cand = record "c" ~reads:[ "y" ] ~writes:[ ("x", "1") ] in
  let result = Combine.best ~own ~candidates:[ cand ] ~exhaustive_limit:4 in
  Alcotest.(check bool) "own only" true (Txn.equal_entry result [ own ])

let test_combine_dedup () =
  let own = record "own" in
  let c = record "c" in
  let result =
    Combine.best ~own ~candidates:[ c; c; record "own" ] ~exhaustive_limit:4
  in
  Alcotest.(check int) "deduplicated" 2 (List.length result)

let test_combine_greedy_beyond_limit () =
  let own = record "own" ~writes:[ ("o", "1") ] in
  let candidates =
    List.init 8 (fun i ->
        record (Printf.sprintf "c%d" i) ~writes:[ (Printf.sprintf "k%d" i, "1") ])
  in
  let result = Combine.best ~own ~candidates ~exhaustive_limit:4 in
  Alcotest.(check int) "greedy keeps all disjoint" 9 (List.length result);
  Alcotest.(check bool) "valid" true (Txn.valid_combination result)

let test_combine_budget_cutover () =
  (* 8 independent candidates past the limit: [best] answers with the
     greedy pass — the same answer as at limit 0, where candidates always
     exceed it — which keeps every disjoint candidate here, so the answer
     is still maximal. *)
  let own = record "own" ~writes:[ ("o", "1") ] in
  let candidates =
    List.init 8 (fun i ->
        record (Printf.sprintf "c%d" i) ~writes:[ (Printf.sprintf "k%d" i, "1") ])
  in
  let answer = Combine.best ~own ~candidates ~exhaustive_limit:4 in
  Alcotest.(check bool) "answer = greedy answer" true
    (Txn.equal_entry answer (Combine.best ~own ~candidates ~exhaustive_limit:0));
  Alcotest.(check bool) "still valid" true (Txn.valid_combination answer);
  Alcotest.(check int) "still maximal here" 9 (List.length answer)

let test_candidates_of_votes () =
  let own = record "own" in
  let e1 = [ record "a"; record "b" ] in
  let e2 = [ record "b"; record "own"; record "c" ] in
  let candidates = Combine.candidates_of_votes ~own [ e1; e2 ] in
  Alcotest.(check (list string)) "dedup, own excluded, order kept"
    [ "a"; "b"; "c" ]
    (List.map (fun (r : Txn.record) -> r.Txn.txn_id) candidates)

(* Brute-force oracle: the true maximum-length valid ordering of own +
   any subset of candidates, by enumerating all permutations of all
   subsets. Only usable for tiny candidate sets. *)
let brute_force_best ~own ~candidates =
  let rec subsets = function
    | [] -> [ [] ]
    | x :: rest ->
        let s = subsets rest in
        s @ List.map (fun l -> x :: l) s
  in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y != x) l in
            List.map (fun p -> x :: p) (permutations rest))
          l
  in
  let best = ref 1 in
  List.iter
    (fun subset ->
      List.iter
        (fun perm ->
          (* own inserted at every slot *)
          let n = List.length perm in
          for at = 0 to n do
            let ordering =
              List.filteri (fun i _ -> i < at) perm
              @ [ own ]
              @ List.filteri (fun i _ -> i >= at) perm
            in
            if Txn.valid_combination ordering then
              best := max !best (List.length ordering)
          done)
        (permutations subset))
    (subsets candidates);
  !best

let prop_combine_exhaustive_is_optimal =
  let open QCheck in
  let key_gen = Gen.oneofl [ "a"; "b"; "c" ] in
  let rec_gen i =
    Gen.(
      map2
        (fun reads writes ->
          record (Printf.sprintf "r%d" i) ~reads
            ~writes:(List.map (fun k -> (k, "v")) writes))
        (list_size (0 -- 2) key_gen)
        (list_size (0 -- 2) key_gen))
  in
  Test.make ~name:"exhaustive combination matches brute force" ~count:150
    (make Gen.(flatten_l (List.init 4 rec_gen)))
    (fun records ->
      match records with
      | [] -> true
      | own :: candidates ->
          let result = Combine.best ~own ~candidates ~exhaustive_limit:4 in
          List.length result = brute_force_best ~own ~candidates)

let prop_combine_always_valid =
  let open QCheck in
  let key_gen = Gen.oneofl [ "a"; "b"; "c" ] in
  let rec_gen i =
    Gen.(
      map2
        (fun reads writes ->
          record (Printf.sprintf "r%d" i) ~reads
            ~writes:(List.map (fun k -> (k, "v")) writes))
        (list_size (0 -- 2) key_gen)
        (list_size (0 -- 2) key_gen))
  in
  Test.make ~name:"combination output is always valid and contains own" ~count:300
    (make Gen.(flatten_l (List.init 5 rec_gen)))
    (fun records ->
      match records with
      | [] -> true
      | own :: candidates ->
          let result = Combine.best ~own ~candidates ~exhaustive_limit:3 in
          Txn.valid_combination result
          && Txn.mem_entry ~txn_id:own.Txn.txn_id result)

(* Reference implementation of the pre-planner combination search: the
   old list-based code, validity re-derived from scratch per probe. The
   incremental matrix planner must return the *identical ordering* — not
   just one of equal length — because the chosen entry is figure output. *)
let ref_valid_combination entry =
  let rset (r : Txn.record) = List.sort_uniq String.compare r.Txn.reads in
  let wset (r : Txn.record) =
    List.sort_uniq String.compare (List.map (fun w -> w.Txn.key) r.Txn.writes)
  in
  let rec go preceding_writes = function
    | [] -> true
    | r :: rest ->
        let stale = List.exists (fun k -> List.mem k preceding_writes) (rset r) in
        (not stale) && go (List.rev_append (wset r) preceding_writes) rest
  in
  go [] entry

let ref_exhaustive ~own candidates =
  let best = ref [ own ] in
  let consider ordering =
    if List.length ordering > List.length !best then best := ordering
  in
  let rec insert_everywhere x prefix = function
    | [] -> [ List.rev_append prefix [ x ] ]
    | y :: rest as suffix ->
        List.rev_append prefix (x :: suffix)
        :: insert_everywhere x (y :: prefix) rest
  in
  let rec go ordering remaining =
    consider ordering;
    List.iteri
      (fun i candidate ->
        let rest = List.filteri (fun j _ -> j <> i) remaining in
        List.iter
          (fun ordering' ->
            if ref_valid_combination ordering' then go ordering' rest)
          (insert_everywhere candidate [] ordering))
      remaining
  in
  go [ own ] candidates;
  !best

let ref_greedy ~own candidates =
  List.fold_left
    (fun acc candidate ->
      let attempt = acc @ [ candidate ] in
      if ref_valid_combination attempt then attempt else acc)
    [ own ] candidates

let ref_best ~own ~candidates ~exhaustive_limit =
  let candidates =
    let seen = Hashtbl.create 8 in
    Hashtbl.replace seen own.Txn.txn_id ();
    List.filter
      (fun (r : Txn.record) ->
        if Hashtbl.mem seen r.txn_id then false
        else begin
          Hashtbl.replace seen r.txn_id ();
          true
        end)
      candidates
  in
  if List.length candidates <= exhaustive_limit then ref_exhaustive ~own candidates
  else ref_greedy ~own candidates

let combine_case_gen n_max =
  let open QCheck.Gen in
  let key_gen = oneofl [ "a"; "b"; "c"; "d" ] in
  let rec_gen i =
    map2
      (fun reads writes ->
        record (Printf.sprintf "r%d" i) ~reads
          ~writes:(List.map (fun k -> (k, "v")) writes))
      (list_size (0 -- 2) key_gen)
      (list_size (0 -- 2) key_gen)
  in
  let* n = 1 -- n_max in
  (* Duplicate ids on purpose (modulo wraps the id space): the shared
     dedup helper must behave as the old copy-pasted one did. *)
  let* ids = list_size (return n) (int_bound (n - 1)) in
  flatten_l (List.map rec_gen ids)

let ordering_ids entry = List.map (fun (r : Txn.record) -> r.Txn.txn_id) entry

let prop_combine_identical_ordering =
  (* Candidate sets 0-10 with exhaustive_limit 4: sizes <= 4 take the
     incremental matrix planner, larger ones the footprint greedy pass;
     both must reproduce the old implementation's ordering exactly. *)
  QCheck.Test.make ~name:"planner returns the identical ordering (limit 4, 0-10 candidates)"
    ~count:400
    (QCheck.make (combine_case_gen 11))
    (fun records ->
      match records with
      | [] -> true
      | own :: candidates ->
          ordering_ids (Combine.best ~own ~candidates ~exhaustive_limit:4)
          = ordering_ids (ref_best ~own ~candidates ~exhaustive_limit:4))

let prop_combine_identical_ordering_deep =
  (* A higher limit keeps even 6-candidate sets on the exhaustive planner,
     exercising deep insertion/pruning paths against the reference. *)
  QCheck.Test.make ~name:"planner returns the identical ordering (limit 6, exhaustive)"
    ~count:100
    (QCheck.make (combine_case_gen 7))
    (fun records ->
      match records with
      | [] -> true
      | own :: candidates ->
          ordering_ids (Combine.best ~own ~candidates ~exhaustive_limit:6)
          = ordering_ids (ref_best ~own ~candidates ~exhaustive_limit:6))

(* ------------------------------------------------------------------ *)
(* Proposer driven directly against live services.                      *)

let test_proposer_adopts_existing_vote () =
  (* An acceptor already voted for value A at some ballot; a new proposer
     with its own value B must adopt A (findWinningVal). Drive it through
     the service handles. *)
  let cluster = Cluster.create ~seed:31 (Topology.ec2 "VVV") in
  let a_entry = [ record "A" ~writes:[ ("x", "A") ] ] in
  let done_ = ref false in
  Cluster.spawn cluster (fun () ->
      (* Seed votes for A at two services (a majority). *)
      List.iter
        (fun dc ->
          let s = Cluster.service cluster dc in
          ignore (Service.handle s ~src:0 (Messages.Prepare { group; pos = 1; ballot = b 1 0 }));
          ignore
            (Service.handle s ~src:0
               (Messages.accept ~group ~pos:1 ~ballot:(b 1 0) a_entry)))
        [ 0; 1 ];
      (* Now a fresh basic-protocol client tries to commit B at position 1:
         it must lose to A (the value is adopted and driven to a decision)
         and the log must hold A, not B. *)
      let client = Cluster.client cluster ~dc:2 in
      let txn = Client.begin_ client ~group in
      Client.write txn "x" "B";
      (match Client.commit txn with
      | Audit.Committed { position = 1; _ } -> Alcotest.fail "B must not win position 1"
      | _ -> ());
      (* The promoted client stopped early at position 1 (§5); a read at
         the head completes the orphaned instance via the learner. *)
      let txn2 = Client.begin_ client ~group in
      ignore (Client.read txn2 "x");
      ignore (Client.commit txn2);
      done_ := true);
  Cluster.run cluster;
  Alcotest.(check bool) "ran" true !done_;
  let log = Cluster.committed_log cluster ~group in
  (match List.assoc_opt 1 log with
  | Some entry -> Alcotest.(check bool) "A decided" true (Txn.mem_entry ~txn_id:"A" entry)
  | None -> Alcotest.fail "position 1 empty");
  Verify.check_exn cluster ~group

let test_fast_path_falls_back () =
  (* A round-0 fast accept arriving after a higher prepare is refused;
     the claimaint client still commits via the full protocol. *)
  let cluster = Cluster.create ~seed:33 (Topology.ec2 "VVV") in
  Cluster.spawn cluster (fun () ->
      (* Poison every acceptor with a high promise for position 1. *)
      List.iter
        (fun dc ->
          ignore
            (Service.handle (Cluster.service cluster dc) ~src:0
               (Messages.Prepare { group; pos = 1; ballot = b 7 0 })))
        [ 0; 1; 2 ];
      let client = Cluster.client cluster ~dc:0 in
      let txn = Client.begin_ client ~group in
      Client.write txn "x" "v";
      match Client.commit txn with
      | Audit.Committed { position = 1; _ } -> ()
      | _ -> Alcotest.fail "full protocol fallback failed");
  Cluster.run cluster;
  Verify.check_exn cluster ~group

(* ------------------------------------------------------------------ *)
(* Config and audit.                                                    *)

let test_config () =
  Alcotest.(check string) "names" "paxos" (Config.protocol_name Config.Basic);
  Alcotest.(check string) "names cp" "paxos-cp" (Config.protocol_name Config.Cp);
  Alcotest.(check bool) "basic variant" true (Config.basic.Config.protocol = Config.Basic);
  let c = Config.with_protocol Config.Basic Config.default in
  Alcotest.(check bool) "with_protocol" true (c.Config.protocol = Config.Basic)

let audit_event ?(stats = Audit.no_stats) ?(began_at = 0.0) ?(commit_started_at = 1.0)
    ?(committed_at = 2.0) outcome =
  {
    Audit.group = "g";
    record = record "t";
    observed = [];
    outcome;
    began_at;
    committed_at;
    commit_started_at;
    client_dc = 0;
    stats;
  }

let test_audit_aggregates () =
  let audit = Audit.create () in
  List.iter
    (fun outcome -> Audit.record audit (audit_event outcome))
    [
      Audit.Committed { position = 1; promotions = 0; combined = false };
      Audit.Committed { position = 2; promotions = 2; combined = true };
      Audit.Aborted { reason = Audit.Conflict; promotions = 1 };
      Audit.Read_only_committed;
    ];
  let s = Audit.summarize (Audit.events audit) in
  Alcotest.(check int) "total" 4 s.total;
  Alcotest.(check int) "commits" 3 s.commits;
  Alcotest.(check int) "aborts" 1 s.aborts;
  Alcotest.(check (array int)) "commits by round" [| 1; 0; 1 |] s.commits_by_round;
  Alcotest.(check int) "max promotions" 2 s.max_promotions;
  Alcotest.(check int) "conflict aborts" 1 (List.assoc Audit.Conflict s.aborts_by_reason);
  Alcotest.(check int) "latencies all" 2 (List.length s.commit_lats);
  Alcotest.(check int) "latencies round 2" 1 (List.length s.lats_by_round.(2));
  Alcotest.(check int) "txn latencies" 4 (List.length s.txn_lats)

(* [Audit.summarize] against one plain fold per statistic. Latency lists
   must match element for element and in order: the harness's float sums
   depend on it. *)
let prop_summarize_matches_reference =
  let gen_event =
    let open QCheck.Gen in
    let* promotions = int_bound 4 in
    let* outcome =
      oneof
        [
          map
            (fun position -> Audit.Committed { position; promotions; combined = false })
            (int_range 1 50);
          map
            (fun reason -> Audit.Aborted { reason; promotions })
            (oneofl
               [ Audit.Conflict; Audit.Lost_position; Audit.Promotion_limit; Audit.Unavailable ]);
          return Audit.Read_only_committed;
          return Audit.Unknown;
        ]
    in
    let* began_at = float_bound_inclusive 100.0 in
    let* exec = float_bound_inclusive 5.0 in
    let* commit = float_bound_inclusive 5.0 in
    let* prepare_rounds = int_bound 3 and* accept_rounds = int_bound 3 in
    let+ fast_path = bool in
    audit_event outcome ~began_at ~commit_started_at:(began_at +. exec)
      ~committed_at:(began_at +. exec +. commit)
      ~stats:{ Audit.prepare_rounds; accept_rounds; fast_path; instances = 1 }
  in
  QCheck.Test.make ~name:"summarize equals per-statistic folds" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 40) gen_event))
    (fun events ->
      let s = Audit.summarize events in
      let count p = List.length (List.filter p events) in
      let committed (e : Audit.event) =
        match e.outcome with Audit.Committed _ -> true | _ -> false
      in
      let promotions (e : Audit.event) =
        match e.outcome with
        | Audit.Committed { promotions; _ } | Audit.Aborted { promotions; _ } -> promotions
        | Audit.Read_only_committed | Audit.Unknown -> 0
      in
      let lat (e : Audit.event) = e.committed_at -. e.commit_started_at in
      let max_promotions = List.fold_left (fun m e -> max m (promotions e)) 0 events in
      let in_round r e = committed e && promotions e = r in
      let committed_rw = count committed in
      let per_commit f =
        if committed_rw = 0 then 0.0
        else
          float_of_int (List.fold_left (fun acc e -> if committed e then acc + f e else acc) 0 events)
          /. float_of_int committed_rw
      in
      let ok_commit (e : Audit.event) =
        match e.outcome with
        | Audit.Committed _ | Audit.Read_only_committed -> true
        | _ -> false
      in
      s.total = List.length events
      && s.commits = count ok_commit
      && s.aborts = count (fun e -> match e.outcome with Audit.Aborted _ -> true | _ -> false)
      && s.unknowns = count (fun e -> e.outcome = Audit.Unknown)
      && List.for_all
           (fun (reason, n) ->
             n
             = count (fun e ->
                   match e.outcome with Audit.Aborted a -> a.reason = reason | _ -> false))
           s.aborts_by_reason
      && List.length s.aborts_by_reason = 4
      && s.max_promotions = max_promotions
      && s.commits_by_round = Array.init (max_promotions + 1) (fun r -> count (in_round r))
      && s.commit_lats = List.map lat (List.filter committed events)
      && s.lats_by_round
         = Array.init (max_promotions + 1) (fun r ->
               List.map lat (List.filter (in_round r) events))
      && s.txn_lats = List.map (fun (e : Audit.event) -> e.committed_at -. e.began_at) events
      && s.last_commit
         = List.fold_left
             (fun m (e : Audit.event) -> if ok_commit e then Float.max m e.committed_at else m)
             0.0 events
      && s.mean_rounds
         = per_commit (fun e -> e.stats.prepare_rounds + e.stats.accept_rounds)
      && s.fast_path_rate = per_commit (fun e -> if e.stats.fast_path then 1 else 0))

(* ------------------------------------------------------------------ *)
(* Adaptive timeouts and duplicate-delivery idempotence.                *)

let prop_rtt_bounded =
  (* Whatever samples the estimator sees — including samples for
     out-of-range destinations, which it must ignore — every derived
     timeout stays inside [floor, rpc_timeout]. *)
  QCheck.Test.make ~name:"adaptive timeout stays within [floor, cap]" ~count:300
    QCheck.(list (pair (int_bound 4) (float_range 0.0 10.0)))
    (fun samples ->
      let floor = 0.05 and cap = 2.0 in
      let rtt = Rtt.create ~floor ~cap ~dcs:3 in
      List.iter (fun (dst, s) -> Rtt.observe rtt ~dst s) samples;
      let dsts = [ 0; 1; 2 ] in
      let bounded t = t >= floor && t <= cap in
      List.for_all (fun dst -> bounded (Rtt.timeout rtt ~dst)) dsts
      && bounded (Rtt.broadcast_timeout rtt ~dsts))

let prop_rtt_monotone =
  (* The timeout moves toward the evidence: a sample above the current
     estimate never lowers it, a sample below never raises it (clamping
     preserves monotonicity). *)
  QCheck.Test.make ~name:"ewma timeout moves toward the samples" ~count:300
    QCheck.(pair (list (float_range 0.001 5.0)) (float_range 0.001 5.0))
    (fun (warmup, sample) ->
      let rtt = Rtt.create ~floor:0.01 ~cap:10.0 ~dcs:1 in
      List.iter (fun s -> Rtt.observe rtt ~dst:0 s) warmup;
      let before = Rtt.timeout rtt ~dst:0 in
      let est = Rtt.estimate rtt ~dst:0 in
      Rtt.observe rtt ~dst:0 sample;
      let after = Rtt.timeout rtt ~dst:0 in
      match est with
      | None -> after <= before (* first sample only tightens from cap *)
      | Some e -> if sample >= e then after >= before else after <= before)

let test_timeout_fallback_exact () =
  (* With the flag off the client must behave byte-identically to the
     paper's fixed timeout: no estimator is built and [timeout_for]
     returns [rpc_timeout] exactly. *)
  let engine = Mdds_sim.Engine.create ~seed:1 () in
  let net = Mdds_net.Network.create engine (Topology.ec2 "VVV") in
  let rpc = Mdds_net.Rpc.create net in
  let mk config =
    Proposer.make_env ~rpc ~config ~dc:0 ~dcs:[ 0; 1; 2 ]
      ~rng:(Mdds_sim.Rng.create 1)
      ~trace:(Mdds_sim.Trace.create engine)
  in
  let off = mk Config.default in
  Alcotest.(check bool) "no estimator when flag off" true (off.Proposer.rtt = None);
  Alcotest.(check (float 0.0)) "timeout_for is exactly rpc_timeout"
    Config.default.Config.rpc_timeout
    (Proposer.timeout_for off ~dst:1);
  Alcotest.(check (float 0.0)) "broadcast_timeout is exactly rpc_timeout"
    Config.default.Config.rpc_timeout
    (Proposer.broadcast_timeout off);
  let on = mk { Config.default with Config.adaptive = true } in
  (match on.Proposer.rtt with
  | None -> Alcotest.fail "estimator missing with flag on"
  | Some rtt ->
      (* No samples yet: still the full rpc_timeout. *)
      Alcotest.(check (float 0.0)) "unsampled destination gets the cap"
        Config.default.Config.rpc_timeout
        (Proposer.timeout_for on ~dst:1);
      (* Fast observed RTTs tighten the timeout below the fixed one. *)
      for _ = 1 to 50 do
        Rtt.observe rtt ~dst:1 0.01
      done;
      Alcotest.(check bool) "samples tighten the timeout" true
        (Proposer.timeout_for on ~dst:1 < Config.default.Config.rpc_timeout);
      Alcotest.(check bool) "never below the floor" true
        (Proposer.timeout_for on ~dst:1 >= Rtt.floor));
  Alcotest.check_raises "floor > cap rejected"
    (Invalid_argument "Rtt.create: need 0 < floor <= cap") (fun () ->
      ignore (Rtt.create ~floor:3.0 ~cap:2.0 ~dcs:3));
  Alcotest.check_raises "rpc_timeout below the adaptive floor rejected"
    (Invalid_argument
       "Config.make: rpc_timeout = 0.01 < adaptive floor 0.05 (the floor \
        feeds a timeout capped at rpc_timeout)")
    (fun () -> ignore (Config.make ~rpc_timeout:0.01 ()));
  Alcotest.(check (float 0.0)) "rpc_timeout at the floor accepted" Rtt.floor
    (Config.make ~rpc_timeout:Rtt.floor ()).Config.rpc_timeout

let test_adaptive_fallback_order () =
  (* Under [adaptive] the client tries its own datacenter first, then the
     others nearest first by estimated RTT; unsampled ones come last, in
     topology order, and no RNG is drawn for the ordering. *)
  let engine = Mdds_sim.Engine.create ~seed:1 () in
  let net = Mdds_net.Network.create engine (Topology.ec2 "VVVOC") in
  let rpc = Mdds_net.Rpc.create net in
  let env =
    Proposer.make_env ~rpc
      ~config:{ Config.default with Config.adaptive = true }
      ~dc:2 ~dcs:[ 0; 1; 2; 3; 4 ] ~rng:(Mdds_sim.Rng.create 1)
      ~trace:(Mdds_sim.Trace.create engine)
  in
  Alcotest.(check (list int)) "unsampled: topology order" [ 2; 0; 1; 3; 4 ]
    (Client.service_order env);
  (match env.Proposer.rtt with
  | None -> Alcotest.fail "estimator missing with flag on"
  | Some rtt ->
      Rtt.observe rtt ~dst:2 0.5;
      Rtt.observe rtt ~dst:4 0.2;
      Rtt.observe rtt ~dst:1 0.01);
  Alcotest.(check (list int)) "local, nearest first, unsampled last"
    [ 2; 1; 4; 0; 3 ] (Client.service_order env);
  Alcotest.(check int) "no RNG drawn"
    (Mdds_sim.Rng.int (Mdds_sim.Rng.create 1) 1_000_000)
    (Mdds_sim.Rng.int env.Proposer.rng 1_000_000)

let test_service_duplicate_apply_idempotent () =
  (* A duplicated or replayed apply for an already-recorded position is
     absorbed and counted, never applied twice. *)
  with_service (fun _cluster service ->
      let entry = [ record "t1" ~writes:[ ("x", "1") ] ] in
      let apply () =
        match Service.handle service ~src:1 (Messages.apply ~group ~pos:1 entry) with
        | Messages.Applied -> ()
        | _ -> Alcotest.fail "apply"
      in
      apply ();
      apply ();
      apply ();
      Alcotest.(check int) "replays counted" 2
        (Counters.get (Service.counters service) Dup_applies);
      (match Service.handle service ~src:0 (Messages.Get_read_position { group }) with
      | Messages.Read_position { position = 1; _ } -> ()
      | _ -> Alcotest.fail "log advanced past the duplicate");
      match Service.handle service ~src:0 (Messages.Read { group; key = "x"; position = 1 }) with
      | Messages.Value { value = Some "1" } -> ()
      | _ -> Alcotest.fail "value applied once")

let test_service_duplicate_submit_same_position () =
  (* A duplicated or replayed submission (duplicating link, client retry
     under the leader protocol) is answered with the position the
     transaction already holds — sequencing it twice is an L2 violation
     (found by gray-failure chaos seed 2). *)
  with_service (fun _cluster service ->
      let r = record "t1" ~writes:[ ("x", "1") ] in
      let submit () =
        match
          Service.handle service ~src:0 (Messages.Submit { group; record = r })
        with
        | Messages.Submit_reply { result = Messages.Accepted_at pos } -> pos
        | _ -> Alcotest.fail "submit accepted"
      in
      let first = submit () in
      let replay = submit () in
      Alcotest.(check int) "same position, not a second slot" first replay;
      Alcotest.(check int) "replay counted" 1
        (Counters.get (Service.counters service) Dup_submits))

let test_service_duplicate_claim_first_wins () =
  (* The leadership claim is a durable first-wins register: a replayed
     claim from the registered owner gets the original grant back (and is
     counted), a rival is still refused. *)
  with_service (fun _cluster service ->
      let claim claimant =
        match
          Service.handle service ~src:1
            (Messages.Claim_leadership { group; pos = 1; claimant })
        with
        | Messages.Claim_reply { first } -> first
        | _ -> Alcotest.fail "claim reply"
      in
      Alcotest.(check bool) "first claim granted" true (claim "dc1");
      Alcotest.(check bool) "replayed claim re-granted, not re-won" true (claim "dc1");
      Alcotest.(check bool) "rival refused" false (claim "dc2");
      Alcotest.(check int) "replay counted" 1
        (Counters.get (Service.counters service) Dup_claims))

let () =
  Alcotest.run "core"
    [
      ( "service",
        [
          Alcotest.test_case "prepare promise/reject" `Quick test_service_prepare_promise_reject;
          Alcotest.test_case "accept and vote" `Quick test_service_accept_and_vote;
          Alcotest.test_case "fast accept" `Quick test_service_fast_accept;
          Alcotest.test_case "apply and read position" `Quick test_service_apply_and_read_position;
          Alcotest.test_case "versioned reads" `Quick test_service_read_serves_versions;
          Alcotest.test_case "leadership claims" `Quick test_service_claim;
          Alcotest.test_case "read triggers learn" `Quick test_service_read_with_learn;
          Alcotest.test_case "restart keeps promises" `Quick test_service_restart_keeps_promises;
          Alcotest.test_case "durable groups from rows and families" `Quick
            test_durable_groups;
          Alcotest.test_case "proposer adopts existing vote" `Quick test_proposer_adopts_existing_vote;
          Alcotest.test_case "fast path falls back" `Quick test_fast_path_falls_back;
        ] );
      ( "combine",
        [
          Alcotest.test_case "own alone" `Quick test_combine_includes_own;
          Alcotest.test_case "compatible candidates" `Quick test_combine_compatible;
          Alcotest.test_case "ordering matters" `Quick test_combine_ordering_matters;
          Alcotest.test_case "conflicting dropped" `Quick test_combine_conflicting_dropped;
          Alcotest.test_case "dedup" `Quick test_combine_dedup;
          Alcotest.test_case "greedy beyond limit" `Quick test_combine_greedy_beyond_limit;
          Alcotest.test_case "budget cutover to greedy" `Quick test_combine_budget_cutover;
          Alcotest.test_case "candidates of votes" `Quick test_candidates_of_votes;
          QCheck_alcotest.to_alcotest prop_combine_always_valid;
          QCheck_alcotest.to_alcotest prop_combine_exhaustive_is_optimal;
          QCheck_alcotest.to_alcotest prop_combine_identical_ordering;
          QCheck_alcotest.to_alcotest prop_combine_identical_ordering_deep;
        ] );
      ( "config-audit",
        [
          Alcotest.test_case "config" `Quick test_config;
          Alcotest.test_case "audit aggregates" `Quick test_audit_aggregates;
          QCheck_alcotest.to_alcotest prop_summarize_matches_reference;
        ] );
      ( "adaptive-timeouts",
        [
          QCheck_alcotest.to_alcotest prop_rtt_bounded;
          QCheck_alcotest.to_alcotest prop_rtt_monotone;
          Alcotest.test_case "exact fallback with flags off" `Quick
            test_timeout_fallback_exact;
          Alcotest.test_case "fallback order nearest first" `Quick
            test_adaptive_fallback_order;
        ] );
      ( "duplicate-delivery",
        [
          Alcotest.test_case "replayed apply absorbed" `Quick
            test_service_duplicate_apply_idempotent;
          Alcotest.test_case "replayed submit keeps its position" `Quick
            test_service_duplicate_submit_same_position;
          Alcotest.test_case "replayed claim re-granted" `Quick
            test_service_duplicate_claim_first_wins;
        ] );
    ]
