(* End-to-end protocol tests on full simulated clusters: client API
   semantics, basic-vs-CP behaviour, combination, promotion, and the
   one-copy serializability oracle over randomized workloads. *)

module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology
module Txn = Mdds_types.Txn
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

let group = "g"

let make ?(seed = 42) ?(config = Config.default) ?(spec = "VVV") () =
  Cluster.create ~seed ~config (Topology.ec2 spec)

let committed = function
  | Audit.Committed _ -> true
  | Audit.Aborted _ | Audit.Read_only_committed | Audit.Unknown -> false

(* ------------------------------------------------------------------ *)
(* Client API semantics.                                                *)

let test_read_your_writes () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group in
      Alcotest.(check (option string)) "unwritten" None (Client.read txn "k");
      Client.write txn "k" "mine";
      Alcotest.(check (option string)) "A1: own write visible" (Some "mine")
        (Client.read txn "k");
      Client.write txn "k" "mine2";
      Alcotest.(check (option string)) "latest own write" (Some "mine2")
        (Client.read txn "k");
      ignore (Client.commit txn));
  Cluster.run cluster;
  Verify.check_exn cluster ~group

let test_snapshot_isolation_of_reads () =
  (* A transaction's reads all come from its read position (A2), even if
     another transaction commits in between. *)
  let cluster = make () in
  let c1 = Cluster.client cluster ~dc:0 in
  let c2 = Cluster.client cluster ~dc:1 in
  (* Seed a value. *)
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ c1 ~group in
      Client.write txn "x" "v1";
      Client.write txn "y" "v1";
      assert (committed (Client.commit txn)));
  Cluster.run cluster;
  let observed = ref [] in
  Cluster.spawn cluster (fun () ->
      let reader = Client.begin_ c1 ~group in
      observed := [ ("x", Client.read reader "x") ];
      (* Meanwhile another client overwrites both keys. *)
      let writer = Client.begin_ c2 ~group in
      Client.write writer "x" "v2";
      Client.write writer "y" "v2";
      assert (committed (Client.commit writer));
      (* The reader continues at its original read position. *)
      observed := ("y", Client.read reader "y") :: !observed;
      ignore (Client.commit reader));
  Cluster.run cluster;
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option string)) ("stable read of " ^ k) (Some "v1") v)
    !observed;
  Verify.check_exn cluster ~group

let test_read_only_not_logged () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let w = Client.begin_ client ~group in
      Client.write w "k" "v";
      assert (committed (Client.commit w));
      let r = Client.begin_ client ~group in
      ignore (Client.read r "k");
      match Client.commit r with
      | Audit.Read_only_committed -> ()
      | _ -> Alcotest.fail "read-only must commit trivially");
  Cluster.run cluster;
  Alcotest.(check int) "only the write in the log" 1
    (List.length (Cluster.committed_log cluster ~group));
  Verify.check_exn cluster ~group

let test_commit_twice_rejected () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group in
      Client.write txn "k" "v";
      ignore (Client.commit txn);
      match Client.commit txn with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "double commit accepted");
  Cluster.run cluster

(* ------------------------------------------------------------------ *)
(* Basic protocol: concurrency prevention.                              *)

let run_two_concurrent ~config ~keys () =
  (* Two clients begin at the same read position, then both commit. *)
  let cluster = make ~config () in
  let outcomes = ref [] in
  let k1, k2 = keys in
  let run dc key =
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        ignore (Client.read txn key);
        Client.write txn key ("by-dc" ^ string_of_int dc);
        let outcome = Client.commit txn in
        outcomes := (dc, outcome) :: !outcomes)
  in
  run 0 k1;
  run 1 k2;
  Cluster.run cluster;
  Verify.check_exn cluster ~group;
  (cluster, List.sort compare !outcomes)

let test_basic_aborts_disjoint_race () =
  (* Disjoint write sets, same log position: basic Paxos still aborts one
     — the "concurrency prevention" behaviour of §4.2. *)
  let _, outcomes = run_two_concurrent ~config:Config.basic ~keys:("a", "b") () in
  let wins = List.filter (fun (_, o) -> committed o) outcomes in
  Alcotest.(check int) "exactly one commits" 1 (List.length wins);
  match List.find (fun (_, o) -> not (committed o)) outcomes with
  | _, Audit.Aborted { reason = Audit.Lost_position; _ } -> ()
  | _ -> Alcotest.fail "loser must abort with lost-position"

let test_cp_commits_disjoint_race () =
  (* The same race under Paxos-CP: both commit (combination or
     promotion). *)
  let cluster, outcomes = run_two_concurrent ~config:Config.default ~keys:("a", "b") () in
  let wins = List.filter (fun (_, o) -> committed o) outcomes in
  Alcotest.(check int) "both commit" 2 (List.length wins);
  Alcotest.(check bool) "logs agree" true (Cluster.logs_agree cluster ~group = Ok ())

let test_cp_aborts_true_conflict () =
  (* Both read and write the same key: serializability demands one
     abort. *)
  let _, outcomes = run_two_concurrent ~config:Config.default ~keys:("same", "same") () in
  let wins = List.filter (fun (_, o) -> committed o) outcomes in
  Alcotest.(check int) "exactly one commits" 1 (List.length wins);
  match List.find (fun (_, o) -> not (committed o)) outcomes with
  | _, Audit.Aborted { reason = Audit.Conflict; _ } -> ()
  | _, Audit.Aborted { reason; _ } ->
      Alcotest.failf "wrong reason: %s" (Format.asprintf "%a" Audit.pp_reason reason)
  | _ -> Alcotest.fail "no abort found"

let test_blind_writes_can_combine () =
  (* Write-only transactions on the same key never read, so CP can settle
     both (one may be promoted past the other or combined). *)
  let cluster = make () in
  let outcomes = ref [] in
  for dc = 0 to 1 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        Client.write txn "k" ("blind" ^ string_of_int dc);
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "both blind writes commit" 2
    (List.length (List.filter committed !outcomes));
  Verify.check_exn cluster ~group

let test_promotion_cap () =
  (* With max_promotions = 0, CP degenerates to basic-like behaviour for
     losers. *)
  let config = { Config.default with max_promotions = Some 0 } in
  let _, outcomes = run_two_concurrent ~config ~keys:("a", "b") () in
  let losers = List.filter (fun (_, o) -> not (committed o)) outcomes in
  match losers with
  | [ (_, Audit.Aborted { reason = Audit.Promotion_limit; promotions = 0 }) ] -> ()
  | [] ->
      (* Combination may still have saved both; that is legal. *)
      ()
  | _ -> Alcotest.fail "unexpected abort shape"

let test_promotions_count_reported () =
  (* Force a promotion: client B begins at a stale read position because
     its local datacenter has not applied A's commit yet. We simulate by
     having A and B race repeatedly and checking the audit agrees with the
     log. *)
  let cluster = make ~seed:1 () in
  for dc = 0 to 2 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        for _ = 1 to 5 do
          let txn = Client.begin_ client ~group in
          Client.write txn (Printf.sprintf "k%d" dc) "v";
          ignore (Client.commit txn)
        done)
  done;
  Cluster.run cluster;
  let events = Audit.events (Cluster.audit cluster) in
  let log = Cluster.committed_log cluster ~group in
  (* Every committed event's position must hold its txn; promotions are
     position - (read_position + 1). *)
  List.iter
    (fun (e : Audit.event) ->
      match e.outcome with
      | Audit.Committed { position; promotions; _ } ->
          Alcotest.(check int) "promotions = position - first try"
            (position - e.record.read_position - 1)
            promotions;
          let entry = List.assoc position log in
          Alcotest.(check bool) "logged where reported" true
            (Txn.mem_entry ~txn_id:e.record.txn_id entry)
      | _ -> ())
    events;
  Verify.check_exn cluster ~group

(* ------------------------------------------------------------------ *)
(* Config variants still correct.                                       *)

let variant_correct name config () =
  let cluster = make ~seed:77 ~config () in
  for dc = 0 to 2 do
    let client = Cluster.client cluster ~dc in
    let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
    Cluster.spawn cluster (fun () ->
        for _ = 1 to 8 do
          let txn = Client.begin_ client ~group in
          for _ = 1 to 3 do
            let key = Printf.sprintf "k%d" (Rng.int rng 5) in
            if Rng.bool rng 0.5 then ignore (Client.read txn key)
            else Client.write txn key "v"
          done;
          ignore (Client.commit txn);
          Engine.sleep (Rng.uniform rng 0.0 0.2)
        done)
  done;
  Cluster.run cluster;
  match Verify.check cluster ~group with
  | Ok () -> ()
  | Error m -> Alcotest.failf "%s: %s" name m

let test_wan_cluster_correct () = variant_correct "wan" Config.default ()

let prop_random_workloads_serializable =
  (* The heavyweight oracle over many random seeds and both protocols. *)
  QCheck.Test.make ~name:"random concurrent workloads are one-copy serializable"
    ~count:12
    QCheck.(pair (int_bound 10_000) bool)
    (fun (seed, use_basic) ->
      let config = if use_basic then Config.basic else Config.default in
      let cluster = make ~seed ~config ~spec:"VVV" () in
      for dc = 0 to 2 do
        let client = Cluster.client cluster ~dc in
        let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
        Cluster.spawn cluster (fun () ->
            for _ = 1 to 6 do
              let txn = Client.begin_ client ~group in
              for _ = 1 to 4 do
                let key = Printf.sprintf "k%d" (Rng.int rng 4) in
                if Rng.bool rng 0.5 then ignore (Client.read txn key)
                else Client.write txn key (Printf.sprintf "%s" (Client.txn_id txn))
              done;
              ignore (Client.commit txn);
              Engine.sleep (Rng.uniform rng 0.0 0.15)
            done)
      done;
      Cluster.run cluster;
      Verify.check cluster ~group = Ok ())

let test_seven_datacenter_soak () =
  (* A larger deployment (7 datacenters, quorum 4) under a heavier
     workload, both protocols, full oracle. *)
  List.iter
    (fun config ->
      let cluster = make ~seed:1234 ~config ~spec:"VVVVVOC" () in
      let workload =
        { Mdds_workload.Ycsb.default with total_txns = 400; rate = 2.0; threads = 8 }
      in
      ignore (Mdds_workload.Ycsb.run cluster workload);
      Cluster.run cluster;
      (match Verify.check cluster ~group:workload.Mdds_workload.Ycsb.group with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s: %s" (Config.protocol_name config.Config.protocol) m);
      let commits = (Audit.summarize (Audit.events (Cluster.audit cluster))).commits in
      Alcotest.(check bool)
        (Printf.sprintf "%s commits plausible (%d)"
           (Config.protocol_name config.Config.protocol)
           commits)
        true (commits > 100))
    [ Config.basic; Config.default; Config.leader ]

let () =
  Alcotest.run "integration"
    [
      ( "client-api",
        [
          Alcotest.test_case "read your writes (A1)" `Quick test_read_your_writes;
          Alcotest.test_case "stable read position (A2)" `Quick test_snapshot_isolation_of_reads;
          Alcotest.test_case "read-only not logged" `Quick test_read_only_not_logged;
          Alcotest.test_case "double commit rejected" `Quick test_commit_twice_rejected;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "basic aborts disjoint race" `Quick test_basic_aborts_disjoint_race;
          Alcotest.test_case "cp commits disjoint race" `Quick test_cp_commits_disjoint_race;
          Alcotest.test_case "cp aborts true conflict" `Quick test_cp_aborts_true_conflict;
          Alcotest.test_case "blind writes combine" `Quick test_blind_writes_can_combine;
          Alcotest.test_case "promotion cap" `Quick test_promotion_cap;
          Alcotest.test_case "promotions reported honestly" `Quick test_promotions_count_reported;
          Alcotest.test_case "WAN cluster correct" `Quick test_wan_cluster_correct;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest prop_random_workloads_serializable;
          Alcotest.test_case "seven-datacenter soak" `Slow test_seven_datacenter_soak;
        ] );
    ]
