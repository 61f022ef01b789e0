(* Tests for the long-term-leader transaction manager (the paper's §7–§8
   future-work design). *)

module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

let group = "g"

let committed = function
  | Audit.Committed _ | Audit.Read_only_committed -> true
  | Audit.Aborted _ | Audit.Unknown -> false

(* ------------------------------------------------------------------ *)
(* Leader protocol.                                                     *)

let make ?(seed = 42) ?(spec = "VVV") ?(config = Config.leader) () =
  Cluster.create ~seed ~config (Topology.ec2 spec)

let test_leader_basic_commit () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:1 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group in
      Client.write txn "x" "v";
      (match Client.commit txn with
      | Audit.Committed { position = 1; promotions = 0; _ } -> ()
      | _ -> Alcotest.fail "leader commit failed");
      (* Read back through the normal read path. *)
      let txn2 = Client.begin_ client ~group in
      Alcotest.(check (option string)) "visible" (Some "v") (Client.read txn2 "x");
      ignore (Client.commit txn2));
  Cluster.run cluster;
  Verify.check_exn cluster ~group

let test_leader_orders_conflicting () =
  (* Two conflicting read-modify-writes: the manager serializes them; one
     commits, the stale one aborts with a conflict — no lost update. *)
  let cluster = make () in
  let outcomes = ref [] in
  for dc = 0 to 1 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        ignore (Client.read txn "counter");
        Client.write txn "counter" (Printf.sprintf "set-by-%d" dc);
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  let commits = List.length (List.filter committed !outcomes) in
  let conflicts =
    List.length
      (List.filter
         (function Audit.Aborted { reason = Audit.Conflict; _ } -> true | _ -> false)
         !outcomes)
  in
  Alcotest.(check int) "one commits" 1 commits;
  Alcotest.(check int) "one conflict" 1 conflicts;
  Verify.check_exn cluster ~group

let test_leader_disjoint_both_commit () =
  (* Disjoint transactions: the manager's fine-grained check admits both
     (no coarse position-based aborts). *)
  let cluster = make () in
  let outcomes = ref [] in
  for dc = 0 to 2 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        let key = Printf.sprintf "k%d" dc in
        ignore (Client.read txn key);
        Client.write txn key "v";
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all commit" 3 (List.length (List.filter committed !outcomes));
  Verify.check_exn cluster ~group

let test_leader_failover () =
  (* The preferred manager (dc0) is down; clients probe and fail over to
     the next site, which becomes the manager. *)
  let cluster = make ~seed:7 () in
  Cluster.take_down cluster 0;
  let client = Cluster.client cluster ~dc:1 in
  let results = ref [] in
  Cluster.spawn cluster (fun () ->
      for i = 1 to 3 do
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        let outcome = Client.commit txn in
        results := outcome :: !results
      done);
  Cluster.run cluster;
  Alcotest.(check int) "all commit via fallback manager" 3
    (List.length (List.filter committed !results));
  Verify.check_exn cluster ~group

let test_leader_steady_state_uses_fast_path () =
  (* After the first decision, the manager should decide in one accept
     round: messages per commit must drop well below a full instance. *)
  let cluster = make ~seed:9 () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      for i = 1 to 20 do
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        assert (committed (Client.commit txn))
      done);
  Cluster.run cluster;
  Verify.check_exn cluster ~group;
  let stats = Mdds_net.Network.stats (Cluster.network cluster) in
  let per_commit = float_of_int stats.Mdds_net.Network.sent /. 20.0 in
  (* Steady state per commit: probe (2) + submit (2) + accept round (6) +
     apply (3) + local applies ≈ 15; a full Paxos instance adds 6+ more.
     Allow headroom but catch regressions to always-full-Paxos. *)
  Alcotest.(check bool)
    (Printf.sprintf "fast path keeps messages low (%.1f/commit)" per_commit)
    true (per_commit < 22.0)

let test_leader_stale_read_detected () =
  (* A transaction that begins, then waits while others overwrite its read
     set, must be refused by the manager's conflict check. *)
  let cluster = make ~seed:5 () in
  let slow = Cluster.client cluster ~dc:1 in
  let fast_client = Cluster.client cluster ~dc:2 in
  let slow_outcome = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ slow ~group in
      ignore (Client.read txn "hot");
      Client.write txn "hot" "slow-version";
      (* Give the fast transaction time to commit first. *)
      Engine.sleep 3.0;
      slow_outcome := Some (Client.commit txn));
  Cluster.spawn cluster (fun () ->
      Engine.sleep 0.5;
      let txn = Client.begin_ fast_client ~group in
      Client.write txn "hot" "fast-version";
      assert (committed (Client.commit txn)));
  Cluster.run cluster;
  (match !slow_outcome with
  | Some (Audit.Aborted { reason = Audit.Conflict; _ }) -> ()
  | _ -> Alcotest.fail "stale read not refused");
  Verify.check_exn cluster ~group

let test_leader_random_workload_serializable () =
  List.iter
    (fun seed ->
      let cluster = make ~seed ~spec:"VOC" () in
      for dc = 0 to 2 do
        let client = Cluster.client cluster ~dc in
        let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
        Cluster.spawn cluster (fun () ->
            for _ = 1 to 6 do
              let txn = Client.begin_ client ~group in
              for _ = 1 to 4 do
                let key = Printf.sprintf "k%d" (Rng.int rng 4) in
                if Rng.bool rng 0.5 then ignore (Client.read txn key)
                else Client.write txn key (Client.txn_id txn)
              done;
              ignore (Client.commit txn);
              Engine.sleep (Rng.uniform rng 0.0 0.3)
            done)
      done;
      Cluster.run cluster;
      match Verify.check cluster ~group with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m)
    [ 1; 2; 3; 4; 5 ]

let test_leader_outage_midway () =
  (* The manager dies mid-run; some in-flight commits may end Unknown, but
     nothing ever violates serializability, and reported outcomes stay
     honest (the oracle checks commit/abort against the log). *)
  let cluster = make ~seed:11 () in
  let client = Cluster.client cluster ~dc:1 in
  let done_count = ref 0 in
  Cluster.spawn cluster (fun () ->
      for i = 1 to 8 do
        (try
           let txn = Client.begin_ client ~group in
           Client.write txn (Printf.sprintf "k%d" i) "v";
           ignore (Client.commit txn)
         with Client.Unavailable _ -> ());
        incr done_count;
        Engine.sleep 1.0
      done);
  Engine.schedule (Cluster.engine cluster) ~at:2.5 (fun () ->
      Cluster.take_down cluster 0);
  Cluster.run cluster;
  Alcotest.(check int) "workload drained" 8 !done_count;
  Verify.check_exn cluster ~group

let () =
  Alcotest.run "leader"
    [
      ( "protocol",
        [
          Alcotest.test_case "basic commit" `Quick test_leader_basic_commit;
          Alcotest.test_case "conflicting serialized" `Quick test_leader_orders_conflicting;
          Alcotest.test_case "disjoint both commit" `Quick test_leader_disjoint_both_commit;
          Alcotest.test_case "failover" `Quick test_leader_failover;
          Alcotest.test_case "steady-state fast path" `Quick test_leader_steady_state_uses_fast_path;
          Alcotest.test_case "stale read detected" `Quick test_leader_stale_read_detected;
          Alcotest.test_case "random workloads serializable" `Slow test_leader_random_workload_serializable;
          Alcotest.test_case "manager outage midway" `Quick test_leader_outage_midway;
        ] );
    ]
