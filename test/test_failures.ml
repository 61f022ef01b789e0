(* Fault-injection tests: datacenter outages, partitions, message loss,
   recovery and catch-up — the availability story of the paper (§1, §4.1). *)

module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Service = Mdds_core.Service
module Wal = Mdds_wal.Wal
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Store = Mdds_kvstore.Store
module Messages = Mdds_core.Messages

let group = "g"

let committed = function
  | Audit.Committed _ | Audit.Read_only_committed -> true
  | Audit.Aborted _ | Audit.Unknown -> false

let seq_writer cluster ~dc ~txns ~gap =
  let client = Cluster.client cluster ~dc in
  let results = ref [] in
  Cluster.spawn cluster (fun () ->
      for i = 1 to txns do
        (try
           let txn = Client.begin_ client ~group in
           Client.write txn (Printf.sprintf "k%d-%d" dc i) "v";
           let outcome = Client.commit txn in
           results := outcome :: !results
         with Client.Unavailable _ -> ());
        Engine.sleep gap
      done);
  results

let test_minority_outage_keeps_committing () =
  (* One of three datacenters down: majority remains, commits continue. *)
  let cluster = Cluster.create ~seed:4 (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:10 ~gap:0.5 in
  Engine.schedule (Cluster.engine cluster) ~at:1.0 (fun () ->
      Cluster.take_down cluster 2);
  Cluster.run cluster;
  let commits = List.length (List.filter committed !results) in
  Alcotest.(check int) "all commit despite outage" 10 commits;
  Verify.check_exn cluster ~group

let test_majority_outage_blocks () =
  (* Two of three datacenters down: no quorum, transactions cannot commit
     (but nothing incorrect happens). *)
  let config = { Config.default with rpc_timeout = 0.3; max_rounds = 3 } in
  let cluster = Cluster.create ~seed:4 ~config (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:3 ~gap:0.2 in
  Cluster.take_down cluster 1;
  Cluster.take_down cluster 2;
  Cluster.run ~until:300.0 cluster;
  let aborted_unavailable =
    List.filter
      (function Audit.Aborted { reason = Audit.Unavailable; _ } -> true | _ -> false)
      !results
  in
  Alcotest.(check int) "every attempt unavailable" 3 (List.length aborted_unavailable);
  Verify.check_exn cluster ~group

let test_recovery_and_catchup () =
  (* A datacenter misses a window of commits, then recovers; reads through
     it force the learner to fill its log; logs converge. *)
  let cluster = Cluster.create ~seed:8 (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:12 ~gap:0.5 in
  Engine.schedule (Cluster.engine cluster) ~at:1.0 (fun () ->
      Cluster.take_down cluster 1);
  Engine.schedule (Cluster.engine cluster) ~at:4.0 (fun () ->
      Cluster.bring_up cluster 1);
  Cluster.run cluster;
  Alcotest.(check int) "all committed" 12 (List.length (List.filter committed !results));
  (* Force catch-up: read from the recovered datacenter at the head. *)
  let reader = Cluster.client cluster ~dc:1 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ reader ~group in
      ignore (Client.read txn "k0-12");
      ignore (Client.commit txn));
  Cluster.run cluster;
  (* dc1's log must now be complete (it served the read at the head, which
     requires learning every missing position). *)
  let head = Wal.last_position (Service.wal (Cluster.service cluster 0)) ~group in
  let dc1 = Cluster.service cluster 1 in
  Alcotest.(check (option int)) "no gaps after catch-up" None
    (Wal.first_gap (Service.wal dc1) ~group ~upto:head);
  Alcotest.(check bool) "learned something" true (Service.learns dc1 > 0);
  Verify.check_exn cluster ~group

let test_client_fallback_when_local_down () =
  (* The client's own datacenter is down: begin and reads fall back to a
     remote Transaction Service (§2.2) and the commit still succeeds. *)
  let cluster = Cluster.create ~seed:6 (Topology.ec2 "VVV") in
  (* Seed data so the read has something to return. *)
  let seeder = Cluster.client cluster ~dc:1 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ seeder ~group in
      Client.write txn "x" "seeded";
      assert (committed (Client.commit txn)));
  Cluster.run cluster;
  (* dc0's service goes down, but the client process at dc0 remains. *)
  Cluster.take_down cluster 0;
  (* The network model drops all dc0 traffic, so a co-located client
     cannot talk to anyone either; model the paper's scenario (service
     down, client alive) with a client in a healthy datacenter whose local
     service is the one that is down: use dc1 client but take dc1 down is
     the same situation. Instead: partition dc0's service from clients by
     taking it down and hosting the client at dc1. *)
  Cluster.bring_up cluster 0;
  Cluster.take_down cluster 1;
  let client = Cluster.client cluster ~dc:2 in
  let outcome = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group in
      Alcotest.(check (option string)) "read seeded" (Some "seeded") (Client.read txn "x");
      Client.write txn "y" "v";
      outcome := Some (Client.commit txn));
  Cluster.run cluster;
  (match !outcome with
  | Some o when committed o -> ()
  | _ -> Alcotest.fail "commit with one datacenter down failed");
  Cluster.bring_up cluster 1;
  Verify.check_exn cluster ~group

let test_partition_minority_blocks_majority_proceeds () =
  let config = { Config.default with rpc_timeout = 0.3; max_rounds = 3 } in
  let cluster = Cluster.create ~seed:5 ~config (Topology.ec2 "VVVVV") in
  Cluster.partition cluster [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  (* Client in the minority side: unavailable. *)
  let minority = Cluster.client cluster ~dc:0 in
  let minority_result = ref None in
  Cluster.spawn cluster (fun () ->
      try
        let txn = Client.begin_ minority ~group in
        Client.write txn "m" "v";
        minority_result := Some (Client.commit txn)
      with Client.Unavailable _ -> minority_result := Some (Audit.Aborted { reason = Audit.Unavailable; promotions = 0 }));
  (* Client in the majority side: fine. *)
  let majority = Cluster.client cluster ~dc:3 in
  let majority_result = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ majority ~group in
      Client.write txn "M" "v";
      majority_result := Some (Client.commit txn));
  Cluster.run ~until:120.0 cluster;
  (match !minority_result with
  | Some (Audit.Aborted { reason = Audit.Unavailable; _ }) -> ()
  | _ -> Alcotest.fail "minority side should be unavailable");
  (match !majority_result with
  | Some o when committed o -> ()
  | _ -> Alcotest.fail "majority side should commit");
  (* Heal and verify global agreement. *)
  Cluster.heal cluster;
  Verify.check_exn cluster ~group

let test_heavy_loss_still_serializable () =
  (* 20% message loss: progress is slower (retries) but never incorrect. *)
  let cluster =
    Cluster.create ~seed:13 ~config:Config.default
      (Mdds_net.Topology.ec2 ~loss:0.2 "VVV")
  in
  let r0 = seq_writer cluster ~dc:0 ~txns:6 ~gap:0.4 in
  let r1 = seq_writer cluster ~dc:1 ~txns:6 ~gap:0.4 in
  Cluster.run cluster;
  let commits = List.length (List.filter committed (!r0 @ !r1)) in
  Alcotest.(check bool) "most commit" true (commits >= 8);
  Verify.check_exn cluster ~group

let test_incomplete_instance_completed_by_learner () =
  (* A proposer gets a value accepted at a majority but crashes before
     sending apply (simulated by driving accepts directly). A later read
     must complete the instance and surface the value (§4.1: "If a
     Transaction Client fails in the middle of the commit protocol, its
     transaction may be committed or aborted"). *)
  let cluster = Cluster.create ~seed:21 (Topology.ec2 "VVV") in
  let entry =
    [
      Mdds_types.Txn.make_record ~txn_id:"orphan" ~origin:0 ~read_position:0
        ~reads:[]
        ~writes:[ { Mdds_types.Txn.key = "x"; value = "orphaned" } ];
    ]
  in
  let b = Mdds_paxos.Ballot.make ~round:1 ~proposer:0 in
  Cluster.spawn cluster (fun () ->
      (* Majority accepted, nobody applied. *)
      List.iter
        (fun dc ->
          let s = Cluster.service cluster dc in
          ignore (Service.handle s ~src:0 (Mdds_core.Messages.Prepare { group; pos = 1; ballot = b }));
          ignore
            (Service.handle s ~src:0
               (Mdds_core.Messages.accept ~group ~pos:1 ~ballot:b entry)))
        [ 0; 1 ];
      (* A fresh transaction begins: read position 0 (nothing applied),
         commits to position 1 — and must lose to the orphan, or land
         after it. Either way the orphan's value must be in the log. *)
      let client = Cluster.client cluster ~dc:2 in
      let txn = Client.begin_ client ~group in
      Client.write txn "y" "later";
      ignore (Client.commit txn);
      (* Reading at the new head forces the service to fill any hole left
         at position 1 via the learner. *)
      let txn2 = Client.begin_ client ~group in
      Alcotest.(check (option string)) "orphaned write visible" (Some "orphaned")
        (Client.read txn2 "x");
      ignore (Client.commit txn2));
  Cluster.run cluster;
  let log = Cluster.committed_log cluster ~group in
  let all = List.concat_map snd log in
  Alcotest.(check bool) "orphan transaction completed by someone" true
    (List.exists (fun (r : Mdds_types.Txn.record) -> r.txn_id = "orphan") all);
  Verify.check_exn cluster ~group

let test_compaction_snapshot_catchup () =
  (* dc2 misses a window of commits; meanwhile dc0 and dc1 checkpoint and
     compact the log prefix, so the missed entries cannot be learned
     through Paxos. dc2 must catch up by installing a peer snapshot. *)
  let cluster = Cluster.create ~seed:31 (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:10 ~gap:0.5 in
  Engine.schedule (Cluster.engine cluster) ~at:0.8 (fun () ->
      Cluster.take_down cluster 2);
  Cluster.run cluster;
  Alcotest.(check int) "all committed" 10 (List.length (List.filter committed !results));
  let head = Wal.last_position (Service.wal (Cluster.service cluster 0)) ~group in
  (* Checkpoint the surviving majority. *)
  List.iter
    (fun dc ->
      let s = Cluster.service cluster dc in
      (match Service.handle s ~src:dc (Mdds_core.Messages.Read { group; key = "k0-1"; position = head }) with
      | Mdds_core.Messages.Value _ -> ()
      | _ -> Alcotest.fail "priming read failed");
      match Service.compact s ~group ~upto:head with
      | Ok () -> ()
      | Error `Not_applied -> Alcotest.fail "compact refused")
    [ 0; 1 ];
  Cluster.run cluster;
  (* dc2 returns; one more commit advances its local head past the
     compacted window (its begin would otherwise see its stale, pre-outage
     read position and legitimately serialize in the past). *)
  Cluster.bring_up cluster 2;
  let writer = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ writer ~group in
      Client.write txn "extra" "v";
      assert (committed (Client.commit txn)));
  Cluster.run cluster;
  (* Reading at the new head through dc2: Paxos learning is impossible for
     the compacted prefix, so it must install a snapshot. *)
  let trace = Cluster.trace cluster in
  Mdds_sim.Trace.enable trace;
  let reader = Cluster.client cluster ~dc:2 in
  let seen = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ reader ~group in
      seen := Client.read txn (Printf.sprintf "k0-%d" 10);
      ignore (Client.commit txn));
  Cluster.run cluster;
  Alcotest.(check (option string)) "reads converged state" (Some "v") !seen;
  let dc2 = Cluster.service cluster 2 in
  Alcotest.(check bool) "used a snapshot" true (Service.snapshots dc2 > 0);
  Alcotest.(check bool) "watermark advanced" true
    (Wal.applied_position (Service.wal dc2) ~group >= head);
  (* Both peers refuse the learner's first prepare as compacted: it
     stops there instead of spending its round budget. *)
  Alcotest.(check int) "one prepare round before the snapshot" 1
    (List.length
       (List.filter
          (fun (e : Mdds_sim.Trace.event) ->
            e.source = "prop.dc2" && e.category = "prepare")
          (Mdds_sim.Trace.events trace)))

(* Chaos: random outages, partitions and heals injected throughout a
   random workload, under each protocol. Whatever happens, the execution
   must remain one-copy serializable and outcome reporting honest. *)
let chaos_prop =
  let open QCheck in
  let protocol_gen = Gen.oneofl [ Config.Basic; Config.Cp; Config.Leader ] in
  Test.make ~name:"chaos: faults never break serializability" ~count:10
    (make Gen.(pair (int_bound 100_000) protocol_gen))
    (fun (seed, protocol) ->
      let config =
        {
          (Config.with_protocol protocol Config.default) with
          rpc_timeout = 0.4;
          max_rounds = 5;
        }
      in
      let cluster = Cluster.create ~seed ~config (Topology.ec2 "VVVVV") in
      let engine = Cluster.engine cluster in
      let rng = Mdds_sim.Rng.split (Engine.rng engine) in
      (* Fault injector: every ~2s, flip a coin between outage, partition
         and heal; never touch more than two datacenters at once so a
         majority can exist. *)
      let down = Array.make 5 false in
      let rec inject () =
        Engine.sleep (Mdds_sim.Rng.uniform rng 1.0 3.0);
        (match Mdds_sim.Rng.int rng 4 with
        | 0 ->
            let victim = Mdds_sim.Rng.int rng 5 in
            if Array.to_list down |> List.filter Fun.id |> List.length < 2 then begin
              down.(victim) <- true;
              Cluster.take_down cluster victim
            end
        | 1 ->
            Array.iteri (fun i d -> if d then (down.(i) <- false; Cluster.bring_up cluster i)) down
        | 2 -> Cluster.partition cluster [ [ 0; 1; 2 ]; [ 3; 4 ] ]
        | _ -> Cluster.heal cluster);
        if Engine.now engine < 25.0 then inject ()
      in
      Engine.spawn engine inject;
      (* Workload: three clients doing read-modify-writes. *)
      for dc = 0 to 2 do
        let client = Cluster.client cluster ~dc in
        let crng = Mdds_sim.Rng.split (Engine.rng engine) in
        Cluster.spawn cluster (fun () ->
            for _ = 1 to 6 do
              (try
                 let txn = Client.begin_ client ~group in
                 for _ = 1 to 3 do
                   let key = Printf.sprintf "k%d" (Mdds_sim.Rng.int crng 4) in
                   if Mdds_sim.Rng.bool crng 0.5 then ignore (Client.read txn key)
                   else Client.write txn key (Client.txn_id txn)
                 done;
                 ignore (Client.commit txn)
               with Client.Unavailable _ -> ());
              Engine.sleep (Mdds_sim.Rng.uniform crng 0.5 2.0)
            done)
      done;
      Cluster.run ~until:600.0 cluster;
      (* Heal everything so the oracle can reconcile all logs. *)
      Array.iteri (fun i d -> if d then Cluster.bring_up cluster i) down;
      Cluster.heal cluster;
      Verify.check cluster ~group = Ok ())

let test_restart_racing_inflight () =
  (* Service restarts fired while commits are mid-flight: the restart
     drops volatile state only, so promises and votes made before it are
     honoured and every transaction still reaches a correct outcome.
     (With a volatile claim registry this exact scenario can re-grant a
     position's fast-path claim and decide two values for one position —
     the chaos engine found it; see the acceptor's round-0 rule.) *)
  let cluster = Cluster.create ~seed:9 (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:8 ~gap:0.4 in
  List.iter
    (fun (at, dc) ->
      Engine.schedule (Cluster.engine cluster) ~at (fun () ->
          Cluster.restart cluster dc))
    [ (0.25, 1); (0.8, 2); (1.3, 1); (2.1, 2); (2.7, 0) ];
  Cluster.run cluster;
  let commits = List.length (List.filter committed !results) in
  Alcotest.(check int) "all commit through restarts" 8 commits;
  Verify.check_exn cluster ~group

let test_restart_preserves_promises_under_race () =
  (* A prepared ballot must survive a restart even with no commit in
     between: promise at (2,0), restart, then a lower ballot's prepare is
     rejected and an accept at the promised ballot still succeeds. *)
  let cluster = Cluster.create ~seed:5 (Topology.ec2 "VVV") in
  let service = Cluster.service cluster 1 in
  let b ~round ~proposer = Mdds_paxos.Ballot.make ~round ~proposer in
  let entry =
    [
      Mdds_types.Txn.make_record ~txn_id:"t-race" ~origin:0 ~read_position:0
        ~reads:[]
        ~writes:[ { Mdds_types.Txn.key = "x"; value = "1" } ];
    ]
  in
  Cluster.spawn cluster (fun () ->
      (match
         Service.handle service ~src:0
           (Mdds_core.Messages.Prepare { group; pos = 1; ballot = b ~round:2 ~proposer:0 })
       with
      | Mdds_core.Messages.Promise _ -> ()
      | _ -> Alcotest.fail "initial prepare not promised");
      Service.restart service;
      (match
         Service.handle service ~src:2
           (Mdds_core.Messages.Prepare { group; pos = 1; ballot = b ~round:1 ~proposer:2 })
       with
      | Mdds_core.Messages.Prepare_reject { next_bal } ->
          Alcotest.(check bool) "reject carries surviving promise" true
            (Mdds_paxos.Ballot.equal next_bal (b ~round:2 ~proposer:0))
      | _ -> Alcotest.fail "promise lost across restart");
      match
        Service.handle service ~src:0
          (Mdds_core.Messages.accept ~group ~pos:1 ~ballot:(b ~round:2 ~proposer:0) entry)
      with
      | Mdds_core.Messages.Accept_reply { ok = true; _ } -> ()
      | _ -> Alcotest.fail "promised ballot's accept refused after restart");
  Cluster.run cluster

let test_compact_while_down_then_catchup () =
  (* The satellite scenario of the chaos engine's Compact fault: the
     majority compacts while one datacenter is down, the laggard returns
     and must catch up through install_snapshot; afterwards every log
     agrees and the full oracle suite passes with the archived prefix. *)
  let cluster = Cluster.create ~seed:23 (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:8 ~gap:0.4 in
  Engine.schedule (Cluster.engine cluster) ~at:0.6 (fun () ->
      Cluster.take_down cluster 1);
  Cluster.run cluster;
  Alcotest.(check int) "majority committed" 8
    (List.length (List.filter committed !results));
  (* Archive what compaction will discard, then compact the majority. *)
  let archive = Cluster.committed_log cluster ~group in
  let head = Wal.last_position (Service.wal (Cluster.service cluster 0)) ~group in
  List.iter
    (fun dc ->
      let s = Cluster.service cluster dc in
      (match
         Service.handle s ~src:dc
           (Mdds_core.Messages.Read { group; key = "k0-1"; position = head })
       with
      | Mdds_core.Messages.Value _ -> ()
      | _ -> Alcotest.fail "priming read failed");
      match Service.compact s ~group ~upto:head with
      | Ok () -> ()
      | Error `Not_applied -> Alcotest.fail "compact refused")
    [ 0; 2 ];
  Cluster.run cluster;
  Cluster.bring_up cluster 1;
  (* A post-recovery commit advances the head past the compacted window;
     reading it through the laggard forces snapshot catch-up. *)
  let writer = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ writer ~group in
      Client.write txn "post" "v";
      assert (committed (Client.commit txn)));
  Cluster.run cluster;
  let reader = Cluster.client cluster ~dc:1 in
  let seen = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ reader ~group in
      seen := Client.read txn "post";
      ignore (Client.commit txn));
  Cluster.run cluster;
  Alcotest.(check (option string)) "laggard reads converged state" (Some "v") !seen;
  let dc1 = Cluster.service cluster 1 in
  Alcotest.(check bool) "caught up via snapshot" true (Service.snapshots dc1 > 0);
  Alcotest.(check bool) "watermark advanced" true
    (Wal.applied_position (Service.wal dc1) ~group >= head);
  (match Cluster.logs_agree cluster ~group with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* The live logs lost the compacted prefix; the archive restores the
     oracle's full view. *)
  match Verify.check ~archive cluster ~group with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_compacted_claim_not_regranted () =
  (* Found by chaos seed 21 (minimal schedule: crash dc1 + compact dc0).
     Compaction deletes the durable claim rows along with the acceptor
     state; a Claim_leadership for a compacted position answered from the
     now-blank row would re-grant the round-0 fast path at a decided
     position. A recovered laggard would then cast a unilateral round-0
     self-vote whose ballot (0.laggard) outranks the original fast-path
     vote (0.winner) in a prepare tally that the compacted voter can no
     longer join — and the laggard re-decides the position with a new
     value (R1 violation). The registrar must refuse the claim; the
     laggard then runs the full protocol, whose prepare quorum necessarily
     contains a surviving voter revealing the decided entry. *)
  let cluster = Cluster.create ~seed:21 (Topology.ec2 "VVV") in
  (* Position 1 decided from dc0 with everyone up: dc0 becomes the claim
     registrar for position 2 in every replica's view. *)
  let r0 = seq_writer cluster ~dc:0 ~txns:1 ~gap:0.1 in
  Cluster.run cluster;
  Alcotest.(check int) "seed txn committed" 1
    (List.length (List.filter committed !r0));
  (* dc1 misses positions 2..6, decided by the {dc0, dc2} majority via
     dc0's fast path (round-0 votes at ballot 0.0). *)
  Cluster.take_down cluster 1;
  let r1 = seq_writer cluster ~dc:0 ~txns:5 ~gap:0.3 in
  Cluster.run cluster;
  Alcotest.(check int) "majority kept committing" 5
    (List.length (List.filter committed !r1));
  let archive = Cluster.committed_log cluster ~group in
  let dc0 = Cluster.service cluster 0 in
  let head = Wal.last_position (Service.wal dc0) ~group in
  (* Prime dc0's applied watermark, then compact: acceptor AND claim rows
     for positions 1..head are gone at dc0. *)
  (match
     Service.handle dc0 ~src:0
       (Messages.Read { group; key = "k0-1"; position = head })
   with
  | Messages.Value _ -> ()
  | _ -> Alcotest.fail "priming read failed");
  (match Service.compact dc0 ~group ~upto:head with
  | Ok () -> ()
  | Error `Not_applied -> Alcotest.fail "compact refused");
  (* The registrar must refuse, not re-grant from the blank row. *)
  (match
     Service.handle dc0 ~src:1
       (Messages.Claim_leadership { group; pos = 2; claimant = "rival" })
   with
  | Messages.Compacted upto ->
      Alcotest.(check int) "refusal carries the compaction point" head upto
  | Messages.Claim_reply { first } ->
      Alcotest.(check bool) "claim at compacted position re-granted" false
        first
  | _ -> Alcotest.fail "unexpected claim response");
  (* End-to-end: the laggard returns with its log ending at position 1 and
     commits through the ladder; position 2 must keep its original entry. *)
  let original =
    match Wal.entry (Service.wal (Cluster.service cluster 2)) ~group ~pos:2 with
    | Some e -> e
    | None -> Alcotest.fail "dc2 lost position 2"
  in
  Cluster.bring_up cluster 1;
  let late = Cluster.client cluster ~dc:1 in
  Cluster.spawn cluster (fun () ->
      try
        let txn = Client.begin_ late ~group in
        Client.write txn "late" "v";
        ignore (Client.commit txn)
      with Client.Unavailable _ -> ());
  Cluster.run cluster;
  (match Wal.entry (Service.wal (Cluster.service cluster 2)) ~group ~pos:2 with
  | Some e ->
      Alcotest.(check bool) "position 2 entry unchanged" true
        (Mdds_types.Txn.equal_entry original e)
  | None -> Alcotest.fail "dc2 lost position 2 after recovery");
  (match Cluster.logs_agree cluster ~group with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Verify.check ~archive cluster ~group with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_multiple_groups_independent () =
  (* Transaction groups have independent logs and no cross-group
     serializability (by design, §2.1): workloads on two groups proceed
     concurrently, each group's execution verifying independently. *)
  let cluster = Cluster.create ~seed:17 (Topology.ec2 "VVV") in
  let commits = ref 0 in
  List.iter
    (fun group ->
      for dc = 0 to 1 do
        let client = Cluster.client cluster ~dc in
        Cluster.spawn cluster (fun () ->
            for i = 1 to 5 do
              let txn = Client.begin_ client ~group in
              ignore (Client.read txn "shared-name");
              Client.write txn "shared-name" (Printf.sprintf "%s-%d-%d" group dc i);
              (match Client.commit txn with
              | o when committed o -> incr commits
              | _ -> ());
              Engine.sleep 0.5
            done)
      done)
    [ "alpha"; "beta" ];
  Cluster.run cluster;
  (* Each group verifies on its own; their logs are separate. *)
  Verify.check_exn cluster ~group:"alpha";
  Verify.check_exn cluster ~group:"beta";
  let la = List.length (Cluster.committed_log cluster ~group:"alpha") in
  let lb = List.length (Cluster.committed_log cluster ~group:"beta") in
  Alcotest.(check bool) "both groups progressed" true (la > 0 && lb > 0);
  Alcotest.(check int) "log entries match commits" !commits (la + lb)

(* ------------------------------------------------------------------ *)
(* Crash consistency: storage-level faults and the hardened recovery
   ladder (PROTOCOL.md §7). These run the store in Sync_explicit mode so
   dirty and torn crashes have something to lose.                       *)

(* Forge torn damage behind the service's back on dc1's vote row at
   position 1. *)
let tear_vote cluster =
  Forge.mangle_checksum
    (Forge.family_row (Service.store (Cluster.service cluster 1))
       ~prefix:("paxos/" ^ group ^ "/") 1)

let test_dirty_crashes_racing_commits () =
  (* Storage-level power losses fired while commits are mid-flight: every
     protocol write that matters (acceptor state, log appends, claims) hits
     a sync point before it is acknowledged, so only volatile state and
     lazy data applies are lost — every transaction still reaches a
     correct outcome and every cache oracle holds. *)
  let cluster =
    Cluster.create ~seed:9 ~storage:Store.Sync_explicit (Topology.ec2 "VVV")
  in
  let results = seq_writer cluster ~dc:0 ~txns:8 ~gap:0.4 in
  List.iter
    (fun (at, dc) ->
      Engine.schedule (Cluster.engine cluster) ~at (fun () ->
          Cluster.dirty_restart cluster dc))
    [ (0.25, 1); (0.8, 2); (1.3, 1); (2.1, 2); (2.7, 0) ];
  Cluster.run cluster;
  let commits = List.length (List.filter committed !results) in
  Alcotest.(check int) "all commit through dirty crashes" 8 commits;
  List.iter
    (fun s ->
      match Service.cache_coherent s ~group with
      | Ok () -> ()
      | Error e -> Alcotest.failf "dc%d incoherent: %s" (Service.dc s) e)
    (Cluster.services cluster);
  Verify.check_exn cluster ~group

let test_torn_damage_quarantines_until_relearned () =
  (* The no-silent-re-vote rule: an acceptor whose durable vote row was
     torn must refuse Paxos messages for that position until the decided
     value is re-learned from peers. While every peer is down the ladder
     cannot complete and the position stays fenced; once peers return it
     is re-entered through the learner, never re-voted from the reverted
     state. *)
  let config = { Config.default with rpc_timeout = 0.3; max_rounds = 3 } in
  let cluster =
    Cluster.create ~seed:3 ~config ~storage:Store.Sync_explicit
      (Topology.ec2 "VVV")
  in
  let b = Mdds_paxos.Ballot.make ~round:2 ~proposer:0 in
  let entry =
    [
      Mdds_types.Txn.make_record ~txn_id:"victim" ~origin:0 ~read_position:0
        ~reads:[]
        ~writes:[ { Mdds_types.Txn.key = "x"; value = "decided" } ];
    ]
  in
  Cluster.spawn cluster (fun () ->
      (* Decide the entry at position 1 on the majority {0, 1}. *)
      List.iter
        (fun dc ->
          let s = Cluster.service cluster dc in
          (match
             Service.handle s ~src:0 (Messages.Prepare { group; pos = 1; ballot = b })
           with
          | Messages.Promise _ -> ()
          | _ -> Alcotest.fail "prepare refused");
          match
            Service.handle s ~src:0
              (Messages.accept ~group ~pos:1 ~ballot:b entry)
          with
          | Messages.Accept_reply { ok = true; _ } -> ()
          | _ -> Alcotest.fail "accept refused")
        [ 0; 1 ];
      (* dc1's durable vote row is torn; the storage crash takes the
         service down with it. The recovery scan must scrub the damage and
         quarantine the position. *)
      tear_vote cluster;
      Cluster.dirty_restart cluster 1;
      let dc1 = Cluster.service cluster 1 in
      Alcotest.(check bool) "scrub counted" true
        ((Service.recovery_stats dc1).Service.scrubbed >= 1);
      (* Every peer down: the ladder cannot complete, the position must be
         refused — NOT answered from the reverted state. *)
      Cluster.take_down cluster 0;
      Cluster.take_down cluster 2;
      (match
         Service.handle dc1 ~src:2
           (Messages.Prepare
              { group; pos = 1; ballot = Mdds_paxos.Ballot.make ~round:1 ~proposer:2 })
       with
      | Messages.Recovering -> ()
      | Messages.Promise _ -> Alcotest.fail "silent re-vote from reverted state"
      | r -> Alcotest.failf "unexpected reply: %a" Messages.pp_response r);
      (* Peers return: the decided value is re-learned and the position
         released. *)
      Cluster.bring_up cluster 0;
      Cluster.bring_up cluster 2;
      (match
         Service.handle dc1 ~src:2
           (Messages.Prepare
              { group; pos = 1; ballot = Mdds_paxos.Ballot.make ~round:9 ~proposer:2 })
       with
      | Messages.Promise _ | Messages.Prepare_reject _ -> ()
      | r -> Alcotest.failf "still refused after peers returned: %a" Messages.pp_response r);
      let stats = Service.recovery_stats dc1 in
      Alcotest.(check bool) "position re-entered via the learner" true
        (stats.Service.relearned >= 1);
      match Wal.entry (Service.wal dc1) ~group ~pos:1 with
      | Some e ->
          Alcotest.(check bool) "re-learned the decided entry, not a new vote" true
            (Mdds_types.Txn.equal_entry e entry)
      | None -> Alcotest.fail "entry missing after release");
  Cluster.run cluster;
  Verify.check_exn cluster ~group

(* The same damage, met over the network: a client at dc2, which never
   saw position 1, races for it, so its prepare reaches dc1's service
   through the RPC layer while the position is quarantined. Answering it
   re-learns the position first, a blocking call, so the service must
   run that handler as a process, not inline. *)
let test_quarantined_prepare_over_rpc () =
  let config = { Config.default with rpc_timeout = 0.3; max_rounds = 3 } in
  let cluster =
    Cluster.create ~seed:3 ~config ~storage:Store.Sync_explicit
      (Topology.ec2 "VVV")
  in
  let b = Mdds_paxos.Ballot.make ~round:2 ~proposer:0 in
  let entry =
    [
      Mdds_types.Txn.make_record ~txn_id:"victim" ~origin:0 ~read_position:0
        ~reads:[]
        ~writes:[ { Mdds_types.Txn.key = "x"; value = "decided" } ];
    ]
  in
  Cluster.spawn cluster (fun () ->
      List.iter
        (fun dc ->
          let s = Cluster.service cluster dc in
          ignore (Service.handle s ~src:0 (Messages.Prepare { group; pos = 1; ballot = b }));
          ignore (Service.handle s ~src:0 (Messages.accept ~group ~pos:1 ~ballot:b entry)))
        [ 0; 1 ];
      tear_vote cluster;
      Cluster.dirty_restart cluster 1;
      let txn = Client.begin_ (Cluster.client cluster ~dc:2) ~group in
      Alcotest.(check int) "dc2 reads before position 1" 0 (Client.read_position txn);
      Client.write txn "y" "racer";
      ignore (Client.commit txn));
  Cluster.run cluster;
  Alcotest.(check bool) "dc1 re-learned the position" true
    ((Service.recovery_stats (Cluster.service cluster 1)).Service.relearned >= 1);
  Verify.check_exn cluster ~group

let test_exhausted_recovery_ladder_aborts () =
  (* The end of the ladder: a datacenter holds a log gap and every peer is
     unreachable, so neither learning nor snapshot installation can fill
     it. The service must report failure — and the client must surface an
     abort — rather than hang. *)
  let config = { Config.default with rpc_timeout = 0.3; max_rounds = 2 } in
  let cluster = Cluster.create ~seed:12 ~config (Topology.ec2 "VVV") in
  let results = seq_writer cluster ~dc:0 ~txns:6 ~gap:0.4 in
  Engine.schedule (Cluster.engine cluster) ~at:0.2 (fun () ->
      Cluster.take_down cluster 2);
  Engine.schedule (Cluster.engine cluster) ~at:1.5 (fun () ->
      Cluster.bring_up cluster 2);
  Cluster.run cluster;
  Alcotest.(check int) "all committed" 6 (List.length (List.filter committed !results));
  let dc2 = Cluster.service cluster 2 in
  let head = Wal.last_position (Service.wal (Cluster.service cluster 0)) ~group in
  Alcotest.(check bool) "dc2 holds a gap from the outage" true
    (Wal.first_gap (Service.wal dc2) ~group ~upto:head <> None);
  Cluster.take_down cluster 0;
  Cluster.take_down cluster 1;
  let service_error = ref None in
  let client_aborted = ref false in
  Cluster.spawn cluster (fun () ->
      (* Service level: the ladder exhausts and reports the position it
         could not fill. *)
      (match
         Service.handle dc2 ~src:2 (Messages.Read { group; key = "k0-1"; position = head })
       with
      | Messages.Unlearnable pos -> service_error := Some pos
      | _ -> Alcotest.fail "read served despite an unfillable gap");
      (* Client level: the failure surfaces as an abort, not a hang. *)
      try
        let client = Cluster.client cluster ~dc:2 in
        let txn = Client.begin_ client ~group in
        ignore (Client.read txn "k0-1");
        ignore (Client.commit txn)
      with Client.Unavailable _ -> client_aborted := true);
  Cluster.run ~until:400.0 cluster;
  (match !service_error with
  | Some pos ->
      Alcotest.(check (option int)) "names the unlearnable position"
        (Wal.first_gap (Service.wal dc2) ~group ~upto:head) (Some pos)
  | None -> Alcotest.fail "service never answered");
  Alcotest.(check bool) "client aborted rather than hanging" true !client_aborted;
  Cluster.bring_up cluster 0;
  Cluster.bring_up cluster 1;
  Verify.check_exn cluster ~group

let crash_recovery_prop =
  (* The acceptance property: for random dirty/torn crash points injected
     into a commit workload, recovery always yields a state from which the
     cluster reconverges — caches durably coherent, no position decided
     twice, no committed transaction lost (the full oracle suite). *)
  let open QCheck in
  let crash_gen = Gen.(triple (2 -- 40) (int_bound 2) bool) in
  Test.make
    ~name:"random crash points: recovery reconverges, commits survive"
    ~count:15
    (make
       ~print:Print.(pair int (list (triple int int bool)))
       Gen.(pair (int_bound 100_000) (list_size (1 -- 4) crash_gen)))
    (fun (seed, crashes) ->
      let config = { Config.default with rpc_timeout = 0.4; max_rounds = 5 } in
      let cluster =
        Cluster.create ~seed ~config ~storage:Store.Sync_explicit
          (Topology.ec2 "VVV")
      in
      let r0 = seq_writer cluster ~dc:0 ~txns:5 ~gap:0.5 in
      let r1 = seq_writer cluster ~dc:1 ~txns:5 ~gap:0.5 in
      List.iter
        (fun (tenths, dc, torn) ->
          Engine.schedule (Cluster.engine cluster)
            ~at:(float_of_int tenths /. 10.)
            (fun () ->
              if torn then Cluster.torn_restart cluster dc
              else Cluster.dirty_restart cluster dc))
        crashes;
      Cluster.run ~until:600.0 cluster;
      ignore (List.filter committed (!r0 @ !r1));
      List.iter
        (fun s ->
          match Service.cache_coherent s ~group with
          | Ok () -> ()
          | Error e -> Test.fail_reportf "dc%d incoherent: %s" (Service.dc s) e)
        (Cluster.services cluster);
      Verify.check cluster ~group = Ok ())

let () =
  Alcotest.run "failures"
    [
      ( "outage",
        [
          Alcotest.test_case "minority outage keeps committing" `Quick
            test_minority_outage_keeps_committing;
          Alcotest.test_case "majority outage blocks safely" `Quick
            test_majority_outage_blocks;
          Alcotest.test_case "recovery and catch-up" `Quick test_recovery_and_catchup;
          Alcotest.test_case "client fallback" `Quick test_client_fallback_when_local_down;
        ] );
      ( "partition-loss",
        [
          Alcotest.test_case "partition semantics" `Quick
            test_partition_minority_blocks_majority_proceeds;
          Alcotest.test_case "heavy loss still serializable" `Quick
            test_heavy_loss_still_serializable;
          Alcotest.test_case "orphaned instance completed" `Quick
            test_incomplete_instance_completed_by_learner;
          Alcotest.test_case "compaction + snapshot catch-up" `Quick
            test_compaction_snapshot_catchup;
          Alcotest.test_case "multiple groups independent" `Quick
            test_multiple_groups_independent;
          QCheck_alcotest.to_alcotest chaos_prop;
        ] );
      ( "restart-compact",
        [
          Alcotest.test_case "restarts racing in-flight commits" `Quick
            test_restart_racing_inflight;
          Alcotest.test_case "promises survive restart race" `Quick
            test_restart_preserves_promises_under_race;
          Alcotest.test_case "compact while down, archive-verified catch-up"
            `Quick test_compact_while_down_then_catchup;
          Alcotest.test_case "compacted claim never re-granted" `Quick
            test_compacted_claim_not_regranted;
        ] );
      ( "crash-consistency",
        [
          Alcotest.test_case "dirty crashes racing commits" `Quick
            test_dirty_crashes_racing_commits;
          Alcotest.test_case "torn vote quarantined until re-learned" `Quick
            test_torn_damage_quarantines_until_relearned;
          Alcotest.test_case "quarantined prepare over RPC" `Quick
            test_quarantined_prepare_over_rpc;
          Alcotest.test_case "exhausted ladder aborts, never hangs" `Quick
            test_exhausted_recovery_ladder_aborts;
          QCheck_alcotest.to_alcotest crash_recovery_prop;
        ] );
    ]
