(* Tests for the supporting extensions: the trace subsystem, the
   application-level retry runner, the Zipfian key distribution — and
   mutation tests proving the serializability oracle actually catches
   corrupted executions. *)

module Engine = Mdds_sim.Engine
module Trace = Mdds_sim.Trace
module Rng = Mdds_sim.Rng
module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Runner = Mdds_core.Runner
module Verify = Mdds_core.Verify
module Service = Mdds_core.Service
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Distribution = Mdds_workload.Distribution
module Topology = Mdds_net.Topology

let group = "g"

(* ------------------------------------------------------------------ *)
(* Trace.                                                               *)

let test_trace_disabled_by_default () =
  let engine = Engine.create () in
  let trace = Trace.create engine in
  Alcotest.(check bool) "disabled" false (Trace.enabled trace);
  Trace.record trace ~source:"s" ~category:"c" "dropped %d" 1;
  Alcotest.(check int) "nothing recorded" 0 (Trace.total trace);
  Alcotest.(check (list string)) "no events" []
    (List.map (fun e -> e.Trace.message) (Trace.events trace))

let test_trace_records_in_order () =
  let engine = Engine.create () in
  let trace = Trace.create engine in
  Trace.enable trace;
  Engine.spawn engine (fun () ->
      Trace.record trace ~source:"a" ~category:"x" "first";
      Engine.sleep 1.5;
      Trace.record trace ~source:"b" ~category:"y" "second");
  Engine.run engine;
  match Trace.events trace with
  | [ e1; e2 ] ->
      Alcotest.(check string) "msg1" "first" e1.Trace.message;
      Alcotest.(check (float 1e-9)) "time1" 0.0 e1.Trace.time;
      Alcotest.(check (float 1e-9)) "time2" 1.5 e2.Trace.time;
      Alcotest.(check string) "source2" "b" e2.Trace.source;
      Alcotest.(check int) "count x" 1 (Trace.count trace ~category:"x")
  | events -> Alcotest.failf "expected 2 events, got %d" (List.length events)

let test_trace_capacity_eviction () =
  let engine = Engine.create () in
  let trace = Trace.create ~capacity:3 engine in
  Trace.enable trace;
  for i = 1 to 5 do
    Trace.record trace ~source:"s" ~category:"c" "%d" i
  done;
  Alcotest.(check int) "total counts all" 5 (Trace.total trace);
  Alcotest.(check (list string)) "keeps most recent" [ "3"; "4"; "5" ]
    (List.map (fun e -> e.Trace.message) (Trace.events trace));
  Alcotest.(check (list string)) "tail" [ "4"; "5" ]
    (List.map (fun e -> e.Trace.message) (Trace.tail trace 2));
  Trace.clear trace;
  Alcotest.(check int) "cleared" 0 (List.length (Trace.events trace))

let test_trace_protocol_events () =
  (* A traced cluster produces decide and commit events. *)
  let cluster = Cluster.create ~seed:3 (Topology.ec2 "VVV") in
  Trace.enable (Cluster.trace cluster);
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group in
      Client.write txn "k" "v";
      ignore (Client.commit txn));
  Cluster.run cluster;
  let trace = Cluster.trace cluster in
  Alcotest.(check bool) "decide traced" true (Trace.count trace ~category:"decide" > 0);
  Alcotest.(check bool) "commit traced" true (Trace.count trace ~category:"commit" > 0)

(* ------------------------------------------------------------------ *)
(* Runner.                                                              *)

let test_runner_commits_first_try () =
  let cluster = Cluster.create ~seed:5 (Topology.ec2 "VVV") in
  let client = Cluster.client cluster ~dc:0 in
  let outcome = ref None in
  Cluster.spawn cluster (fun () ->
      outcome :=
        Some (Runner.run client ~group (fun txn -> Client.write txn "k" "v")));
  Cluster.run cluster;
  match !outcome with
  | Some { Runner.final = Audit.Committed _; attempts = 1 } -> ()
  | _ -> Alcotest.fail "expected one-attempt commit"

let test_runner_retries_conflicts_to_success () =
  (* Two counters racing under *basic* Paxos: the retry loop must drive
     every increment to an eventual commit, and the final counter value
     must equal the number of increments — no lost updates, no double
     applications. *)
  let cluster = Cluster.create ~seed:11 ~config:Config.basic (Topology.ec2 "VVV") in
  let total_attempts = ref 0 and commits = ref 0 in
  let per_client = 6 in
  for dc = 0 to 1 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        for _ = 1 to per_client do
          let outcome =
            Runner.run client ~group ~max_attempts:20 (fun txn ->
                let v =
                  Option.fold ~none:0 ~some:int_of_string (Client.read txn "counter")
                in
                Client.write txn "counter" (string_of_int (v + 1)))
          in
          total_attempts := !total_attempts + outcome.Runner.attempts;
          match outcome.Runner.final with
          | Audit.Committed _ -> incr commits
          | _ -> Alcotest.fail "increment did not eventually commit"
        done)
  done;
  Cluster.run cluster;
  Verify.check_exn cluster ~group;
  Alcotest.(check int) "all increments committed" (2 * per_client) !commits;
  Alcotest.(check bool) "retries actually happened" true
    (!total_attempts > 2 * per_client);
  (* Read the final counter. *)
  let reader = Cluster.client cluster ~dc:2 in
  let final = ref None in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ reader ~group in
      final := Client.read txn "counter";
      ignore (Client.commit txn));
  Cluster.run cluster;
  Alcotest.(check (option string)) "counter equals increments"
    (Some (string_of_int (2 * per_client)))
    !final

let test_runner_gives_up_at_cap () =
  (* With everything down, the runner performs exactly max_attempts when
     asked to retry unavailability. *)
  let config = { Config.default with rpc_timeout = 0.2; max_rounds = 2 } in
  let cluster = Cluster.create ~seed:2 ~config (Topology.ec2 "VVV") in
  Cluster.take_down cluster 1;
  Cluster.take_down cluster 2;
  let outcome = ref None in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      outcome :=
        Some
          (Runner.run client ~group ~max_attempts:3 ~retry_unavailable:true
             (fun txn -> Client.write txn "k" "v")));
  Cluster.run ~until:600.0 cluster;
  match !outcome with
  | Some { Runner.final = Audit.Aborted { reason = Audit.Unavailable; _ }; attempts = 3 } -> ()
  | Some { Runner.attempts; _ } -> Alcotest.failf "attempts = %d" attempts
  | None -> Alcotest.fail "no outcome"

let test_runner_invalid () =
  let cluster = Cluster.create ~seed:1 (Topology.ec2 "VVV") in
  let client = Cluster.client cluster ~dc:0 in
  Alcotest.check_raises "max_attempts 0"
    (Invalid_argument "Runner.run: max_attempts must be >= 1") (fun () ->
      ignore (Runner.run client ~group ~max_attempts:0 (fun _ -> ())))

(* ------------------------------------------------------------------ *)
(* Distribution.                                                        *)

let test_distribution_uniform_range () =
  let rng = Rng.create 4 in
  for _ = 1 to 1000 do
    let i = Distribution.sample Distribution.Uniform rng 10 in
    if i < 0 || i >= 10 then Alcotest.failf "uniform out of range %d" i
  done

let test_distribution_zipfian_skew () =
  let rng = Rng.create 9 in
  let n = 100 and draws = 20_000 in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let i = Distribution.sample (Distribution.Zipfian 0.99) rng n in
    if i < 0 || i >= n then Alcotest.failf "zipfian out of range %d" i;
    counts.(i) <- counts.(i) + 1
  done;
  (* The hottest key must be far above uniform share (draws/n = 200), and
     a large fraction of mass concentrated in few keys. *)
  let sorted = Array.copy counts in
  Array.sort (fun a b -> compare b a) sorted;
  Alcotest.(check bool)
    (Printf.sprintf "hot key dominates (%d)" sorted.(0))
    true
    (sorted.(0) > 3 * draws / n);
  let top10 = Array.fold_left ( + ) 0 (Array.sub sorted 0 10) in
  Alcotest.(check bool)
    (Printf.sprintf "top-10 share (%d of %d)" top10 draws)
    true
    (top10 > draws * 45 / 100)

let test_distribution_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "empty domain"
    (Invalid_argument "Distribution.sample: empty domain") (fun () ->
      ignore (Distribution.sample Distribution.Uniform rng 0));
  Alcotest.check_raises "bad theta"
    (Invalid_argument "Distribution.sample: theta must be in (0, 1)") (fun () ->
      ignore (Distribution.sample (Distribution.Zipfian 1.5) rng 10))

(* ------------------------------------------------------------------ *)
(* Oracle mutation tests: corrupt a healthy execution and require the
   verifier to notice. If these fail, every green integration test is
   meaningless.                                                         *)

let healthy_cluster () =
  let cluster = Cluster.create ~seed:13 (Topology.ec2 "VVV") in
  for dc = 0 to 2 do
    let client = Cluster.client cluster ~dc in
    Cluster.spawn cluster (fun () ->
        for i = 1 to 4 do
          let txn = Client.begin_ client ~group in
          ignore (Client.read txn (Printf.sprintf "k%d" dc));
          Client.write txn (Printf.sprintf "k%d" dc) (Printf.sprintf "%d-%d" dc i);
          ignore (Client.commit txn)
        done)
  done;
  Cluster.run cluster;
  Verify.check_exn cluster ~group;
  cluster

let expect_violation what cluster =
  match Verify.check cluster ~group with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "oracle missed: %s" what

let test_oracle_catches_log_divergence () =
  let cluster = healthy_cluster () in
  (* Overwrite one datacenter's copy of position 2 with a different
     entry, bypassing the protocol. *)
  let wal = Service.wal (Cluster.service cluster 1) in
  let store = Service.store (Cluster.service cluster 1) in
  Mdds_kvstore.Store.(delete_at (family store ~prefix:("log/" ^ group ^ "/")) 2);
  (* The raw delete went behind the WAL's decoded cache: drop it so the
     forged append below sees the corrupted durable state. *)
  Wal.invalidate wal;
  Wal.append wal ~group ~pos:2
    [
      Txn.make_record ~txn_id:"forged" ~origin:1 ~read_position:1 ~reads:[]
        ~writes:[ { Txn.key = "k1"; value = "forged" } ];
    ];
  expect_violation "diverged replica logs (R1)" cluster

let test_oracle_catches_duplicate_txn () =
  let cluster = healthy_cluster () in
  (* Copy position 1's entry into a fresh position at the head: the same
     transaction now occupies two slots (L2). *)
  let wal = Service.wal (Cluster.service cluster 0) in
  let entry = Option.get (Wal.entry wal ~group ~pos:1) in
  let head = Wal.last_position wal ~group in
  List.iter
    (fun dc ->
      Wal.append (Service.wal (Cluster.service cluster dc)) ~group ~pos:(head + 1) entry)
    [ 0; 1; 2 ];
  expect_violation "duplicated transaction (L2)" cluster

let test_oracle_catches_stale_read_entry () =
  let cluster = healthy_cluster () in
  (* Append, on every replica, a forged transaction whose read position
     predates a write to its read set (L3). *)
  let wal0 = Service.wal (Cluster.service cluster 0) in
  let head = Wal.last_position wal0 ~group in
  let forged =
    [
      Txn.make_record ~txn_id:"stale" ~origin:0 ~read_position:0
        ~reads:[ "k0" ] ~writes:[ { Txn.key = "z"; value = "1" } ];
    ]
  in
  List.iter
    (fun dc ->
      Wal.append (Service.wal (Cluster.service cluster dc)) ~group ~pos:(head + 1) forged)
    [ 0; 1; 2 ];
  expect_violation "stale read admitted (L3)" cluster

let test_oracle_catches_dishonest_outcome () =
  let cluster = healthy_cluster () in
  (* Report a commit that never reached any log. *)
  Audit.record (Cluster.audit cluster)
    {
      Audit.group;
      record =
        Txn.make_record ~txn_id:"phantom" ~origin:0 ~read_position:0 ~reads:[]
          ~writes:[ { Txn.key = "p"; value = "1" } ];
      observed = [];
      outcome = Audit.Committed { position = 1; promotions = 0; combined = false };
      began_at = 0.0;
      committed_at = 1.0;
      commit_started_at = 0.5;
      client_dc = 0;
      stats = Audit.no_stats;
    };
  expect_violation "phantom commit (L1)" cluster

let test_oracle_catches_wrong_observed_value () =
  let cluster = healthy_cluster () in
  (* Rewrite one audited event so the client claims to have read a value
     the serial execution never produced. *)
  let audit = Cluster.audit cluster in
  let tampered = Audit.create () in
  let corrupted = ref false in
  List.iter
    (fun (e : Audit.event) ->
      let e =
        if (not !corrupted) && e.observed <> [] then begin
          corrupted := true;
          { e with observed = List.map (fun (k, _) -> (k, Some "never-written")) e.observed }
        end
        else e
      in
      Audit.record tampered e)
    (Audit.events audit);
  if not !corrupted then Alcotest.fail "no event with reads to corrupt";
  (* Rebuild a cluster view with the tampered audit by verifying the
     tampered events against the same logs. *)
  let log = Cluster.committed_log cluster ~group in
  let observed_tbl = Hashtbl.create 16 in
  List.iter
    (fun (e : Audit.event) -> Hashtbl.replace observed_tbl e.record.txn_id e.observed)
    (Audit.events tampered);
  match Mdds_serial.Checker.check_log log ~observed:(Hashtbl.find_opt observed_tbl) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oracle missed: corrupted observed value"

(* ------------------------------------------------------------------ *)
(* Oracle reporting order: with several violations in one history, the
   oracles name the same one whatever order they walk the logs in. *)

let forged ?(reads = []) ?(writes = []) ~rp txn_id =
  Txn.make_record ~txn_id ~origin:0 ~read_position:rp ~reads
    ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes)

(* A cluster that never runs, with the given entries appended straight
   into datacenter [dc]'s log. *)
let forged_cluster logs =
  let cluster = Cluster.create (Topology.ec2 "VVV") in
  List.iter
    (fun (dc, log) ->
      let wal = Service.wal (Cluster.service cluster dc) in
      List.iter (fun (pos, entry) -> Wal.append wal ~group ~pos entry) log)
    logs;
  cluster

let same_everywhere log = forged_cluster [ (0, log); (1, log); (2, log) ]

let check_error what expected = function
  | Error msg -> Alcotest.(check string) what expected msg
  | Ok () -> Alcotest.failf "%s: no violation reported" what

(* dc1 differs from dc0 at position 2 and dc2 at position 1: the first
   conflict in datacenter-major order is dc1's, though dc2's has the
   lower position. *)
let test_order_first_conflict () =
  let a1 = [ forged "a1" ~rp:0 ] and a2 = [ forged "a2" ~rp:1 ] in
  let cluster =
    forged_cluster
      [
        (0, [ (1, a1); (2, a2) ]);
        (1, [ (1, a1); (2, [ forged "b2" ~rp:1 ]) ]);
        (2, [ (1, [ forged "b1" ~rp:0 ]); (2, a2) ]);
      ]
  in
  let name = Topology.name (Cluster.topology cluster) in
  check_error "logs_agree"
    (Printf.sprintf "position 2 differs between %s and %s" (name 0) (name 1))
    (Cluster.logs_agree cluster ~group)

let test_order_archive_conflict () =
  let log =
    [
      (1, [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (2, [ forged "t2" ~rp:1 ~writes:[ ("x", "2") ] ]);
      (3, [ forged "t3" ~rp:2 ~writes:[ ("x", "3") ] ]);
    ]
  in
  let archive =
    [
      (1, [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (2, [ forged "other2" ~rp:1 ]);
      (3, [ forged "other3" ~rp:2 ]);
    ]
  in
  check_error "archive"
    "R1: archived entry for position 2 differs from the live log"
    (Verify.check ~archive (same_everywhere log) ~group)

(* An archive out of position order, or holding a position twice, is
   refused even where every copy agrees with the live log. *)
let test_order_archive_unsorted () =
  let t1 = [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ]
  and t2 = [ forged "t2" ~rp:1 ~writes:[ ("x", "2") ] ] in
  let cluster = same_everywhere [ (1, t1); (2, t2) ] in
  check_error "unsorted"
    "archive: position 1 after position 2 (positions must increase)"
    (Verify.check ~archive:[ (2, t2); (1, t1) ] cluster ~group);
  check_error "repeated"
    "archive: position 1 after position 1 (positions must increase)"
    (Verify.check ~archive:[ (1, t1); (1, t1) ] cluster ~group)

(* t1 occupies two positions (L2) and t2 read x at 0 though t1 wrote it
   at 1 (L3): L2 is reported, though the stale read comes first. *)
let test_order_l2_before_l3 () =
  let t1 = [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ] in
  let log =
    [ (1, t1); (2, [ forged "t2" ~rp:0 ~reads:[ "x" ] ]); (3, t1) ]
  in
  check_error "L2 first"
    "L2: txn t1 at position 3: also appears at position 1 (L2 violation)"
    (Verify.check (same_everywhere log) ~group)

let audited cluster ?(observed = []) outcome record =
  Audit.record (Cluster.audit cluster)
    {
      Audit.group;
      record;
      observed;
      outcome;
      began_at = 0.0;
      committed_at = 1.0;
      commit_started_at = 0.5;
      client_dc = 0;
      stats = Audit.no_stats;
    }

let committed position =
  Audit.Committed { position; promotions = 0; combined = false }

(* t2 at 2 observed a value the serial execution never held (replay);
   t3 at 3 read x at 0 though t1 wrote it at 1 (L3): L3 is reported. *)
let test_order_l3_before_replay () =
  let t2 = forged "t2" ~rp:1 ~reads:[ "x" ] ~writes:[ ("y", "2") ] in
  let log =
    [
      (1, [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (2, [ t2 ]);
      (3, [ forged "t3" ~rp:0 ~reads:[ "x" ] ]);
    ]
  in
  let cluster = same_everywhere log in
  audited cluster ~observed:[ ("x", Some "wrong") ] (committed 2) t2;
  check_error "L3 first"
    "L3: txn t3 at position 3: stale read of x: wrote at position 1 by t1, \
     read position 0"
    (Verify.check cluster ~group)

(* A read-only transaction at 1 saw a wrong value, and t3 at 3 observed
   one the serial execution never held: replay is reported. *)
let test_order_replay_before_read_only () =
  let t3 = forged "t3" ~rp:2 ~reads:[ "x" ] ~writes:[ ("y", "3") ] in
  let log =
    [
      (1, [ forged "t1" ~rp:0 ~writes:[ ("x", "1") ] ]);
      (2, [ forged "t2" ~rp:1 ~writes:[ ("x", "2") ] ]);
      (3, [ t3 ]);
    ]
  in
  let cluster = same_everywhere log in
  audited cluster ~observed:[ ("x", Some "0") ] Audit.Read_only_committed
    (forged "r" ~rp:1 ~reads:[ "x" ]);
  audited cluster ~observed:[ ("x", Some "1") ] (committed 3) t3;
  check_error "replay first"
    "replay: txn t3 at position 3: read x = \"1\" but the serial execution \
     holds \"2\""
    (Verify.check cluster ~group)

let () =
  Alcotest.run "extras"
    [
      ( "trace",
        [
          Alcotest.test_case "disabled by default" `Quick test_trace_disabled_by_default;
          Alcotest.test_case "records in order" `Quick test_trace_records_in_order;
          Alcotest.test_case "capacity eviction" `Quick test_trace_capacity_eviction;
          Alcotest.test_case "protocol events" `Quick test_trace_protocol_events;
        ] );
      ( "runner",
        [
          Alcotest.test_case "first-try commit" `Quick test_runner_commits_first_try;
          Alcotest.test_case "retries to success, no lost updates" `Quick
            test_runner_retries_conflicts_to_success;
          Alcotest.test_case "gives up at cap" `Quick test_runner_gives_up_at_cap;
          Alcotest.test_case "invalid arguments" `Quick test_runner_invalid;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "uniform range" `Quick test_distribution_uniform_range;
          Alcotest.test_case "zipfian skew" `Quick test_distribution_zipfian_skew;
          Alcotest.test_case "invalid" `Quick test_distribution_invalid;
        ] );
      ( "oracle-mutation",
        [
          Alcotest.test_case "log divergence (R1)" `Quick test_oracle_catches_log_divergence;
          Alcotest.test_case "duplicate transaction (L2)" `Quick test_oracle_catches_duplicate_txn;
          Alcotest.test_case "stale-read entry (L3)" `Quick test_oracle_catches_stale_read_entry;
          Alcotest.test_case "dishonest outcome (L1)" `Quick test_oracle_catches_dishonest_outcome;
          Alcotest.test_case "corrupted observed value" `Quick
            test_oracle_catches_wrong_observed_value;
        ] );
      ( "oracle-order",
        [
          Alcotest.test_case "first conflict, datacenter-major" `Quick
            test_order_first_conflict;
          Alcotest.test_case "archive conflict, lowest position" `Quick
            test_order_archive_conflict;
          Alcotest.test_case "archive out of order refused" `Quick
            test_order_archive_unsorted;
          Alcotest.test_case "L2 before L3" `Quick test_order_l2_before_l3;
          Alcotest.test_case "L3 before replay" `Quick test_order_l3_before_replay;
          Alcotest.test_case "replay before read-only" `Quick
            test_order_replay_before_read_only;
        ] );
    ]
