(* Tests for the YCSB-like workload generator. *)

module Cluster = Mdds_core.Cluster
module Config = Mdds_core.Config
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Topology = Mdds_net.Topology
module Txn = Mdds_types.Txn
module Ycsb = Mdds_workload.Ycsb

let run_workload ?(seed = 42) ?(config = Config.default) workload =
  let cluster = Cluster.create ~seed ~config (Topology.ec2 "VVV") in
  let handle = Ycsb.run cluster workload in
  Cluster.run cluster;
  (cluster, handle)

let workload_events cluster =
  List.filter
    (fun (e : Audit.event) ->
      not (String.starts_with ~prefix:(Ycsb.preload_id ^ "/") e.record.txn_id))
    (Audit.events (Cluster.audit cluster))

let small =
  { Ycsb.default with total_txns = 40; threads = 4; rate = 4.0; attributes = 30 }

let test_txn_count_exact () =
  let cluster, handle = run_workload small in
  let events = workload_events cluster in
  Alcotest.(check int) "exactly requested transactions" 40 (List.length events);
  Alcotest.(check int) "handle agrees" 40 handle.Ycsb.finished;
  Alcotest.(check int) "no begin failures" 0 handle.Ycsb.begin_failures

let test_ops_per_txn () =
  let cluster, _ = run_workload small in
  List.iter
    (fun (e : Audit.event) ->
      let reads = List.length e.record.reads in
      let writes = List.length e.record.writes in
      (* Reads are deduplicated per key and writes keep one buffered value
         per key, so reads + writes <= ops; and a transaction performs at
         least one operation. *)
      if reads + writes > small.Ycsb.ops_per_txn then
        Alcotest.failf "txn %s has %d reads + %d writes > %d ops"
          e.record.txn_id reads writes small.Ycsb.ops_per_txn;
      if reads + writes = 0 then Alcotest.failf "empty transaction %s" e.record.txn_id)
    (workload_events cluster)

let test_keys_in_range () =
  let cluster, _ = run_workload small in
  let valid key =
    String.length key = 4
    && key.[0] = 'a'
    &&
    match int_of_string_opt (String.sub key 1 3) with
    | Some n -> n >= 0 && n < small.Ycsb.attributes
    | None -> false
  in
  List.iter
    (fun (e : Audit.event) ->
      List.iter
        (fun k -> if not (valid k) then Alcotest.failf "bad key %s" k)
        (e.record.reads @ List.map (fun (w : Txn.write) -> w.key) e.record.writes))
    (workload_events cluster)

let test_preload_first () =
  let cluster, _ = run_workload small in
  let log = Cluster.committed_log cluster ~group:small.Ycsb.group in
  match log with
  | (1, [ first ]) :: _ ->
      Alcotest.(check bool) "preload owns position 1" true
        (String.starts_with ~prefix:(Ycsb.preload_id ^ "/") first.Txn.txn_id);
      Alcotest.(check int) "preload writes every attribute"
        small.Ycsb.attributes
        (List.length first.Txn.writes)
  | _ -> Alcotest.fail "no preload at position 1"

let test_no_preload () =
  let cluster, _ = run_workload { small with Ycsb.preload = false } in
  let log = Cluster.committed_log cluster ~group:small.Ycsb.group in
  List.iter
    (fun (_, entry) ->
      List.iter
        (fun (r : Txn.record) ->
          if String.starts_with ~prefix:(Ycsb.preload_id ^ "/") r.txn_id then
            Alcotest.fail "preload present despite preload = false")
        entry)
    log

let test_client_dcs_round_robin () =
  let workload = { small with Ycsb.client_dcs = [ 0; 2 ]; threads = 4 } in
  let cluster, _ = run_workload workload in
  let dcs =
    List.sort_uniq compare
      (List.map (fun (e : Audit.event) -> e.client_dc) (workload_events cluster))
  in
  Alcotest.(check (list int)) "only listed datacenters" [ 0; 2 ] dcs

let test_pacing_duration () =
  (* 40 txns over 4 threads at 4/s each: the run takes roughly
     preload + 10/4 s; far less than a serial execution at that rate. *)
  let cluster, _ = run_workload small in
  let duration = Cluster.now cluster in
  Alcotest.(check bool) "plausible duration" true (duration > 1.0 && duration < 30.0)

let test_rate_controls_duration () =
  let slow = { small with Ycsb.rate = 1.0 } in
  let fast = { small with Ycsb.rate = 8.0 } in
  let _, _ = run_workload slow in
  let cluster_slow, _ = run_workload slow in
  let cluster_fast, _ = run_workload fast in
  Alcotest.(check bool) "slower rate runs longer" true
    (Cluster.now cluster_slow > Cluster.now cluster_fast)

let test_workload_serializable_both_protocols () =
  List.iter
    (fun config ->
      let cluster, _ = run_workload ~config { small with Ycsb.total_txns = 60 } in
      match Verify.check cluster ~group:small.Ycsb.group with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "%s: %s" (Config.protocol_name config.Config.protocol) m)
    [ Config.basic; Config.default ]

let test_invalid_configs () =
  let cluster = Cluster.create ~seed:1 (Topology.ec2 "VVV") in
  Alcotest.check_raises "zero threads"
    (Invalid_argument "Ycsb.run: threads must be positive") (fun () ->
      ignore (Ycsb.run cluster { small with Ycsb.threads = 0 }));
  Alcotest.check_raises "no client dcs"
    (Invalid_argument "Ycsb.run: client_dcs empty") (fun () ->
      ignore (Ycsb.run cluster { small with Ycsb.client_dcs = [] }));
  List.iter
    (fun rate ->
      Alcotest.check_raises
        (Printf.sprintf "rate %g" rate)
        (Invalid_argument "Ycsb.run: rate must be finite and positive")
        (fun () -> ignore (Ycsb.run cluster { small with Ycsb.rate })))
    [ 0.0; -1.0; Float.nan; Float.infinity ];
  Alcotest.check_raises "zero attributes"
    (Invalid_argument "Ycsb.run: attributes must be positive") (fun () ->
      ignore (Ycsb.run cluster { small with Ycsb.attributes = 0 }))

let test_read_write_mix () =
  (* With read_fraction 0, every op is a write; with 1.0, every txn is
     read-only. *)
  let cluster_w, _ = run_workload { small with Ycsb.read_fraction = 0.0 } in
  List.iter
    (fun (e : Audit.event) ->
      Alcotest.(check int) "no reads" 0 (List.length e.record.reads))
    (workload_events cluster_w);
  let cluster_r, _ = run_workload { small with Ycsb.read_fraction = 1.0 } in
  List.iter
    (fun (e : Audit.event) ->
      match e.outcome with
      | Audit.Read_only_committed -> ()
      | _ -> Alcotest.fail "pure-read workload must be read-only commits")
    (workload_events cluster_r)

let () =
  Alcotest.run "workload"
    [
      ( "ycsb",
        [
          Alcotest.test_case "transaction count" `Quick test_txn_count_exact;
          Alcotest.test_case "ops per transaction" `Quick test_ops_per_txn;
          Alcotest.test_case "keys in range" `Quick test_keys_in_range;
          Alcotest.test_case "preload first" `Quick test_preload_first;
          Alcotest.test_case "no preload" `Quick test_no_preload;
          Alcotest.test_case "client dcs round robin" `Quick test_client_dcs_round_robin;
          Alcotest.test_case "pacing duration" `Quick test_pacing_duration;
          Alcotest.test_case "rate controls duration" `Quick test_rate_controls_duration;
          Alcotest.test_case "serializable both protocols" `Slow
            test_workload_serializable_both_protocols;
          Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
          Alcotest.test_case "read/write mix" `Quick test_read_write_mix;
        ] );
    ]
