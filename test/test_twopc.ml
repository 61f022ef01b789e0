(* Tests for the multi-shot cross-group atomic commit (PROTOCOL.md §10):
   the marker-record codec, the client-side protocol, atomicity under a
   mid-commit fault, and the cross-group oracle. *)

module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Config = Mdds_core.Config
module Service = Mdds_core.Service
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Twopc = Mdds_core.Twopc
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Ycsb = Mdds_workload.Ycsb

let make ?(seed = 42) ?(spec = "VVV") ?(config = Config.leader) () =
  Cluster.create ~seed ~config (Topology.ec2 spec)

let committed = function
  | Audit.Committed _ | Audit.Read_only_committed -> true
  | Audit.Aborted _ | Audit.Unknown -> false

(* Read [key] in [group] through a fresh single-group transaction. *)
let read_now cluster ~group key =
  let client = Cluster.client cluster ~dc:0 in
  let txn = Client.begin_ client ~group in
  let v = Client.read txn key in
  ignore (Client.commit txn);
  v

(* ------------------------------------------------------------------ *)
(* Marker codec.                                                        *)

let test_marker_codec () =
  let payload =
    {
      Twopc.coordinator = "a";
      participants = [ "a"; "b" ];
      writes = [ ("x", "1"); ("y", "2") ];
    }
  in
  let prep =
    Twopc.prepare_record ~txid:"t1" ~origin:0 ~read_position:3
      ~reads:[ "x"; "y" ] ~payload
  in
  (match Twopc.classify prep with
  | Twopc.Prepare { txid = "t1" } -> ()
  | _ -> Alcotest.fail "prepare did not classify");
  let p = Twopc.payload prep in
  Alcotest.(check string) "coordinator" "a" p.Twopc.coordinator;
  Alcotest.(check (list string)) "participants" [ "a"; "b" ] p.Twopc.participants;
  Alcotest.(check (list (pair string string))) "writes" payload.Twopc.writes p.Twopc.writes;
  (* Classification never decodes the payload: only {!Twopc.payload} does,
     so a prepare carrying an undecodable payload still classifies. *)
  let garbled =
    Txn.make_record ~txn_id:"t1" ~origin:0 ~read_position:3 ~reads:[ "x" ]
      ~writes:[ { Txn.key = Twopc.prepare_key "t1"; value = "\xff" } ]
  in
  (match Twopc.classify garbled with
  | Twopc.Prepare { txid = "t1" } -> ()
  | _ -> Alcotest.fail "garbled prepare did not classify");
  Alcotest.(check bool) "payload decode happens on demand" true
    (match Twopc.payload garbled with _ -> false | exception _ -> true);
  let out =
    Twopc.outcome_record ~txid:"t1" ~tag:"cli" ~origin:0 ~prepare_position:3
      ~verdict:Twopc.commit_verdict ~writes:[ ("x", "1") ]
  in
  (match Twopc.classify out with
  | Twopc.Outcome { txid = "t1"; verdict } ->
      Alcotest.(check string) "verdict" Twopc.commit_verdict verdict
  | _ -> Alcotest.fail "outcome did not classify");
  Alcotest.(check string) "outcome id tagged" "t1/o@cli" out.Txn.txn_id;
  let dec =
    Twopc.decision_record ~txid:"t1" ~tag:"dc2" ~origin:2
      ~verdict:Twopc.abort_verdict
  in
  (match Twopc.classify dec with
  | Twopc.Decision { txid = "t1"; verdict } ->
      Alcotest.(check string) "abort verdict" Twopc.abort_verdict verdict
  | _ -> Alcotest.fail "decision did not classify");
  let plain =
    Txn.make_record ~txn_id:"t2" ~origin:0 ~read_position:0 ~reads:[]
      ~writes:[ { Txn.key = "x"; value = "v" } ]
  in
  Alcotest.(check bool) "plain stays plain" true (Twopc.classify plain = Twopc.Plain);
  Alcotest.(check bool) "plain is no marker" false (Twopc.is_marker plain);
  Alcotest.check_raises "payload of a non-prepare"
    (Invalid_argument "Twopc.payload: not a prepare record") (fun () ->
      ignore (Twopc.payload out));
  let ag = Twopc.audit_group [ "a"; "b" ] in
  Alcotest.(check string) "audit group" "cross:a+b" ag;
  Alcotest.(check bool) "audit group detected" true (Twopc.is_audit_group ag);
  Alcotest.(check bool) "real group is not" false (Twopc.is_audit_group "a")

(* ------------------------------------------------------------------ *)
(* Happy path.                                                          *)

let test_cross_commit_atomic () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  let outcome = ref Audit.Unknown in
  Cluster.spawn cluster (fun () ->
      let m = Client.begin_multi client ~groups:[ "b"; "a"; "b" ] in
      ignore (Client.read_in m ~group:"a" "x");
      Client.write_in m ~group:"a" "x" "from-cross";
      Client.write_in m ~group:"b" "y" "from-cross";
      outcome := Client.commit_multi m);
  Cluster.run cluster;
  Alcotest.(check bool) "committed" true (committed !outcome);
  (* Both groups apply the buffered writes, visible to ordinary reads. *)
  Cluster.spawn cluster (fun () ->
      Alcotest.(check (option string)) "x in a" (Some "from-cross")
        (read_now cluster ~group:"a" "x");
      Alcotest.(check (option string)) "y in b" (Some "from-cross")
        (read_now cluster ~group:"b" "y"));
  Cluster.run cluster;
  Verify.check_exn cluster ~group:"a";
  Verify.check_exn cluster ~group:"b";
  Verify.check_cross_exn cluster ~groups:[ "a"; "b" ]

let test_single_group_multi_delegates () =
  (* One group: commit_multi is an ordinary single-group commit — no
     marker records anywhere in the log. *)
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  let outcome = ref Audit.Unknown in
  Cluster.spawn cluster (fun () ->
      let m = Client.begin_multi client ~groups:[ "g"; "g" ] in
      Client.write_in m ~group:"g" "x" "solo";
      outcome := Client.commit_multi m);
  Cluster.run cluster;
  (match !outcome with
  | Audit.Committed _ -> ()
  | _ -> Alcotest.fail "single-group mtxn did not commit");
  let wal = Service.wal (Cluster.service cluster 0) in
  List.iter
    (fun (_, entry) ->
      List.iter
        (fun r ->
          Alcotest.(check bool) "no markers" false (Twopc.is_marker r))
        entry)
    (Wal.dump wal ~group:"g");
  Verify.check_exn cluster ~group:"g"

let test_read_only_cross () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  let outcome = ref Audit.Unknown in
  Cluster.spawn cluster (fun () ->
      let m = Client.begin_multi client ~groups:[ "a"; "b" ] in
      ignore (Client.read_in m ~group:"a" "x");
      ignore (Client.read_in m ~group:"b" "y");
      outcome := Client.commit_multi m);
  Cluster.run cluster;
  Alcotest.(check bool) "read-only committed" true
    (!outcome = Audit.Read_only_committed);
  Verify.check_cross_exn cluster ~groups:[ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Conflict: presumed abort leaves no trace.                            *)

let test_cross_conflict_aborts_atomically () =
  let cluster = make () in
  let outcome = ref Audit.Unknown in
  let cross_client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let m = Client.begin_multi cross_client ~groups:[ "a"; "b" ] in
      ignore (Client.read_in m ~group:"a" "k");
      Client.write_in m ~group:"a" "k" "cross";
      Client.write_in m ~group:"b" "y" "cross";
      (* Park long enough for the interfering writer to commit, making
         the pinned read position stale. *)
      Engine.sleep 2.0;
      outcome := Client.commit_multi m);
  Cluster.spawn ~at:0.1 cluster (fun () ->
      let client = Cluster.client cluster ~dc:1 in
      let txn = Client.begin_ client ~group:"a" in
      ignore (Client.read txn "k");
      Client.write txn "k" "winner";
      match Client.commit txn with
      | Audit.Committed _ -> ()
      | _ -> Alcotest.fail "interfering writer failed to commit");
  Cluster.run cluster;
  (match !outcome with
  | Audit.Aborted { reason = Audit.Conflict; _ } -> ()
  | _ -> Alcotest.fail "stale cross transaction did not abort with Conflict");
  (* Atomic: the first prepare was rejected, so NOTHING reached group b. *)
  Cluster.spawn cluster (fun () ->
      Alcotest.(check (option string)) "b untouched" None
        (read_now cluster ~group:"b" "y");
      Alcotest.(check (option string)) "a kept the winner" (Some "winner")
        (read_now cluster ~group:"a" "k"));
  Cluster.run cluster;
  Verify.check_exn cluster ~group:"a";
  Verify.check_exn cluster ~group:"b";
  Verify.check_cross_exn cluster ~groups:[ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Mid-commit fault: the window the protocol exists for.                *)

let test_mid_commit_restart_atomic () =
  (* Restart the coordinator's datacenter the instant the first prepare
     marker crosses it (the chaos mid-2pc trap, used surgically). The
     client may report commit, abort or unknown — but both groups must
     end in the same state and every oracle must hold. *)
  let cluster = make () in
  Service.arm_2pc_trap (Cluster.service cluster 0) (fun () ->
      Cluster.restart cluster 0);
  let client = Cluster.client cluster ~dc:1 in
  let outcome = ref Audit.Unknown in
  Cluster.spawn cluster (fun () ->
      let m = Client.begin_multi client ~groups:[ "a"; "b" ] in
      ignore (Client.read_in m ~group:"a" "x");
      Client.write_in m ~group:"a" "x" "cross";
      Client.write_in m ~group:"b" "y" "cross";
      outcome := Client.commit_multi m);
  Cluster.run cluster;
  (* Drain: in-doubt resolvers may still be settling leftovers. *)
  let x = ref None and y = ref None in
  Cluster.spawn cluster (fun () ->
      x := read_now cluster ~group:"a" "x";
      y := read_now cluster ~group:"b" "y");
  Cluster.run cluster;
  (* All-or-nothing across groups, whatever the fault did. *)
  Alcotest.(check bool) "atomic across groups" true
    ((!x = Some "cross" && !y = Some "cross") || (!x = None && !y = None));
  (* A client-visible Committed/Aborted must match the data. *)
  (match !outcome with
  | Audit.Committed _ | Audit.Read_only_committed ->
      Alcotest.(check bool) "reported commit took effect" true (!x = Some "cross")
  | Audit.Aborted _ ->
      Alcotest.(check bool) "reported abort left no trace" true (!x = None)
  | Audit.Unknown -> ());
  Verify.check_exn cluster ~group:"a";
  Verify.check_exn cluster ~group:"b";
  Verify.check_cross_exn cluster ~groups:[ "a"; "b" ]

(* ------------------------------------------------------------------ *)
(* Workload integration: mixed single/cross under the full oracle.      *)

let test_workload_mix_verifies () =
  let cluster = make ~seed:7 () in
  let wl =
    {
      Ycsb.default with
      groups = 3;
      cross_ratio = 0.5;
      total_txns = 60;
      threads = 3;
      rate = 4.0;
      ops_per_txn = 4;
      attributes = 12;
    }
  in
  ignore (Ycsb.run cluster wl);
  Cluster.run cluster;
  let groups = Ycsb.group_keys wl in
  List.iter (fun group -> Verify.check_exn cluster ~group) groups;
  Verify.check_cross_exn cluster ~groups;
  let events = Audit.events (Cluster.audit cluster) in
  let cross_commits =
    List.length
      (List.filter
         (fun (e : Audit.event) -> Twopc.is_audit_group e.group && committed e.outcome)
         events)
  in
  Alcotest.(check bool) "some cross-group transactions committed" true
    (cross_commits > 0)

(* Regression (window exclusivity under batching): a prepare admitted
   into a batch let later batch-mates that conflict with its footprint
   into the same entry — inside its in-doubt window, since a prepare
   writes only its marker and the write-union cannot see the conflict.
   This run (the benchmark's cross-group workload, batched) failed
   [check_cross] with a client outcome record at position 1030 of ycsb-1,
   between prepare 1027 and outcome 1031. *)
let test_batched_window_exclusive () =
  let config = Config.throughput ~batch_max:8 ~pipeline_depth:4 Config.leader in
  let cluster = make ~seed:7 ~config () in
  let wl =
    {
      Ycsb.default with
      total_txns = 4000;
      groups = 4;
      cross_ratio = 0.3;
      threads = 6;
      rate = 0.5;
      client_dcs = [ 0; 1; 2 ];
    }
  in
  ignore (Ycsb.run cluster wl);
  Cluster.run cluster;
  let groups = Ycsb.group_keys wl in
  List.iter (fun group -> Verify.check_exn cluster ~group) groups;
  Verify.check_cross_exn cluster ~groups

(* ------------------------------------------------------------------ *)
(* Cross-group oracle on hand-built logs.                               *)

(* The window-exclusivity check, fed a log through [~archives] (merged
   with the cluster's empty live logs): a plain write to the prepared key
   between the prepare and its outcome is reported by name and position;
   the same write after the outcome, a disjoint write and the decision
   inside the window are not. *)
let test_window_violation_reported () =
  let plain txn_id key =
    Txn.make_record ~txn_id ~origin:0 ~read_position:0 ~reads:[]
      ~writes:[ { Txn.key; value = txn_id } ]
  in
  let payload =
    { Twopc.coordinator = "a"; participants = [ "a" ]; writes = [ ("k", "1") ] }
  in
  let log ~inside =
    [
      (1, [ Twopc.prepare_record ~txid:"t1" ~origin:0 ~read_position:0
              ~reads:[ "k" ] ~payload ]);
      (2, [ Twopc.decision_record ~txid:"t1" ~tag:"cli" ~origin:0
              ~verdict:Twopc.commit_verdict ]);
      (3, [ plain "disjoint" "z" ]);
      (4, inside);
      (5, [ Twopc.outcome_record ~txid:"t1" ~tag:"cli" ~origin:0
              ~prepare_position:1 ~verdict:Twopc.commit_verdict
              ~writes:[ ("k", "1") ] ]);
      (6, [ plain "after" "k" ]);
    ]
  in
  let check inside =
    Verify.check_cross (make ()) ~groups:[ "a" ]
      ~archives:[ ("a", log ~inside) ]
  in
  Alcotest.(check (result unit string)) "clean window passes" (Ok ())
    (check [ plain "elsewhere" "y" ]);
  Alcotest.(check (result unit string)) "write inside the window reported"
    (Error
       "cross: record w at pos 4 in a inside the in-doubt window of t1 \
        (prepare 1, outcome 5)")
    (check [ plain "w" "k" ])

(* Every other message of the oracle, each from one hand-built history:
   [logs] maps a group to its log (fed through [~archives]), [events]
   are the client's cross-group reports. *)
let cross_verdict ?(events = []) ~groups logs =
  let cluster = make () in
  List.iter
    (fun (txid, outcome, observed) ->
      Audit.record (Cluster.audit cluster)
        {
          Audit.group = Twopc.audit_group groups;
          record =
            Txn.make_record ~txn_id:txid ~origin:0 ~read_position:0
              ~reads:(List.map fst observed) ~writes:[];
          observed;
          outcome;
          began_at = 0.0;
          committed_at = 0.0;
          commit_started_at = 0.0;
          client_dc = 0;
          stats = Audit.no_stats;
        })
    events;
  Verify.check_cross cluster ~groups ~archives:logs

let prepare ?(coordinator = "a") ?(participants = [ "a" ]) ?(read_position = 0)
    ?(reads = [ "k" ]) ?(writes = [ ("k", "1") ]) txid =
  Twopc.prepare_record ~txid ~origin:0 ~read_position ~reads
    ~payload:{ Twopc.coordinator; participants; writes }

let decision ?(verdict = Twopc.commit_verdict) txid =
  Twopc.decision_record ~txid ~tag:"cli" ~origin:0 ~verdict

let outcome ?(verdict = Twopc.commit_verdict) ?(writes = [ ("k", "1") ]) txid =
  Twopc.outcome_record ~txid ~tag:"cli" ~origin:0 ~prepare_position:1 ~verdict
    ~writes

let committed_at position =
  Audit.Committed { position; promotions = 0; combined = false }

let test_oracle_messages () =
  let case name expected ?events ?(groups = [ "a" ]) logs =
    Alcotest.(check (result unit string)) name (Error expected)
      (cross_verdict ?events ~groups logs)
  in
  let abort = Twopc.abort_verdict in
  case "unresolved prepare"
    "cross: prepare t1 in a (pos 1) left unresolved: no outcome logged"
    [ ("a", [ (1, [ prepare "t1" ]) ]) ];
  case "outcome without a decision"
    "cross: outcome commit for t1 in a (pos 2) without a decision in \
     coordinator a"
    [ ("a", [ (1, [ prepare "t1" ]); (2, [ outcome "t1" ]) ]) ];
  case "outcome contradicts the decision"
    "cross: outcome commit for t1 in a (pos 3) contradicts decision abort"
    [
      ( "a",
        [
          (1, [ prepare "t1" ]);
          (2, [ decision ~verdict:abort "t1" ]);
          (3, [ outcome "t1" ]);
        ] );
    ];
  (* Each group's prepare names its own group as the coordinator, whose
     abort decision its outcome follows. *)
  case "prepares disagree on the payload"
    "cross: prepares for t1 in a and b disagree on the payload"
    ~groups:[ "a"; "b" ]
    [
      ( "a",
        [
          (1, [ prepare ~participants:[ "a"; "b" ] "t1" ]);
          (2, [ decision ~verdict:abort "t1" ]);
          (3, [ outcome ~verdict:abort "t1" ]);
        ] );
      ( "b",
        [
          (1, [ prepare ~coordinator:"b" ~participants:[ "a"; "b" ] "t1" ]);
          (2, [ decision ~verdict:abort "t1" ]);
          (3, [ outcome ~verdict:abort "t1" ]);
        ] );
    ];
  case "committed without a participant's prepare"
    "cross: t1 committed but participant b has no prepare" ~groups:[ "a"; "b" ]
    [
      ( "a",
        [
          (1, [ prepare ~participants:[ "a"; "b" ] "t1" ]);
          (2, [ decision "t1" ]);
          (3, [ outcome "t1" ]);
        ] );
      ("b", []);
    ];
  case "commit outcome misses the prepared writes"
    "cross: t1 commit outcome in a (pos 3) does not apply the prepared writes"
    [
      ( "a",
        [
          (1, [ prepare "t1" ]);
          (2, [ decision "t1" ]);
          (3, [ outcome ~writes:[ ("k", "2") ] "t1" ]);
        ] );
    ];
  case "prepare outside the participants"
    "cross: prepare t1 logged in a, not a listed participant"
    [
      ( "a",
        [
          (1, [ prepare ~participants:[ "b" ] "t1" ]);
          (2, [ decision ~verdict:abort "t1" ]);
          (3, [ outcome ~verdict:abort "t1" ]);
        ] );
    ];
  let committed_log =
    [
      ( "a",
        [ (1, [ prepare "t1" ]); (2, [ decision "t1" ]); (3, [ outcome "t1" ]) ]
      );
    ]
  in
  case "dishonest commit report"
    "cross: client reported t9 committed but no commit decision is logged"
    ~events:[ ("t9", committed_at 7, []) ]
    committed_log;
  case "dishonest abort report"
    "cross: client reported t1 aborted but a commit decision is logged"
    ~events:
      [ ("t1", Audit.Aborted { reason = Audit.Conflict; promotions = 0 }, []) ]
    committed_log;
  (* t2 read k at position 3, where the serial history holds t1's value. *)
  case "cross-group read replayed"
    "cross: replay in a: txn t2 at position 4: read k = \"0\" but the serial \
     execution holds \"1\""
    ~events:[ ("t2", committed_at 5, [ ("a/k", Some "0") ]) ]
    [
      ( "a",
        List.assoc "a" committed_log
        @ [
            (4, [ prepare ~read_position:3 "t2" ]);
            (5, [ decision "t2" ]);
            (6, [ outcome "t2" ]);
          ] );
    ]

(* Two violations of one phase, in two groups: the first group in
   [groups] order is reported, whatever the log positions. *)
let test_oracle_precedence () =
  Alcotest.(check (result unit string)) "first group's violation"
    (Error "cross: prepare t3 in a (pos 2) left unresolved: no outcome logged")
    (cross_verdict ~groups:[ "a"; "b" ]
       [
         ("a", [ (2, [ prepare ~participants:[ "a"; "b" ] "t3" ]) ]);
         ("b", [ (1, [ prepare ~participants:[ "a"; "b" ] "t1" ]) ]);
       ])

(* ------------------------------------------------------------------ *)
(* API misuse.                                                          *)

let test_invalid_args () =
  let cluster = make ~config:Config.default () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      Alcotest.check_raises "empty groups"
        (Invalid_argument "Client.begin_multi: no groups") (fun () ->
          ignore (Client.begin_multi client ~groups:[]));
      let m = Client.begin_multi client ~groups:[ "a"; "b" ] in
      Alcotest.check_raises "unknown group"
        (Invalid_argument "Client.write_in: group \"c\" not in transaction")
        (fun () -> Client.write_in m ~group:"c" "x" "v");
      (* Cross-group commit needs the leader protocol's manager admission;
         this cluster runs Paxos-CP. *)
      Client.write_in m ~group:"a" "x" "v";
      Client.write_in m ~group:"b" "y" "v";
      match Client.commit_multi m with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "commit_multi accepted a non-leader protocol");
  Cluster.run cluster

(* A client key under the reserved prefix would be taken for a marker: a
   prepare "payload" that does not decode, or a decision whose second
   write the WAL's write-once rule drops while reporting a commit. *)
let test_reserved_keys_refused () =
  let cluster = make () in
  let client = Cluster.client cluster ~dc:0 in
  Cluster.spawn cluster (fun () ->
      let txn = Client.begin_ client ~group:"a" in
      Alcotest.check_raises "write"
        (Invalid_argument "Client.write: key \"__2pc/d/x\" is reserved")
        (fun () -> Client.write txn "__2pc/d/x" "v");
      Alcotest.check_raises "read"
        (Invalid_argument "Client.read: key \"__2pc/p/x\" is reserved")
        (fun () -> ignore (Client.read txn "__2pc/p/x"));
      let m = Client.begin_multi client ~groups:[ "a"; "b" ] in
      Alcotest.check_raises "write_in"
        (Invalid_argument "Client.write: key \"__2pc/o/x\" is reserved")
        (fun () -> Client.write_in m ~group:"b" "__2pc/o/x" "v");
      Alcotest.check_raises "read_in"
        (Invalid_argument "Client.read: key \"__2pc/\" is reserved")
        (fun () -> ignore (Client.read_in m ~group:"a" "__2pc/")));
  Cluster.run cluster

(* Every record of every applied entry is classified, so a plain record
   allocates nothing and a marker allocates only its result: the txid
   string and the constructor's block. *)
let test_classify_words () =
  let per_call r =
    let n = 1000 in
    let before = Gc.minor_words () in
    for _ = 1 to n do
      ignore (Sys.opaque_identity (Twopc.classify r))
    done;
    Float.to_int (Float.round ((Gc.minor_words () -. before) /. float_of_int n))
  in
  (* A string's block: a header and [length / 8 + 1] words of bytes. *)
  let string_words s = 1 + (String.length s / 8) + 1 in
  let plain =
    Txn.make_record ~txn_id:"t2" ~origin:0 ~read_position:0 ~reads:[ "x" ]
      ~writes:[ { Txn.key = "x"; value = "v" } ]
  in
  Alcotest.(check int) "plain record" 0 (per_call plain);
  List.iter
    (fun txid ->
      let payload = { Twopc.coordinator = "a"; participants = [ "a" ]; writes = [] } in
      let markers =
        [
          ( "prepare",
            Twopc.prepare_record ~txid ~origin:0 ~read_position:0 ~reads:[]
              ~payload,
            2 );
          ( "outcome",
            Twopc.outcome_record ~txid ~tag:"dc0" ~origin:0 ~prepare_position:1
              ~verdict:Twopc.abort_verdict ~writes:[],
            3 );
          ( "decision",
            Twopc.decision_record ~txid ~tag:"dc0" ~origin:0
              ~verdict:Twopc.abort_verdict,
            3 );
        ]
      in
      List.iter
        (fun (kind, r, block) ->
          Alcotest.(check int)
            (Printf.sprintf "%s of %S" kind txid)
            (block + string_words txid) (per_call r))
        markers)
    [ "t1"; "client-7/txn-000123456" ]

let () =
  Alcotest.run "twopc"
    [
      ( "codec",
        [
          Alcotest.test_case "marker records roundtrip" `Quick test_marker_codec;
          Alcotest.test_case "classify allocates only its result" `Quick
            test_classify_words;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "cross commit is atomic" `Quick test_cross_commit_atomic;
          Alcotest.test_case "single-group mtxn delegates" `Quick
            test_single_group_multi_delegates;
          Alcotest.test_case "read-only cross commits locally" `Quick
            test_read_only_cross;
          Alcotest.test_case "stale cross txn aborts atomically" `Quick
            test_cross_conflict_aborts_atomically;
        ] );
      ( "faults",
        [
          Alcotest.test_case "mid-commit restart keeps atomicity" `Quick
            test_mid_commit_restart_atomic;
          Alcotest.test_case "mixed workload passes every oracle" `Quick
            test_workload_mix_verifies;
          Alcotest.test_case "batched prepares keep their window exclusive"
            `Quick test_batched_window_exclusive;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "window violation reported" `Quick
            test_window_violation_reported;
          Alcotest.test_case "every other violation reported" `Quick
            test_oracle_messages;
          Alcotest.test_case "first group's violation first" `Quick
            test_oracle_precedence;
        ] );
      ( "api",
        [
          Alcotest.test_case "invalid arguments rejected" `Quick test_invalid_args;
          Alcotest.test_case "reserved keys refused" `Quick
            test_reserved_keys_refused;
        ] );
    ]
