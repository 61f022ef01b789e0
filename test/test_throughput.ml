(* Tests for throughput mode (DESIGN.md §14): transaction batching and
   k-deep pipelined log positions. Every Submit runs through the one
   batching manager; the knobs are opt-in ({!Config.throughput}) and at
   batch 1 / depth 1 it proposes one transaction per position. Everything
   here checks batched/pipelined settings against the same oracles as
   that unbatched setting — plus equivalence against it, and the
   unbatched leader against digests pinned from the former dedicated
   unbatched Submit path. *)

module Cluster = Mdds_core.Cluster
module Client = Mdds_core.Client
module Counters = Mdds_core.Counters
module Config = Mdds_core.Config
module Service = Mdds_core.Service
module Messages = Mdds_core.Messages
module Audit = Mdds_core.Audit
module Verify = Mdds_core.Verify
module Checker = Mdds_serial.Checker
module Topology = Mdds_net.Topology
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng
module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot

let group = "g"

let committed = function
  | Audit.Committed _ | Audit.Read_only_committed -> true
  | Audit.Aborted _ | Audit.Unknown -> false

(* Throughput mode with a [fill] window: batches of up to [batch_max],
   [pipeline_depth] positions in flight. *)
let fill_config ~batch_max ~pipeline_depth ~fill =
  Config.make
    ~base:(Config.throughput ~batch_max ~pipeline_depth Config.leader)
    ~batch_fill:fill ()

let make ?(seed = 42) ?(spec = "VVV") ?(batch_max = 8) ?(pipeline_depth = 4)
    ?(batch_fill = Config.default.batch_fill) () =
  let config = fill_config ~batch_max ~pipeline_depth ~fill:batch_fill in
  Cluster.create ~seed ~config (Topology.ec2 spec)

(* Each of [Service]'s record views reads its own slots. *)
let check_views svc =
  let count = Counters.get (Service.counters svc) in
  let check name counter v = Alcotest.(check int) name (count counter) v in
  check "learns view" Learns (Service.learns svc);
  check "snapshots view" Snapshots (Service.snapshots svc);
  let r = Service.recovery_stats svc in
  check "recoveries view" Recoveries r.Service.recoveries;
  check "scrubbed view" Scrubbed r.Service.scrubbed;
  check "relearned view" Relearned r.Service.relearned;
  let b = Service.throughput_stats svc in
  check "batches view" Batches b.Service.batches;
  check "batched_txns view" Batched_txns b.Service.batched_txns;
  check "pipelined_rounds view" Pipelined_rounds b.Service.pipelined_rounds;
  check "pipeline_stalls view" Pipeline_stalls b.Service.pipeline_stalls;
  let x = Service.twopc_stats svc in
  check "twopc_prepares view" Twopc_prepares x.Service.twopc_prepares;
  check "twopc_resolved view" Twopc_resolved x.Service.twopc_resolved;
  check "in_doubt_replies view" In_doubt_replies x.Service.in_doubt_replies

let total_stats cluster =
  List.fold_left
    (fun (b, t, p, s) svc ->
      check_views svc;
      let st = Service.throughput_stats svc in
      ( b + st.Service.batches,
        t + st.Service.batched_txns,
        p + st.Service.pipelined_rounds,
        s + st.Service.pipeline_stalls ))
    (0, 0, 0, 0) (Cluster.services cluster)

(* ------------------------------------------------------------------ *)
(* Batching.                                                            *)

(* Satellite regression (notify-on-batched-commit): three clients whose
   transactions are combined into ONE batch proposed by the manager's
   drainer — not by any of their own submit handlers — must each still
   learn the outcome and the position. *)
let test_batched_commit_same_position () =
  (* A fill window wider than the per-request processing jitter, so all
     three submissions deterministically land in one batch. *)
  let cluster = make ~batch_fill:0.15 () in
  let outcomes = ref [] in
  for i = 0 to 2 do
    (* All in the manager's own datacenter so the three submissions land
       within one fill window deterministically. *)
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  let positions =
    List.filter_map
      (function Audit.Committed { position; _ } -> Some position | _ -> None)
      !outcomes
  in
  Alcotest.(check int) "all three commit" 3 (List.length positions);
  (match positions with
  | [ a; b; c ] ->
      Alcotest.(check bool) "one shared position" true (a = b && b = c)
  | _ -> assert false);
  let log = Cluster.committed_log cluster ~group in
  (match log with
  | [ (_, entry) ] -> Alcotest.(check int) "one entry of 3" 3 (List.length entry)
  | _ -> Alcotest.failf "expected one log entry, got %d" (List.length log));
  let batches, batched_txns, _, _ = total_stats cluster in
  Alcotest.(check int) "one batch" 1 batches;
  Alcotest.(check int) "three batched txns" 3 batched_txns;
  Verify.check_exn cluster ~group

let test_batched_conflicting_rmw () =
  (* Two read-modify-writes of the same key arriving in the same fill
     window: Combine admission defers the second out of the batch, and the
     retry sees the first's committed write — one commit, one conflict
     abort, exactly the unbatched semantics. *)
  let cluster = make () in
  let outcomes = ref [] in
  for _ = 0 to 1 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        ignore (Client.read txn "counter");
        Client.write txn "counter" (Client.txn_id txn);
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  let commits = List.length (List.filter committed !outcomes) in
  let conflicts =
    List.length
      (List.filter
         (function
           | Audit.Aborted { reason = Audit.Conflict; _ } -> true | _ -> false)
         !outcomes)
  in
  Alcotest.(check int) "one commits" 1 commits;
  Alcotest.(check int) "one conflict" 1 conflicts;
  Verify.check_exn cluster ~group

let test_batched_disjoint_reads_commit () =
  (* Reads of keys nobody overwrote stay fresh through batching: mixed
     read/write transactions over disjoint keys all commit. *)
  let cluster = make () in
  let outcomes = ref [] in
  for i = 0 to 4 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        ignore (Client.read txn (Printf.sprintf "k%d" i));
        Client.write txn (Printf.sprintf "k%d" i) "v";
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all commit" 5
    (List.length (List.filter committed !outcomes));
  Verify.check_exn cluster ~group

(* ------------------------------------------------------------------ *)
(* Pipelining.                                                          *)

let test_pipeline_overlaps_positions () =
  (* batch_max 1 forces one transaction per position; six concurrent
     submissions must still drain through overlapping in-flight positions
     (sequenced rounds), not one round-trip each. *)
  let cluster = make ~batch_max:1 ~pipeline_depth:4 () in
  let outcomes = ref [] in
  for i = 0 to 5 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  let positions =
    List.filter_map
      (function Audit.Committed { position; _ } -> Some position | _ -> None)
      !outcomes
  in
  Alcotest.(check int) "all six commit" 6 (List.length positions);
  Alcotest.(check int) "six distinct positions" 6
    (List.length (List.sort_uniq Int.compare positions));
  let _, _, pipelined, _ = total_stats cluster in
  Alcotest.(check bool) "sequenced rounds actually overlapped" true
    (pipelined > 0);
  Verify.check_exn cluster ~group

let test_pipeline_resolves_after_storm () =
  (* Degrade the network so some round-0 rounds time out mid-window: the
     failed rounds must stall the pipeline and resolve in log order, with
     honest outcomes and a serializable log — never a silent gap. *)
  let cluster = make ~seed:7 ~batch_max:1 ~pipeline_depth:4 () in
  for i = 0 to 7 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        Engine.sleep (0.01 *. float_of_int i);
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        try ignore (Client.commit txn) with Client.Unavailable _ -> ())
  done;
  Engine.schedule (Cluster.engine cluster) ~at:0.02 (fun () ->
      Cluster.storm cluster ~loss:0.6 ~jitter:0.5);
  Engine.schedule (Cluster.engine cluster) ~at:8.0 (fun () ->
      Cluster.calm cluster);
  Cluster.run cluster;
  Verify.check_exn cluster ~group

(* Review fix (1SR violation): a sequenced grant must match the
   predecessor ENTRY, not just the round-0 ballot. Ballot 0 is reused at
   a position across attempts (a given-up exposed round, lingering
   pre-restart accepts), so ballot-equal votes for different entries can
   coexist at pos−1; granting on ballot equality alone would let a
   sequenced quorum at pos "prove" a predecessor chosen that never was. *)
let test_sequenced_entry_mismatch_refused () =
  let cluster = make () in
  let service = Cluster.service cluster 0 in
  let record id =
    Txn.make_record ~txn_id:id ~origin:0 ~read_position:0 ~reads:[]
      ~writes:[ { Txn.key = "k-" ^ id; value = "1" } ]
  in
  let entry_a = [ record "a" ]
  and entry_b = [ record "b" ]
  and entry_c = [ record "c" ] in
  let fast = Ballot.fast ~proposer:0 in
  let accept ~pos ~entry ~sequenced =
    match
      Service.handle service ~src:0
        (Messages.accept ~group ~pos ~ballot:fast ?sequenced entry)
    with
    | Messages.Accept_reply { ok; _ } -> ok
    | _ -> Alcotest.fail "expected Accept_reply"
  in
  let granted_1 = ref false and wrong_prev = ref true and right_prev = ref false in
  Cluster.spawn cluster (fun () ->
      (* Round-0 vote at pos 1 for entry_a. *)
      granted_1 := accept ~pos:1 ~entry:entry_a ~sequenced:None;
      (* Sequenced accept at pos 2 claiming entry_b as predecessor: the
         ballot at pos 1 matches but the entry does not — refused. *)
      wrong_prev := accept ~pos:2 ~entry:entry_c ~sequenced:(Some entry_b);
      (* Same accept carrying the true predecessor entry: granted. *)
      right_prev := accept ~pos:2 ~entry:entry_c ~sequenced:(Some entry_a));
  Cluster.run cluster;
  Alcotest.(check bool) "round-0 vote at pos 1 granted" true !granted_1;
  Alcotest.(check bool) "predecessor-entry mismatch refused" false !wrong_prev;
  Alcotest.(check bool) "matching predecessor granted" true !right_prev

(* Review fix: a restart during the drainer's fill sleep must (a) resolve
   every orphaned pending so its submit-handler fiber unwinds — before
   the fix they stayed suspended in await_pending forever — and (b) stop
   the old drainer from launching one more batch from the pre-restart
   queues, which would race the post-restart batcher for the same
   positions at the same round-0 ballot. *)
let test_restart_during_fill_window () =
  let cluster = make ~batch_fill:0.2 () in
  let service = Cluster.service cluster 0 in
  let replies = Array.make 3 None in
  for i = 0 to 2 do
    let record =
      Txn.make_record ~txn_id:(Printf.sprintf "t%d" i) ~origin:0
        ~read_position:0 ~reads:[]
        ~writes:[ { Txn.key = Printf.sprintf "k%d" i; value = "v" } ]
    in
    Cluster.spawn cluster (fun () ->
        replies.(i) <-
          Some (Service.handle service ~src:0 (Messages.Submit { group; record })))
  done;
  (* Lands inside the 0.2 s fill sleep, before any launch. *)
  Engine.schedule (Cluster.engine cluster) ~at:0.05 (fun () ->
      Cluster.restart cluster 0);
  let late_outcome = ref None in
  let late = Cluster.client cluster ~dc:0 in
  Cluster.spawn ~at:5.0 cluster (fun () ->
      let txn = Client.begin_ late ~group in
      Client.write txn "late" "v";
      late_outcome := Some (Client.commit txn));
  Cluster.run cluster;
  Array.iteri
    (fun i reply ->
      match reply with
      | Some
          (Messages.Submit_reply
             { result = Messages.No_quorum | Messages.In_doubt }) ->
          ()
      | Some _ -> Alcotest.failf "submission %d: dishonest orphan outcome" i
      | None -> Alcotest.failf "submission %d never resolved" i)
    replies;
  (match !late_outcome with
  | Some o ->
      Alcotest.(check bool) "manager serves after restart" true (committed o)
  | None -> Alcotest.fail "late transaction never ran");
  (* Only the post-restart submission was ever proposed: the orphaned
     drainer launched nothing from the pre-restart queues. *)
  let batches, batched_txns, _, _ = total_stats cluster in
  Alcotest.(check int) "no orphan launch after restart" 1 batches;
  Alcotest.(check int) "only the late txn batched" 1 batched_txns;
  Verify.check_exn cluster ~group

let test_restart_orphans_batchers () =
  (* A manager restart mid-batch orphans the queued submissions: their
     clients may end Unknown (like any down-manager window), but nothing
     dishonest is reported and the manager keeps serving afterwards. *)
  let cluster = make ~seed:5 () in
  let late_outcome = ref None in
  for i = 0 to 2 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        try ignore (Client.commit txn) with Client.Unavailable _ -> ())
  done;
  Engine.schedule (Cluster.engine cluster) ~at:0.004 (fun () ->
      Cluster.restart cluster 0);
  let late = Cluster.client cluster ~dc:0 in
  Cluster.spawn ~at:15.0 cluster (fun () ->
      let txn = Client.begin_ late ~group in
      Client.write txn "late" "v";
      late_outcome := Some (Client.commit txn));
  Cluster.run cluster;
  (match !late_outcome with
  | Some o -> Alcotest.(check bool) "manager serves after restart" true (committed o)
  | None -> Alcotest.fail "late transaction never ran");
  Verify.check_exn cluster ~group

(* ------------------------------------------------------------------ *)
(* Duplicate submissions (the PR-6 dedup rule on the batched path).      *)

let test_dup_submit_while_batched () =
  let cluster = make () in
  let service = Cluster.service cluster 0 in
  let r1 = ref None and r2 = ref None and r3 = ref None in
  let record =
    Txn.make_record ~txn_id:"dup" ~origin:0 ~read_position:0 ~reads:[]
      ~writes:[ { Txn.key = "x"; value = "1" } ]
  in
  let submit () =
    Service.handle service ~src:0 (Messages.Submit { group; record })
  in
  Cluster.spawn cluster (fun () -> r1 := Some (submit ()));
  Cluster.spawn cluster (fun () ->
      (* Arrives while the original is still queued in the fill window:
         must attach to the same pending, not sequence a second copy. *)
      Engine.sleep 0.001;
      r2 := Some (submit ()));
  Cluster.spawn ~at:20.0 cluster (fun () ->
      (* Replay long after commit: answered from the log. *)
      r3 := Some (submit ()));
  Cluster.run cluster;
  let position = function
    | Some (Messages.Submit_reply { result = Messages.Accepted_at p }) -> p
    | _ -> Alcotest.fail "expected Accepted_at"
  in
  let p1 = position !r1 and p2 = position !r2 and p3 = position !r3 in
  Alcotest.(check int) "dup learns the same position" p1 p2;
  Alcotest.(check int) "post-commit replay answered from log" p1 p3;
  Alcotest.(check int) "both dups counted" 2
    (Counters.get (Service.counters service) Dup_submits);
  let log = Cluster.committed_log cluster ~group in
  Alcotest.(check int) "sequenced exactly once" 1
    (List.length (List.concat_map snd log));
  Verify.check_exn cluster ~group

(* ------------------------------------------------------------------ *)
(* Equivalence with the unbatched setting (QCheck): the same manager at
   batch 1 / depth 1 ([Config.leader]).                                 *)

(* A workload of [n] transactions: per txn a home datacenter, a start
   delay, its own private key (written; sometimes read first). Private
   keys make the workload conflict-free, so batched and unbatched
   executions must produce *identical* outcomes, not merely equivalent
   ones. *)
type disjoint_txn = { dc : int; delay : float; read_first : bool }

let disjoint_gen =
  QCheck.Gen.(
    list_size (int_range 2 10)
      (map3
         (fun dc d read_first ->
           { dc; delay = 0.002 *. float_of_int d; read_first })
         (int_range 0 2) (int_range 0 20) bool))

let run_workload config ~seed txns =
  let cluster = Cluster.create ~seed ~config (Topology.ec2 "VVV") in
  let outcomes = Array.make (List.length txns) None in
  List.iteri
    (fun i { dc; delay; read_first } ->
      let client = Cluster.client cluster ~id:(Printf.sprintf "c%d" i) ~dc in
      Cluster.spawn cluster (fun () ->
          Engine.sleep delay;
          let txn = Client.begin_ client ~group in
          let key = Printf.sprintf "k%d" i in
          if read_first then ignore (Client.read txn key);
          Client.write txn key (Printf.sprintf "v%d" i);
          outcomes.(i) <- Some (Client.commit txn)))
    txns;
  Cluster.run cluster;
  Verify.check_exn cluster ~group;
  let log = Cluster.committed_log cluster ~group in
  (match Checker.check_log log with
  | Ok () -> ()
  | Error v -> Alcotest.failf "serial checker: %a" Checker.pp_violation v);
  let final = Hashtbl.create 16 in
  List.iter
    (fun (_, entry) ->
      List.iter
        (fun (r : Txn.record) ->
          List.iter
            (fun (w : Txn.write) -> Hashtbl.replace final w.Txn.key w.Txn.value)
            r.Txn.writes)
        entry)
    log;
  let committed_ids =
    List.concat_map (fun (_, e) -> List.map (fun r -> r.Txn.txn_id) e) log
    |> List.sort String.compare
  in
  let states =
    Array.to_list outcomes |> List.map (Option.map committed)
  in
  (states, committed_ids, Hashtbl.fold (fun k v acc -> (k, v) :: acc) final []
                          |> List.sort compare)

let prop_disjoint_equivalence =
  QCheck.Test.make ~name:"batched path = unbatched path on disjoint workloads"
    ~count:30
    (QCheck.make disjoint_gen)
    (fun txns ->
      let baseline = run_workload Config.leader ~seed:9 txns in
      let batched =
        run_workload (Config.throughput Config.leader) ~seed:9 txns
      in
      let b_states, b_ids, b_final = baseline in
      let t_states, t_ids, t_final = batched in
      b_states = t_states && b_ids = t_ids && b_final = t_final)

(* Conflicting workloads: outcomes may legitimately differ from the
   unbatched run (ordering differs), but the batched history must always
   be accepted by the one-copy-serializability checker, with honest
   audit outcomes — and must actually commit something. *)
let test_conflicting_workload_serializable () =
  List.iter
    (fun seed ->
      let config = Config.throughput ~batch_max:4 ~pipeline_depth:2 Config.leader in
      let cluster = Cluster.create ~seed ~config (Topology.ec2 "VOC") in
      let commits = ref 0 in
      for dc = 0 to 2 do
        let client = Cluster.client cluster ~dc in
        let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
        Cluster.spawn cluster (fun () ->
            for _ = 1 to 6 do
              let txn = Client.begin_ client ~group in
              for _ = 1 to 3 do
                let key = Printf.sprintf "k%d" (Rng.int rng 4) in
                if Rng.bool rng 0.5 then ignore (Client.read txn key)
                else Client.write txn key (Client.txn_id txn)
              done;
              if committed (Client.commit txn) then incr commits;
              Engine.sleep (Rng.uniform rng 0.0 0.2)
            done)
      done;
      Cluster.run cluster;
      (match Verify.check cluster ~group with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m);
      (match Checker.check_log (Cluster.committed_log cluster ~group) with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "seed %d serial checker: %a" seed Checker.pp_violation v);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d commits something" seed)
        true (!commits > 0))
    [ 1; 2; 3; 4; 5 ]

(* The presets keep batch 1 / depth 1 — one transaction per position,
   the setting every paper figure runs — and only the helper turns the
   knobs up. *)
let test_mode_off_by_default () =
  Alcotest.(check bool) "default off" false (Config.throughput_mode Config.default);
  Alcotest.(check bool) "leader preset off" false
    (Config.throughput_mode Config.leader);
  Alcotest.(check bool) "helper turns it on" true
    (Config.throughput_mode (Config.throughput Config.default))

(* The fill window is the one wait knob: a negative, infinite or NaN
   window is refused at construction (NaN used to disable the wait
   silently, since every comparison with it is false). *)
let test_bad_fill_rejected () =
  List.iter
    (fun (fill, shown) ->
      Alcotest.check_raises
        (Printf.sprintf "batch_fill %s rejected" shown)
        (Invalid_argument
           (Printf.sprintf "Config.make: batch_fill = %s (must be finite and >= 0)"
              shown))
        (fun () -> ignore (Config.make ~batch_fill:fill ())))
    [ (-0.1, "-0.1"); (Float.nan, "nan"); (Float.infinity, "inf") ];
  Alcotest.(check (float 0.0)) "zero fill accepted" 0.0
    (Config.make ~batch_fill:0.0 ()).Config.batch_fill

(* ------------------------------------------------------------------ *)
(* Long fill windows (PROTOCOL.md §9). A large batch_max with a fill of
   tens of milliseconds puts everything submitted in the window into one
   log entry; this configuration used to be a separate discipline called
   epoch sealing, hence the group's name.                              *)

(* The fill bound: a full batch leaves early, the overflow rides the next
   window — positions stay dense and everything commits. *)
let test_long_fill_bound () =
  let cluster = make ~batch_max:2 ~pipeline_depth:1 ~batch_fill:0.15 () in
  let outcomes = ref [] in
  for i = 0 to 4 do
    let client = Cluster.client cluster ~dc:0 in
    Cluster.spawn cluster (fun () ->
        let txn = Client.begin_ client ~group in
        Client.write txn (Printf.sprintf "k%d" i) "v";
        let outcome = Client.commit txn in
        outcomes := outcome :: !outcomes)
  done;
  Cluster.run cluster;
  Alcotest.(check int) "all five commit" 5
    (List.length (List.filter committed !outcomes));
  let batches, batched_txns, _, _ = total_stats cluster in
  Alcotest.(check bool)
    (Printf.sprintf "fill bound 2 forces >= 3 batches (got %d)" batches)
    true (batches >= 3);
  Alcotest.(check int) "batches carried all five" 5 batched_txns;
  Verify.check_exn cluster ~group

(* A long window must be outcome-IDENTICAL to the unbatched path on
   disjoint workloads, exactly like the default window: same
   commit/abort states, same committed ids, same final store. *)
let prop_long_fill_disjoint_equivalence =
  QCheck.Test.make ~name:"epoch path = unbatched path on disjoint workloads"
    ~count:30
    (QCheck.make disjoint_gen)
    (fun txns ->
      let baseline = run_workload Config.leader ~seed:9 txns in
      let long =
        run_workload
          (fill_config ~batch_max:64 ~pipeline_depth:1 ~fill:0.05)
          ~seed:9 txns
      in
      let b_states, b_ids, b_final = baseline in
      let l_states, l_ids, l_final = long in
      b_states = l_states && b_ids = l_ids && b_final = l_final)

(* Conflicting workloads under a long window: a txn's home dc, delay and
   three ops over a 4-key space (read or write per coin). Admission must
   defer intra-window conflicts, so the history is always accepted by
   the one-copy-serializability checker with honest audit outcomes — the
   QCheck mirror of test_conflicting_workload_serializable. *)
type conflicting_txn = { cdc : int; cdelay : float; ops : (int * bool) list }

let conflicting_gen =
  QCheck.Gen.(
    list_size (int_range 4 12)
      (map3
         (fun cdc d ops -> { cdc; cdelay = 0.01 *. float_of_int d; ops })
         (int_range 0 2) (int_range 0 30)
         (list_size (int_range 1 3) (pair (int_range 0 3) bool))))

let prop_long_fill_conflicting_serializable =
  QCheck.Test.make
    ~name:"epoch histories stay 1SR on conflicting workloads" ~count:25
    (QCheck.make conflicting_gen)
    (fun txns ->
      let config = fill_config ~batch_max:8 ~pipeline_depth:1 ~fill:0.05 in
      let cluster = Cluster.create ~seed:11 ~config (Topology.ec2 "VVV") in
      List.iteri
        (fun i { cdc; cdelay; ops } ->
          let client =
            Cluster.client cluster ~id:(Printf.sprintf "c%d" i) ~dc:cdc
          in
          Cluster.spawn cluster (fun () ->
              Engine.sleep cdelay;
              let txn = Client.begin_ client ~group in
              List.iter
                (fun (k, read) ->
                  let key = Printf.sprintf "k%d" k in
                  if read then ignore (Client.read txn key)
                  else Client.write txn key (Client.txn_id txn))
                ops;
              ignore (Client.commit txn)))
        txns;
      Cluster.run cluster;
      Verify.check_exn cluster ~group;
      match Checker.check_log (Cluster.committed_log cluster ~group) with
      | Ok () -> true
      | Error v -> QCheck.Test.fail_reportf "%a" Checker.pp_violation v)

(* The seeds battery of test_conflicting_workload_serializable, run with
   a long, pipelined window. *)
let test_long_fill_conflicting_workload_serializable () =
  List.iter
    (fun seed ->
      let config = fill_config ~batch_max:4 ~pipeline_depth:2 ~fill:0.08 in
      let cluster = Cluster.create ~seed ~config (Topology.ec2 "VOC") in
      let commits = ref 0 in
      for dc = 0 to 2 do
        let client = Cluster.client cluster ~dc in
        let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
        Cluster.spawn cluster (fun () ->
            for _ = 1 to 6 do
              let txn = Client.begin_ client ~group in
              for _ = 1 to 3 do
                let key = Printf.sprintf "k%d" (Rng.int rng 4) in
                if Rng.bool rng 0.5 then ignore (Client.read txn key)
                else Client.write txn key (Client.txn_id txn)
              done;
              if committed (Client.commit txn) then incr commits;
              Engine.sleep (Rng.uniform rng 0.0 0.2)
            done)
      done;
      Cluster.run cluster;
      (match Verify.check cluster ~group with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m);
      (match Checker.check_log (Cluster.committed_log cluster ~group) with
      | Ok () -> ()
      | Error v ->
          Alcotest.failf "seed %d serial checker: %a" seed Checker.pp_violation v);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d commits something" seed)
        true (!commits > 0))
    [ 1; 2; 3; 4; 5 ]

let pp_outcome ppf = function
  | Audit.Committed { position; _ } -> Format.fprintf ppf "committed@%d" position
  | Audit.Read_only_committed -> Format.pp_print_string ppf "read-only"
  | Audit.Aborted { reason; _ } ->
      Format.fprintf ppf "aborted(%a)" Audit.pp_reason reason
  | Audit.Unknown -> Format.pp_print_string ppf "unknown"

(* A contended, optionally faulted run: three clients, one per
   datacenter, each running [txns] transactions of three coin-flip
   read/write ops over [keys] keys and sleeping [0, 0.05) s between
   them, each on its own split of the engine RNG. [faults]: a loss/jitter
   storm from 1 s to 3 s, a restart of the manager at 4 s and a
   duplication storm from 4.5 s to 6 s. *)
let contention_run ?(txns = 25) ?(keys = 12) ?(faults = false) ~spec ~seed
    config =
  let cluster = Cluster.create ~seed ~config (Topology.ec2 spec) in
  let outcomes = ref [] in
  for dc = 0 to 2 do
    let client = Cluster.client cluster ~id:(Printf.sprintf "c%d" dc) ~dc in
    let rng = Rng.split (Engine.rng (Cluster.engine cluster)) in
    Cluster.spawn cluster (fun () ->
        for i = 1 to txns do
          let outcome =
            try
              let txn = Client.begin_ client ~group in
              for _ = 1 to 3 do
                let key = Printf.sprintf "k%d" (Rng.int rng keys) in
                if Rng.bool rng 0.5 then ignore (Client.read txn key)
                else Client.write txn key (Client.txn_id txn)
              done;
              Format.asprintf "%a" pp_outcome (Client.commit txn)
            with Client.Unavailable _ -> "unavailable"
          in
          outcomes := (Printf.sprintf "c%d/%d" dc i, outcome) :: !outcomes;
          Engine.sleep (Rng.uniform rng 0.0 0.05)
        done)
  done;
  if faults then begin
    let at time f = Engine.schedule (Cluster.engine cluster) ~at:time f in
    at 1.0 (fun () -> Cluster.storm cluster ~loss:0.2 ~jitter:0.3);
    at 3.0 (fun () -> Cluster.calm cluster);
    at 4.0 (fun () -> Cluster.restart cluster 0);
    at 4.5 (fun () -> Cluster.dup_storm cluster ~prob:0.3);
    at 6.0 (fun () -> Cluster.clear_duplication cluster)
  end;
  Cluster.run cluster;
  (cluster, List.rev !outcomes)

(* Everything a run decides, hashed: every client outcome, the committed
   log and — unless [clock] is false — the final virtual clock. The
   number of events processed is not part of it: removing an event that
   does no visible work moves only that count, so it is pinned on its
   own. *)
let fingerprint ?(clock = true) (cluster, outcomes) =
  let b = Buffer.create 512 in
  List.iter (fun (id, o) -> Printf.bprintf b "%s=%s;" id o) outcomes;
  List.iter
    (fun (pos, entry) ->
      Printf.bprintf b "%d:%s;" pos
        (String.concat "," (List.map (fun r -> r.Txn.txn_id) entry)))
    (Cluster.committed_log cluster ~group);
  if clock then Printf.bprintf b "now=%h" (Cluster.now cluster);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Fault-free unbatched-leader runs ([Config.leader]: batch 1, depth 1)
   pinned by outcomes and committed log. The digests were recorded when
   this setting still had a Submit path of its own — a per-group lock
   around one proposal at a time — before it was folded into the
   batching manager; the fold kept every outcome and every log entry
   (the clock and event count moved: the manager spawns its own drainer
   and round fibers, so they are not pinned). (spec, keys, seed). *)
let pinned_unbatched =
  [
    (("VVV", 12, 1), "06511e9994cd7473f11213d6d18d8926");
    (("VOC", 12, 2), "fbd3d6a0082fd55da0a951debb2ccd17");
    (("VVVOC", 12, 3), "a8c783fa828a83967199c4080279db5d");
    (("VVV", 4, 4), "423665f59e959b51b9e6b6edf7c9dac0");
    (("VOC", 4, 5), "33bfd1d633cee6dc8f9a17a118335693");
    (("VVVOC", 4, 6), "78d4e4987c1e7375dd94e5671519360f");
    (("VVV", 40, 7), "8d71f5e6b9e82ae4b6740f7b76314562");
    (("VOC", 40, 8), "6e941ac51c54d3b87ffb4fe0e1e265a5");
  ]

let test_unbatched_digests_pinned () =
  List.iter
    (fun ((spec, keys, seed), pinned) ->
      Alcotest.(check string)
        (Printf.sprintf "%s keys %d seed %d" spec keys seed)
        pinned
        (fingerprint ~clock:false
           (contention_run ~keys ~spec ~seed Config.leader)))
    pinned_unbatched

(* Regression (R1): after a manager restart the pre-restart drainer keeps
   resolving its window. At position 11 its prepare saw two votes at the
   tied fast ballot: its own entry and the post-restart manager's entry,
   which was already chosen. Keeping whichever vote came first and
   re-validating when that was its own proposed a different entry at a
   chosen position (Wal.append: conflicting entry). *)
let test_restart_tied_fast_votes () =
  let config = fill_config ~batch_max:4 ~pipeline_depth:2 ~fill:0.08 in
  let cluster, _ = contention_run ~faults:true ~spec:"VOC" ~seed:2 config in
  Verify.check_exn cluster ~group;
  match Checker.check_log (Cluster.committed_log cluster ~group) with
  | Ok () -> ()
  | Error v -> Alcotest.failf "serial checker: %a" Checker.pp_violation v

(* Long-window runs pinned by fingerprint and, on its own, by event
   count. The runs were first recorded under the former epoch-sealing
   mode (the window as its interval, [batch_max] as its fill bound), with
   the client's Submit deadline already counting the epoch wait; a
   QCheck property then showed 60 random (topology, fill bound, depth,
   window, seed, faults) points identical between the two. Any change to
   a digest is a behaviour change of the drainer. *)
let pinned_long_fill =
  [
    (("VVV", 64, 1, 0.05, 1, false), ("738aac815fcb7eda76804580aa0de95b", 2272));
    (("VVV", 8, 1, 0.05, 2, true), ("23d65a96bd1b0c7c940a0816144bf6ad", 2756));
    (("VOC", 4, 2, 0.15, 3, false), ("6815084eb2255f3f6d59776fd1f121be", 2030));
    (("VVVOC", 2, 4, 0.02, 4, true), ("a9bec07a37d3288749d9bbc065b270f9", 3308));
    (("VVVOC", 64, 2, 0.15, 5, false), ("0bccaa96face0fa1be7cd8ea86fd23e6", 2269));
    (("VOC", 1, 4, 0.05, 6, true), ("2f5215861d692f12aa113d9fd9ca4e6c", 2826));
    (("VVV", 2, 2, 0.08, 7, true), ("1311c102df9b7d8e73846f93f3389628", 2435));
    (("VVVOC", 8, 4, 0.05, 8, true), ("404a599d5b917320fbda5f7400675ea5", 2859));
  ]

let test_long_fill_digests_pinned () =
  List.iter
    (fun ((spec, batch_max, pipeline_depth, fill, seed, faults), (digest, events)) ->
      let config = fill_config ~batch_max ~pipeline_depth ~fill in
      let name =
        Printf.sprintf "%s batch %d depth %d fill %g seed %d faults %b" spec
          batch_max pipeline_depth fill seed faults
      in
      let ((cluster, _) as run) = contention_run ~faults ~spec ~seed config in
      Alcotest.(check string) name digest (fingerprint run);
      Alcotest.(check int) (name ^ ": events") events
        (Engine.processed (Cluster.engine cluster)))
    pinned_long_fill

let () =
  Alcotest.run "throughput"
    [
      ( "batching",
        [
          Alcotest.test_case "three txns, one position" `Quick
            test_batched_commit_same_position;
          Alcotest.test_case "conflicting RMWs serialized" `Quick
            test_batched_conflicting_rmw;
          Alcotest.test_case "disjoint read/writes all commit" `Quick
            test_batched_disjoint_reads_commit;
        ] );
      ( "pipelining",
        [
          Alcotest.test_case "overlapping in-flight positions" `Quick
            test_pipeline_overlaps_positions;
          Alcotest.test_case "window resolves under storm" `Quick
            test_pipeline_resolves_after_storm;
          Alcotest.test_case "sequenced grant matches predecessor entry" `Quick
            test_sequenced_entry_mismatch_refused;
          Alcotest.test_case "restart during fill window" `Quick
            test_restart_during_fill_window;
          Alcotest.test_case "restart orphans batchers" `Quick
            test_restart_orphans_batchers;
          Alcotest.test_case "restart with tied fast-ballot votes" `Quick
            test_restart_tied_fast_votes;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "duplicate Submit of a batched txn" `Quick
            test_dup_submit_while_batched;
        ] );
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_disjoint_equivalence;
          Alcotest.test_case "conflicting workloads stay 1SR" `Quick
            test_conflicting_workload_serializable;
          Alcotest.test_case "mode off by default" `Quick
            test_mode_off_by_default;
          Alcotest.test_case "bad fill window rejected" `Quick
            test_bad_fill_rejected;
          Alcotest.test_case "unbatched runs match pinned digests" `Quick
            test_unbatched_digests_pinned;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "fill bound seals early" `Quick
            test_long_fill_bound;
          QCheck_alcotest.to_alcotest prop_long_fill_disjoint_equivalence;
          QCheck_alcotest.to_alcotest prop_long_fill_conflicting_serializable;
          Alcotest.test_case "epoch conflicting workloads stay 1SR" `Quick
            test_long_fill_conflicting_workload_serializable;
          Alcotest.test_case "long-fill runs match pinned digests" `Quick
            test_long_fill_digests_pinned;
        ] );
    ]
