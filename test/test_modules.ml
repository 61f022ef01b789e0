(* Unit tests for the service's modules, each driven on its own from a
   bare store and log: no cluster, no peers answering. *)

module Store = Mdds_kvstore.Store
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Acceptor = Mdds_paxos.Acceptor
module Engine = Mdds_sim.Engine
module Config = Mdds_core.Config
module Messages = Mdds_core.Messages
module Proposer = Mdds_core.Proposer
module Twopc = Mdds_core.Twopc
module Acceptor_store = Mdds_core.Acceptor_store
module Catchup = Mdds_core.Catchup
module Indoubt = Mdds_core.Indoubt
module Manager = Mdds_core.Manager
module Counters = Mdds_core.Counters
module Codec = Mdds_codec.Codec

let group = "g"
let b round proposer = Ballot.make ~round ~proposer

(* Datacenter 0's module stack over [store]. The network carries no
   service, so anything sent to a peer times out. *)
type stack = {
  engine : Engine.t;
  wal : Wal.t;
  acceptors : Acceptor_store.t;
  catchup : Catchup.t;
  indoubt : Indoubt.t;
  manager : Manager.t;
  counters : Counters.t;
}

let stack ?(config = { Config.leader with rpc_timeout = 0.5; max_rounds = 2 })
    ?(store = Store.create ()) () =
  let engine = Engine.create ~seed:1 () in
  let rpc =
    Mdds_net.Rpc.create
      (Mdds_net.Network.create engine (Mdds_net.Topology.ec2 "VVV"))
  in
  let env =
    Proposer.make_env ~rpc ~config ~dc:0 ~dcs:[ 0; 1; 2 ]
      ~rng:(Mdds_sim.Rng.split (Engine.rng engine))
      ~trace:(Mdds_sim.Trace.create engine)
  in
  let wal = Wal.create store in
  let counters = Counters.create () in
  let source = "svc.dc0" in
  let acceptors = Acceptor_store.create ~store ~wal ~counters in
  let catchup = Catchup.create ~env ~store ~wal ~acceptors ~counters ~source in
  let indoubt = Indoubt.create ~env ~wal ~catchup ~counters ~source in
  let manager = Manager.create ~env ~wal ~catchup ~indoubt ~counters in
  { engine; wal; acceptors; catchup; indoubt; manager; counters }

(* Run [f] as a fiber of the stack's engine and return its result. *)
let in_fiber s f =
  let result = ref None in
  Engine.spawn s.engine (fun () -> result := Some (f ()));
  Engine.run s.engine;
  Option.get !result

let record ?(reads = []) ?(writes = []) txn_id =
  Txn.make_record ~txn_id ~origin:0 ~read_position:0 ~reads
    ~writes:(List.map (fun key -> { Txn.key; value = "v" }) writes)

let coherent s =
  match Acceptor_store.coherent s.acceptors ~group with
  | Ok () -> true
  | Error _ -> false

(* ------------------------------------------------------------------ *)
(* Acceptor_store.                                                      *)

(* Two handler processes share one store. The second one's promise makes
   the first one's cached row stale; the first one's conditional save
   then fails, drops the cached entry, and the retry answers from the
   row as it stands. *)
let test_failed_save_drops_cache () =
  let store = Store.create () in
  let s1 = stack ~store () and s2 = stack ~store () in
  let prepare s ballot =
    Acceptor_store.prepare s.acceptors ~group ~pos:1 ~ballot
  in
  (match prepare s1 (b 1 1) with
  | Messages.Promise _ -> ()
  | r -> Alcotest.failf "first promise: %a" Messages.pp_response r);
  ignore (prepare s2 (b 5 2));
  Alcotest.(check bool) "rival write leaves the cache stale" false (coherent s1);
  (match prepare s1 (b 3 1) with
  | Messages.Prepare_reject { next_bal } ->
      Alcotest.(check bool) "rejected with the stored nextBal" true
        (Ballot.equal next_bal (b 5 2))
  | r -> Alcotest.failf "expected a reject, got %a" Messages.pp_response r);
  Alcotest.(check bool) "cache follows the row again" true (coherent s1)

(* The vote bytes an [Accept] carries. *)
let vote_of = function
  | Messages.Accept { vote; _ } -> vote
  | r -> Alcotest.failf "not an accept: %a" Messages.pp_request r

(* The vote row written from the round's vote bytes, and rewritten as it
   is by a later promise, is exactly what encoding the vote gives. *)
let test_vote_bytes_spliced () =
  let store = Store.create () in
  let s = stack ~store () in
  let entry = [ record ~reads:[ "x" ] ~writes:[ "y"; "z" ] "t1" ] in
  let vote =
    vote_of
      (Messages.accept ~group ~pos:1 ~ballot:(b 2 1)
         ~encoded:(Messages.encode_entry entry) entry)
  in
  let expected =
    Codec.encode Acceptor_store.vote_codec (Some (b 2 1, entry))
  in
  let vote_row () =
    Store.attribute_at (Store.family store ~prefix:"paxos/g/") 1 "vote"
  in
  (match
     Acceptor_store.accept s.acceptors ~group ~pos:1 ~ballot:(b 2 1) ~entry
       ~vote ~sequenced:None
   with
  | Messages.Accept_reply { ok = true; _ } -> ()
  | r -> Alcotest.failf "accept: %a" Messages.pp_response r);
  Alcotest.(check (option string)) "accepted vote row" (Some expected) (vote_row ());
  Alcotest.(check bool) "the round's bytes stored, not a copy" true
    (match vote_row () with Some v -> v == vote | None -> false);
  ignore (Acceptor_store.prepare s.acceptors ~group ~pos:1 ~ballot:(b 3 2));
  Alcotest.(check (option string)) "vote row kept by a promise" (Some expected)
    (vote_row ());
  Alcotest.(check bool) "cache matches the row" true (coherent s);
  Acceptor_store.reset s.acceptors;
  ignore (Acceptor_store.prepare s.acceptors ~group ~pos:1 ~ballot:(b 4 2));
  Alcotest.(check (option string)) "kept by a promise after a reload"
    (Some expected) (vote_row ());
  Alcotest.(check bool) "cache matches the row after a reload" true
    (coherent s)

let prop_vote_bytes =
  let open QCheck.Gen in
  let key = oneofl [ "a"; "b"; "c"; "d"; "long/key/name" ] in
  let record =
    let* txn_id = map (Printf.sprintf "t%d") nat in
    let* origin = int_bound 6 in
    let* read_position = int_bound 100_000 in
    let* reads = list_size (0 -- 4) key in
    let* writes = list_size (0 -- 4) (pair key (string_size (0 -- 20))) in
    return
      (Txn.make_record ~txn_id ~origin ~read_position ~reads
         ~writes:(List.map (fun (key, value) -> { Txn.key; value }) writes))
  in
  let ballot =
    let* round = int_bound 1_000_000 in
    let* proposer = int_bound 7 in
    return
      (if round = 0 then Ballot.fast ~proposer else Ballot.make ~round ~proposer)
  in
  QCheck.Test.make ~count:300
    ~name:"spliced vote bytes equal the vote codec"
    (QCheck.make (pair ballot (list_size (0 -- 5) record)))
    (fun (ballot, entry) ->
      let expected =
        Codec.encode Acceptor_store.vote_codec (Some (ballot, entry))
      in
      String.equal
        (vote_of (Messages.accept ~group ~pos:1 ~ballot entry))
        expected
      && String.equal
           (vote_of
              (Messages.accept ~group ~pos:1 ~ballot
                 ~encoded:(Messages.encode_entry entry) entry))
           expected)

let test_replayed_claim_counted () =
  let s = stack () in
  let claim claimant =
    match Acceptor_store.claim s.acceptors ~group ~pos:3 ~claimant with
    | Messages.Claim_reply { first } -> first
    | r -> Alcotest.failf "claim reply: %a" Messages.pp_response r
  in
  Alcotest.(check bool) "first claim granted" true (claim "a");
  Alcotest.(check bool) "owner's replay answered from the register" true
    (claim "a");
  Alcotest.(check bool) "rival refused" false (claim "b");
  Alcotest.(check int) "one replay counted" 1
    (Counters.get s.counters Dup_claims)

(* Group g's [kind] row ("paxos" or "claim") at [pos] exists. *)
let present store kind pos =
  Store.read_at (Store.family store ~prefix:(kind ^ "/g/")) pos <> None

let test_prune_rows_and_cache () =
  let store = Store.create () in
  let s = stack ~store () in
  let write pos =
    ignore (Acceptor_store.prepare s.acceptors ~group ~pos ~ballot:(b 2 1));
    ignore (Acceptor_store.claim s.acceptors ~group ~pos ~claimant:"a")
  in
  for pos = 1 to 6 do
    write pos
  done;
  let rows kind = List.map (present store kind) in
  Acceptor_store.prune s.acceptors ~group ~upto:2;
  Alcotest.(check (list bool)) "paxos rows 1-2 gone, 3 kept"
    [ false; false; true ] (rows "paxos" [ 1; 2; 3 ]);
  Alcotest.(check (list bool)) "claim rows 1-2 gone, 3 kept"
    [ false; false; true ] (rows "claim" [ 1; 2; 3 ]);
  (* A cache entry that outlived its row would now disagree with it. *)
  Alcotest.(check bool) "coherent after pruning" true (coherent s);
  Alcotest.(check bool) "pruned position reads blank" true
    (Ballot.equal
       (Acceptor_store.state s.acceptors ~group ~pos:1).Acceptor.next_bal
       Ballot.bottom);
  Acceptor_store.prune s.acceptors ~group ~upto:4;
  Alcotest.(check (list bool)) "second prune: 3-4 gone, 5 kept"
    [ false; false; true ] (rows "paxos" [ 3; 4; 5 ]);
  Alcotest.(check (list bool)) "second prune: claim rows likewise"
    [ false; false; true ] (rows "claim" [ 3; 4; 5 ]);
  Alcotest.(check bool) "coherent after the second prune" true (coherent s);
  (* The pruned watermark is volatile: after a restart a compaction
     sweeps from position 1 again, so a row standing below an earlier
     compaction point goes at the next one. *)
  write 1;
  Acceptor_store.reset s.acceptors;
  Acceptor_store.prune s.acceptors ~group ~upto:4;
  Alcotest.(check (list bool)) "after a restart: 1 gone too" [ false; false ]
    (rows "paxos" [ 1 ] @ rows "claim" [ 1 ]);
  Alcotest.(check bool) "coherent after the restart's prune" true (coherent s)

(* The positions 1..upto that still hold a paxos or claim row. *)
let none_below store ~upto =
  List.concat_map
    (fun kind -> List.filter (present store kind) (List.init upto (fun i -> i + 1)))
    [ "paxos"; "claim" ]

let test_prune_twice () =
  let store = Store.create () in
  let s = stack ~store () in
  for pos = 1 to 25 do
    ignore (Acceptor_store.prepare s.acceptors ~group ~pos ~ballot:(b 2 1));
    ignore (Acceptor_store.claim s.acceptors ~group ~pos ~claimant:"a")
  done;
  Acceptor_store.prune s.acceptors ~group ~upto:10;
  Acceptor_store.prune s.acceptors ~group ~upto:20;
  Alcotest.(check (list int)) "no row at 1..20" [] (none_below store ~upto:20);
  Alcotest.(check (list int)) "rows at 21..25 kept" []
    (List.filter
       (fun pos -> not (present store "paxos" pos))
       [ 21; 22; 23; 24; 25 ]);
  Alcotest.(check bool) "coherent" true (coherent s)

(* A snapshot install raises the WAL's compaction point without pruning
   the acceptor rows below it; the next compaction reclaims them, even
   though the WAL's point already stood above them. *)
let test_snapshot_then_compact () =
  let store = Store.create () in
  let s = stack ~store () in
  for pos = 1 to 15 do
    ignore (Acceptor_store.prepare s.acceptors ~group ~pos ~ballot:(b 2 1));
    ignore (Acceptor_store.claim s.acceptors ~group ~pos ~claimant:"a")
  done;
  let compact upto =
    match Wal.compact s.wal ~group ~upto with
    | Ok () -> Acceptor_store.prune s.acceptors ~group ~upto
    | Error `Not_applied -> Alcotest.failf "compaction to %d refused" upto
  in
  for pos = 1 to 4 do
    Wal.append s.wal ~group ~pos [ record (Printf.sprintf "t%d" pos) ]
  done;
  ignore (Wal.apply s.wal ~group ~upto:4);
  compact 4;
  Wal.install_snapshot s.wal ~group ~applied:10 [ ("k", 10, "v") ];
  Alcotest.(check int) "installed compaction point" 10
    (Wal.compacted_position s.wal ~group);
  Wal.append s.wal ~group ~pos:11 [ record "t11" ];
  ignore (Wal.apply s.wal ~group ~upto:11);
  compact 11;
  Alcotest.(check (list int)) "no row at or below the compaction point" []
    (none_below store ~upto:11);
  Alcotest.(check bool) "position 12 kept" true
    (present store "paxos" 12);
  Alcotest.(check bool) "coherent" true (coherent s)

(* ------------------------------------------------------------------ *)
(* Indoubt.                                                             *)

let no_submit ~group:_ _ = Messages.No_quorum

let payload =
  { Twopc.coordinator = "c"; participants = [ "c"; group ]; writes = [] }

let prepare ?(keys = [ "k" ]) txid =
  Twopc.prepare_record ~txid ~origin:0 ~read_position:0 ~reads:keys ~payload

let outcome txid =
  Twopc.outcome_record ~txid ~tag:"dc0" ~origin:0 ~prepare_position:1
    ~verdict:Twopc.commit_verdict ~writes:[ ("k", "v") ]

let blocked s r = Indoubt.blocked s.indoubt ~submit:no_submit ~group r

let logged s entries =
  List.iteri (fun i entry -> Wal.append s.wal ~group ~pos:(i + 1) entry) entries;
  Indoubt.scan s.indoubt ~submit:no_submit ~group

let test_outcome_releases_prepare () =
  let s = stack () in
  let writer = record ~writes:[ "k" ] "w" in
  logged s [ [ prepare "x" ] ];
  Alcotest.(check bool) "in doubt: conflicting write blocked" true
    (blocked s writer);
  Alcotest.(check bool) "disjoint write admitted" false
    (blocked s (record ~writes:[ "other" ] "d"));
  Wal.append s.wal ~group ~pos:2 [ outcome "x" ];
  Indoubt.scan s.indoubt ~submit:no_submit ~group;
  Alcotest.(check bool) "outcome released the footprint" false
    (blocked s writer)

let test_prepare_not_blocked_by_itself () =
  let s = stack () in
  logged s [ [ prepare "x" ] ];
  Alcotest.(check bool) "own prepare admitted" false (blocked s (prepare "x"));
  Alcotest.(check bool) "rival prepare blocked" true (blocked s (prepare "y"))

let test_markers_exempt () =
  let s = stack () in
  logged s [ [ prepare "x" ] ];
  Alcotest.(check bool) "outcome of another txn admitted" false
    (blocked s (outcome "z"));
  let decision =
    Twopc.decision_record ~txid:"z" ~tag:"dc0" ~origin:0
      ~verdict:Twopc.abort_verdict
  in
  let marker_keys = List.map (fun (w : Txn.write) -> w.key) decision.writes in
  let covering = [ ("x", Array.of_list marker_keys) ] in
  Alcotest.(check bool) "a plain read of the same keys is blocked" true
    (Indoubt.conflicts covering (record ~reads:marker_keys "w"));
  Alcotest.(check bool) "the decision itself is admitted" false
    (Indoubt.conflicts covering decision)

(* The unified conflict rule: the in-doubt table built by scanning a log
   and the same log's entries read as not-yet-scanned overhang block
   exactly the same records. As in any real log, a transaction prepares
   at most once per group and its outcome follows its prepare. *)
let prop_table_matches_overhang =
  let keys = [| "a"; "b"; "c"; "d"; "e" |] in
  let txids = [| "t0"; "t1"; "t2"; "t3" |] in
  let gen_keys = QCheck.Gen.(list_size (int_range 0 3) (oneofa keys)) in
  let gen_probe =
    QCheck.Gen.(
      oneof
        [
          map2 (fun reads writes -> record ~reads ~writes "p") gen_keys gen_keys;
          map2 (fun txid keys -> prepare ~keys txid) (oneofa txids) gen_keys;
        ])
  in
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 4) (pair (oneofa txids) gen_keys))
        (list_size (int_range 0 4) (oneofa txids))
        gen_probe)
  in
  QCheck.Test.make ~count:500 ~name:"table and overhang blocking agree"
    (QCheck.make gen) (fun (prepares, released, probe) ->
      let prepares =
        List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) prepares
      in
      let entries =
        List.map (fun (txid, keys) -> [ prepare ~keys txid ]) prepares
        @ List.map (fun txid -> [ outcome txid ]) released
      in
      let s = stack () in
      logged s entries;
      let overhang = List.mapi (fun i e -> (i + 1, e)) entries in
      blocked s probe = Indoubt.conflicts (Indoubt.unresolved overhang) probe)

(* ------------------------------------------------------------------ *)
(* Catchup.                                                             *)

(* A torn paxos row quarantines its position; the quarantine set lives in
   its own durable row, so a process that reopens the store — after the
   scrub removed the damage itself — still refuses the position until it
   is re-learned. *)
let test_quarantine_survives_reopen () =
  let store = Store.create ~mode:Store.Sync_explicit () in
  let s = stack ~store () in
  ignore (Acceptor_store.prepare s.acceptors ~group ~pos:2 ~ballot:(b 1 1));
  Store.write_at (Store.family store ~prefix:"paxos/g/") 2
    (Mdds_kvstore.Row.of_array [| "nb"; "x"; "vote"; "y" |]);
  Store.crash ~torn:true store ~lose_unsynced:true;
  Catchup.recover s.catchup ~group;
  Alcotest.(check int) "torn version scrubbed" 1
    (Counters.get s.counters Scrubbed);
  Store.crash store ~lose_unsynced:true;
  let reopened = stack ~store () in
  Catchup.recover reopened.catchup ~group;
  Alcotest.(check int) "nothing left to scrub" 0
    (Counters.get reopened.counters Scrubbed);
  Alcotest.(check bool) "still quarantined after reopen" true
    (in_fiber reopened (fun () ->
         Catchup.quarantined reopened.catchup ~group ~pos:2));
  Alcotest.(check bool) "other positions open" false
    (Catchup.quarantined reopened.catchup ~group ~pos:1);
  Wal.append reopened.wal ~group ~pos:2 [ record "decided" ];
  Alcotest.(check bool) "released once the entry is known" false
    (Catchup.quarantined reopened.catchup ~group ~pos:2);
  Alcotest.(check int) "release counted" 1
    (Counters.get reopened.counters Relearned);
  Alcotest.(check bool) "quarantine row cleared" true
    (Store.read store ~key:"recover/g" () = None)

(* ------------------------------------------------------------------ *)
(* Manager.                                                             *)

let batched = Config.throughput ~batch_max:8 ~pipeline_depth:1 Config.leader

(* A restart answers a submission still waiting in the queue at once, and
   honestly: no accept carrying it went out, so No_quorum. *)
let test_restart_answers_queued () =
  let s = stack ~config:{ batched with batch_fill = 1.0 } () in
  let result = ref None in
  Engine.spawn s.engine (fun () ->
      result := Some (Manager.submit s.manager ~group (record ~writes:[ "k" ] "q")));
  Engine.schedule s.engine ~at:0.5 (fun () -> Manager.restart s.manager);
  Engine.run s.engine;
  Alcotest.(check bool) "answered No_quorum" true
    (!result = Some Messages.No_quorum);
  Alcotest.(check int) "nothing proposed" 0 (Wal.last_position s.wal ~group);
  Alcotest.(check int) "no batch launched" 0 (Counters.get s.counters Batches)

(* A replayed submission is answered from the log, never sequenced twice. *)
let test_logged_submission_answered () =
  let s = stack () in
  let r = record ~writes:[ "k" ] "done" in
  Wal.append s.wal ~group ~pos:1 [ r ];
  Alcotest.(check bool) "answered with its position" true
    (in_fiber s (fun () -> Manager.submit s.manager ~group r)
    = Messages.Accepted_at 1);
  Alcotest.(check int) "counted as a duplicate" 1 (Counters.get s.counters Dup_submits);
  Alcotest.(check int) "log unchanged" 1 (Wal.last_position s.wal ~group)

let () =
  Alcotest.run "modules"
    [
      ( "acceptor_store",
        [
          Alcotest.test_case "failed save drops the cache entry" `Quick
            test_failed_save_drops_cache;
          Alcotest.test_case "replayed claim counted" `Quick
            test_replayed_claim_counted;
          Alcotest.test_case "vote bytes spliced and kept" `Quick
            test_vote_bytes_spliced;
          QCheck_alcotest.to_alcotest prop_vote_bytes;
          Alcotest.test_case "prune drops rows and cache" `Quick
            test_prune_rows_and_cache;
          Alcotest.test_case "compact to 10, then to 20" `Quick test_prune_twice;
          Alcotest.test_case "snapshot install, then compaction" `Quick
            test_snapshot_then_compact;
        ] );
      ( "catchup",
        [
          Alcotest.test_case "quarantine survives a reopen" `Quick
            test_quarantine_survives_reopen;
        ] );
      ( "indoubt",
        [
          Alcotest.test_case "outcome releases its prepare" `Quick
            test_outcome_releases_prepare;
          Alcotest.test_case "prepare never blocks itself" `Quick
            test_prepare_not_blocked_by_itself;
          Alcotest.test_case "outcome and decision exempt" `Quick
            test_markers_exempt;
          QCheck_alcotest.to_alcotest prop_table_matches_overhang;
        ] );
      ( "manager",
        [
          Alcotest.test_case "restart answers queued submissions" `Quick
            test_restart_answers_queued;
          Alcotest.test_case "logged submission answered from the log" `Quick
            test_logged_submission_answered;
        ] );
    ]
