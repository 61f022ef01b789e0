(* Tests for the simulated network: topology presets, delivery semantics,
   fault injection, and the RPC layer. *)

module Engine = Mdds_sim.Engine
module Topology = Mdds_net.Topology
module Network = Mdds_net.Network
module Rpc = Mdds_net.Rpc

(* ------------------------------------------------------------------ *)
(* Topology.                                                            *)

let test_topology_ec2 () =
  let t = Topology.ec2 "VVOC" in
  Alcotest.(check int) "size" 4 (Topology.size t);
  Alcotest.(check string) "names v1" "V1" (Topology.name t 0);
  Alcotest.(check string) "names v2" "V2" (Topology.name t 1);
  Alcotest.(check string) "names o" "O1" (Topology.name t 2);
  Alcotest.(check char) "region" 'C' (Topology.region t 3);
  let close a b = abs_float (a -. b) < 1e-9 in
  Alcotest.(check bool) "V-V rtt" true (close (Topology.rtt t 0 1) 0.0015);
  Alcotest.(check bool) "V-O rtt" true (close (Topology.rtt t 0 2) 0.090);
  Alcotest.(check bool) "V-C rtt" true (close (Topology.rtt t 1 3) 0.090);
  Alcotest.(check bool) "O-C rtt" true (close (Topology.rtt t 2 3) 0.020);
  Alcotest.(check bool) "loopback small" true (Topology.rtt t 0 0 < 0.001)

let test_topology_invalid () =
  Alcotest.check_raises "bad region" (Invalid_argument "Topology.ec2: regions are V, O, C")
    (fun () -> ignore (Topology.ec2 "VX"));
  Alcotest.check_raises "empty" (Invalid_argument "Topology.ec2: empty spec")
    (fun () -> ignore (Topology.ec2 ""));
  (* Loss outside [0,1] and a negative or non-finite jitter, for both
     constructors; the bounds themselves are valid. *)
  let ec2 ~loss ~jitter = Topology.ec2 ~loss ~jitter "VVV" in
  let uniform ~loss ~jitter = Topology.uniform ~n:3 ~rtt:0.1 ~loss ~jitter () in
  List.iter
    (fun (fn, build) ->
      let rejects ~loss ~jitter msg =
        Alcotest.check_raises msg
          (Invalid_argument (Printf.sprintf "Topology.%s: %s" fn msg))
          (fun () -> ignore (build ~loss ~jitter))
      in
      List.iter
        (fun (loss, shown) ->
          rejects ~loss ~jitter:0.1
            (Printf.sprintf "loss = %s (must be in [0,1])" shown))
        [ (1.5, "1.5"); (-0.1, "-0.1"); (Float.nan, "nan") ];
      List.iter
        (fun (jitter, shown) ->
          rejects ~loss:0.0 ~jitter
            (Printf.sprintf "jitter = %s (must be finite and >= 0)" shown))
        [ (-0.1, "-0.1"); (Float.nan, "nan"); (Float.infinity, "inf") ];
      ignore (build ~loss:0.0 ~jitter:0.0);
      ignore (build ~loss:1.0 ~jitter:0.0))
    [ ("ec2", ec2); ("uniform", uniform) ]

let test_topology_uniform () =
  let t = Topology.uniform ~n:3 ~rtt:0.1 () in
  Alcotest.(check int) "size" 3 (Topology.size t);
  Alcotest.(check (float 1e-9)) "rtt" 0.1 (Topology.rtt t 0 2)

let prop_topology_sane =
  (* Any valid spec gives symmetric, positive RTTs and loopbacks cheaper
     than every cross-datacenter link. *)
  QCheck.Test.make ~name:"ec2 topologies are symmetric and positive" ~count:100
    QCheck.(string_gen_of_size Gen.(1 -- 6) (Gen.oneofl [ 'V'; 'O'; 'C' ]))
    (fun spec ->
      QCheck.assume (String.length spec > 0);
      let t = Topology.ec2 spec in
      let n = Topology.size t in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let rtt = Topology.rtt t i j in
          if rtt <= 0.0 then ok := false;
          if abs_float (rtt -. Topology.rtt t j i) > 1e-12 then ok := false;
          if i <> j && Topology.rtt t i i >= rtt then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Network.                                                             *)

let make_net ?(spec = "VVV") ?(loss = 0.0) ?(seed = 1) () =
  let engine = Engine.create ~seed () in
  let net : string Network.t = Network.create engine (Topology.ec2 ~loss ~jitter:0.1 spec) in
  (engine, net)

(* Everything delivered to [node], in delivery order. *)
let inbox net ~node =
  let box = Queue.create () in
  Network.listen net ~node (fun ~src:_ msg -> Queue.push msg box);
  box

let test_delivery_and_latency () =
  let engine, net = make_net () in
  let got = ref None in
  Network.listen net ~node:1 (fun ~src msg ->
      got := Some (msg, Engine.now engine);
      Alcotest.(check int) "sender" 0 src);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run engine;
  match !got with
  | Some ("hello", t) ->
      (* One-way V-V delay: 0.75ms +/- 10% jitter. *)
      if t < 0.000675 || t > 0.000825 then Alcotest.failf "delay out of bounds: %f" t
  | _ -> Alcotest.fail "not delivered"

let test_loss_rate () =
  let engine, net = make_net ~loss:0.5 ~seed:3 () in
  let box = inbox net ~node:1 in
  let n = 2000 in
  for i = 1 to n do
    Network.send net ~src:0 ~dst:1 (string_of_int i)
  done;
  Engine.run engine;
  let delivered = Queue.length box in
  let p = float_of_int delivered /. float_of_int n in
  if p < 0.44 || p > 0.56 then Alcotest.failf "loss 0.5 delivered %f" p;
  let stats = Network.stats net in
  Alcotest.(check int) "sent counted" n stats.Network.sent;
  Alcotest.(check int) "delivered+dropped = sent" n
    (stats.Network.delivered + stats.Network.dropped_loss)

let test_down_drops () =
  let engine, net = make_net () in
  let box = inbox net ~node:1 in
  Network.set_down net 1;
  Alcotest.(check bool) "is_down" true (Network.is_down net 1);
  Network.send net ~src:0 ~dst:1 "lost";
  Network.send net ~src:1 ~dst:0 "also lost";
  Engine.run engine;
  Alcotest.(check int) "nothing delivered" 0 (Queue.length box);
  Alcotest.(check int) "drop accounting" 2 (Network.stats net).Network.dropped_down;
  Network.set_up net 1;
  Network.send net ~src:0 ~dst:1 "after";
  Engine.run engine;
  Alcotest.(check int) "delivery resumes" 1 (Queue.length box)

let test_down_during_flight () =
  (* A message in flight when the destination fails is lost. *)
  let engine, net = make_net ~spec:"VOV" () in
  let box = inbox net ~node:1 in
  Network.send net ~src:0 ~dst:1 "doomed";
  (* V->O one-way is ~45ms; fail the destination at 1ms. *)
  Engine.schedule engine ~at:0.001 (fun () -> Network.set_down net 1);
  Engine.run engine;
  Alcotest.(check int) "dropped at delivery" 0 (Queue.length box)

let test_partition_and_heal () =
  let engine, net = make_net ~spec:"VVVVV" () in
  Network.partition net [ [ 0; 1 ]; [ 2; 3; 4 ] ];
  let box2 = inbox net ~node:2 in
  let box1 = inbox net ~node:1 in
  Network.send net ~src:0 ~dst:2 "cross";
  Network.send net ~src:0 ~dst:1 "same-side";
  Engine.run engine;
  Alcotest.(check int) "cross-partition dropped" 0 (Queue.length box2);
  Alcotest.(check int) "same side delivered" 1 (Queue.length box1);
  Alcotest.(check int) "cut accounting" 1 (Network.stats net).Network.dropped_cut;
  Network.heal net;
  Network.send net ~src:0 ~dst:2 "healed";
  Engine.run engine;
  Alcotest.(check int) "after heal" 1 (Queue.length box2)

let test_partition_singleton_default () =
  (* A node listed in no group is isolated. *)
  let engine, net = make_net ~spec:"VVV" () in
  Network.partition net [ [ 0; 1 ] ];
  let box2 = inbox net ~node:2 in
  Network.send net ~src:0 ~dst:2 "x";
  Network.send net ~src:2 ~dst:0 "y";
  Engine.run engine;
  Alcotest.(check int) "isolated" 0 (Queue.length box2);
  Alcotest.(check int) "both dropped" 2 (Network.stats net).Network.dropped_cut

(* ------------------------------------------------------------------ *)
(* Gray failures.                                                       *)

let test_oneway_cut_asymmetric () =
  let engine, net = make_net () in
  let box0 = inbox net ~node:0 in
  let box1 = inbox net ~node:1 in
  Network.cut_oneway net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 "blocked";
  Network.send net ~src:1 ~dst:0 "flows";
  Engine.run engine;
  Alcotest.(check int) "cut direction dropped" 0 (Queue.length box1);
  Alcotest.(check int) "reverse direction delivered" 1 (Queue.length box0);
  Alcotest.(check int) "oneway accounting" 1
    (Network.stats net).Network.dropped_oneway;
  Network.heal_oneway net ~src:0 ~dst:1;
  Network.send net ~src:0 ~dst:1 "after-heal";
  Engine.run engine;
  Alcotest.(check int) "healed" 1 (Queue.length box1)

let test_oneway_cut_in_flight () =
  (* A message in flight when the directed cut lands is dropped at
     delivery time, like outages and partitions. *)
  let engine, net = make_net ~spec:"VOV" () in
  let box1 = inbox net ~node:1 in
  Network.send net ~src:0 ~dst:1 "doomed";
  Engine.schedule engine ~at:0.001 (fun () -> Network.cut_oneway net ~src:0 ~dst:1);
  Engine.run engine;
  Alcotest.(check int) "dropped at delivery" 0 (Queue.length box1);
  Alcotest.(check int) "counted" 1 (Network.stats net).Network.dropped_oneway

let test_duplication () =
  let engine, net = make_net () in
  let box1 = inbox net ~node:1 in
  Network.set_duplication net ~src:0 ~dst:1 1.0;
  Network.send net ~src:0 ~dst:1 "twice";
  Engine.run engine;
  Alcotest.(check int) "delivered twice" 2 (Queue.length box1);
  Alcotest.(check int) "duplicated counter" 1 (Network.stats net).Network.duplicated;
  Network.clear_duplication net;
  Network.send net ~src:0 ~dst:1 "once";
  Engine.run engine;
  Alcotest.(check int) "cleared: single delivery" 3 (Queue.length box1)

let test_slowdown_delays () =
  let engine, net = make_net () in
  let arrived = ref 0.0 in
  Network.listen net ~node:1 (fun ~src:_ _ -> arrived := Engine.now engine);
  Network.send net ~src:0 ~dst:1 "baseline";
  Engine.run engine;
  let baseline = !arrived in
  Network.set_slowdown net 1 4.0;
  let sent_at = Engine.now engine in
  Network.send net ~src:0 ~dst:1 "slow";
  Engine.run engine;
  let slow_delay = !arrived -. sent_at in
  (* Jitter is +/-10%, so a 4x multiplier is well outside noise. *)
  Alcotest.(check bool)
    (Printf.sprintf "slowdown multiplies delay (%.6f vs %.6f)" slow_delay baseline)
    true
    (slow_delay > 3.0 *. baseline);
  Network.clear_slowdown net 1;
  Alcotest.check_raises "factor < 1 rejected"
    (Invalid_argument "Network.set_slowdown: factor < 1") (fun () ->
      Network.set_slowdown net 1 0.5)

let test_flap_phases () =
  (* A flapping link is a square wave anchored at injection: up for the
     first half-period, down for the second. *)
  let engine, net = make_net () in
  let box1 = inbox net ~node:1 in
  Engine.schedule engine ~at:1.0 (fun () ->
      Network.flap_link net ~src:0 ~dst:1 ~period:1.0);
  (* t=1.2: up phase (1.0..1.5). t=1.7: down phase (1.5..2.0). t=2.1: up
     again. The V-V delay (<1ms) keeps each send inside its phase. *)
  Engine.schedule engine ~at:1.2 (fun () ->
      Network.send net ~src:0 ~dst:1 "up-1");
  Engine.schedule engine ~at:1.7 (fun () ->
      Network.send net ~src:0 ~dst:1 "down");
  Engine.schedule engine ~at:2.1 (fun () ->
      Network.send net ~src:0 ~dst:1 "up-2");
  Engine.run engine;
  Alcotest.(check int) "up phases delivered, down phase dropped" 2
    (Queue.length box1);
  Alcotest.(check int) "flap drop counted as oneway" 1
    (Network.stats net).Network.dropped_oneway;
  Network.clear_flap net ~src:0 ~dst:1;
  Engine.schedule engine ~at:2.7 (fun () ->
      (* Would be a down phase (2.5..3.0) were the flap still active. *)
      Network.send net ~src:0 ~dst:1 "cleared");
  Engine.run engine;
  Alcotest.(check int) "cleared flap delivers" 3 (Queue.length box1)

(* ------------------------------------------------------------------ *)
(* RPC.                                                                 *)

let make_rpc ?(spec = "VVV") ?(loss = 0.0) ?(seed = 1) () =
  let engine = Engine.create ~seed () in
  let net = Network.create engine (Topology.ec2 ~loss spec) in
  let rpc : (string, string) Rpc.t = Rpc.create net in
  (engine, net, rpc)

let echo_server ?processing rpc ~node =
  Rpc.serve rpc ~node ?processing (fun ~src req ->
      Printf.sprintf "%s-by-%d-from-%d" req node src)

let test_rpc_call () =
  let engine, _net, rpc = make_rpc () in
  echo_server rpc ~node:1;
  let got = ref None in
  Engine.spawn engine (fun () ->
      got := Rpc.call rpc ~src:0 ~dst:1 ~timeout:1.0 "ping");
  Engine.run engine;
  Alcotest.(check (option string)) "reply" (Some "ping-by-1-from-0") !got

let test_rpc_timeout () =
  let engine, net, rpc = make_rpc () in
  echo_server rpc ~node:1;
  Network.set_down net 1;
  let got = ref (Some "sentinel") and finished = ref 0.0 in
  Engine.spawn engine (fun () ->
      got := Rpc.call rpc ~src:0 ~dst:1 ~timeout:0.5 "ping";
      finished := Engine.now engine);
  Engine.run engine;
  Alcotest.(check (option string)) "timed out" None !got;
  Alcotest.(check (float 1e-9)) "after timeout" 0.5 !finished

let test_rpc_broadcast_all () =
  let engine, _net, rpc = make_rpc ~spec:"VVVVV" () in
  for node = 0 to 4 do
    echo_server rpc ~node
  done;
  let got = ref [] in
  Engine.spawn engine (fun () ->
      got := Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2; 3; 4 ] ~timeout:1.0 "m");
  Engine.run engine;
  Alcotest.(check int) "all replied" 5 (List.length !got);
  let dsts = List.map fst !got in
  Alcotest.(check (list int)) "each exactly once" [ 0; 1; 2; 3; 4 ]
    (List.sort compare dsts)

let test_rpc_broadcast_quorum_early () =
  (* With one far datacenter, a majority predicate returns before the far
     response arrives. *)
  let engine, _net, rpc = make_rpc ~spec:"VVO" () in
  for node = 0 to 2 do
    echo_server rpc ~node
  done;
  let got = ref [] and finished = ref 0.0 in
  Engine.spawn engine (fun () ->
      got :=
        Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2 ] ~timeout:1.0
          ~enough:(fun rs -> List.length rs >= 2)
          "m";
      finished := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "quorum only" 2 (List.length !got);
  Alcotest.(check bool) "before far reply" true (!finished < 0.045)

let test_rpc_broadcast_linger () =
  (* Linger keeps collecting: the two V zones answer ~together, the third
     arrives within the linger window. *)
  let engine, _net, rpc = make_rpc ~spec:"VVV" () in
  for node = 0 to 2 do
    echo_server rpc ~node
  done;
  let got = ref [] in
  Engine.spawn engine (fun () ->
      got :=
        Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2 ] ~timeout:1.0 ~linger:0.05
          ~enough:(fun rs -> List.length rs >= 2)
          "m");
  Engine.run engine;
  Alcotest.(check int) "linger collected all" 3 (List.length !got)

let test_rpc_broadcast_timeout_partial () =
  let engine, net, rpc = make_rpc ~spec:"VVV" () in
  for node = 0 to 2 do
    echo_server rpc ~node
  done;
  Network.set_down net 2;
  let got = ref [] in
  Engine.spawn engine (fun () ->
      got := Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2 ] ~timeout:0.2 "m");
  Engine.run engine;
  Alcotest.(check int) "partial" 2 (List.length !got)

let test_rpc_notify () =
  let engine, _net, rpc = make_rpc () in
  let seen = ref [] in
  Rpc.serve rpc ~node:1 (fun ~src:_ req ->
      seen := req :: !seen;
      "ignored-reply");
  Engine.spawn engine (fun () -> Rpc.notify rpc ~src:0 ~dst:1 "oneway");
  Engine.run engine;
  Alcotest.(check (list string)) "handled" [ "oneway" ] !seen

let test_rpc_concurrent_handlers () =
  (* A slow handler must not block other requests (stateless service
     processes: one per request). *)
  let engine, _net, rpc = make_rpc () in
  Rpc.serve rpc ~node:1 (fun ~src:_ req ->
      if req = "slow" then Engine.sleep 1.0;
      req);
  let order = ref [] in
  Engine.spawn engine (fun () ->
      ignore (Rpc.call rpc ~src:0 ~dst:1 ~timeout:5.0 "slow");
      order := "slow" :: !order);
  Engine.spawn engine (fun () ->
      Engine.sleep 0.01;
      ignore (Rpc.call rpc ~src:0 ~dst:1 ~timeout:5.0 "fast");
      order := "fast" :: !order);
  Engine.run engine;
  Alcotest.(check (list string)) "fast overtakes slow" [ "slow"; "fast" ] !order

(* An inline handler runs without a process of its own and replies; a
   request the predicate turns down still gets one, so its handler may
   sleep. Either way a request costs the same events at the same
   instants: the run with the predicate matches the run without it. *)
let test_rpc_inline_handlers () =
  let run inline =
    let engine, _net, rpc = make_rpc () in
    Rpc.serve rpc ~node:1 ?inline ~processing:0.02 (fun ~src:_ req ->
        if req = "slow" then Engine.sleep 1.0;
        req ^ "-done");
    let replies = ref [] in
    let ask ~after req =
      Engine.spawn engine (fun () ->
          Engine.sleep after;
          let reply = Rpc.call rpc ~src:0 ~dst:1 ~timeout:5.0 req in
          replies := (reply, Engine.now engine) :: !replies)
    in
    ask ~after:0.0 "slow";
    ask ~after:0.01 "fast";
    ask ~after:0.02 "fast";
    Engine.run engine;
    (List.rev !replies, Engine.processed engine)
  in
  let inline_replies, inline_events = run (Some (fun req -> req <> "slow")) in
  Alcotest.(check (list (option string))) "every request answered"
    [ Some "fast-done"; Some "fast-done"; Some "slow-done" ]
    (List.map fst inline_replies);
  let spawned_replies, spawned_events = run None in
  Alcotest.(check (list (pair (option string) (float 0.0))))
    "same replies at the same instants" spawned_replies inline_replies;
  Alcotest.(check int) "same events" spawned_events inline_events

let test_rpc_lossy_statistics () =
  (* Under heavy loss, calls may fail but never mis-deliver. *)
  let engine, _net, rpc = make_rpc ~loss:0.3 ~seed:5 () in
  echo_server rpc ~node:1;
  echo_server rpc ~node:2;
  let ok = ref 0 and bad = ref 0 and none = ref 0 in
  Engine.spawn engine (fun () ->
      for i = 1 to 200 do
        let dst = 1 + (i mod 2) in
        match Rpc.call rpc ~src:0 ~dst ~timeout:0.1 (string_of_int i) with
        | Some reply ->
            if reply = Printf.sprintf "%d-by-%d-from-0" i dst then incr ok
            else incr bad
        | None -> incr none
      done);
  Engine.run engine;
  Alcotest.(check int) "no mismatched replies" 0 !bad;
  Alcotest.(check bool) "some succeed" true (!ok > 50);
  Alcotest.(check bool) "some lost" true (!none > 10)

let test_rpc_timer_cancellation_bounds_heap () =
  (* Regression: a completed call or broadcast must cancel its timeout
     timers. With a long timeout and many sequential operations, the event
     heap would otherwise carry one live timer per past call, and a
     long-lived service (the chaos soak, the figure sweeps) would leak
     heap slots for the whole timeout window. *)
  let engine, _net, rpc = make_rpc () in
  for node = 0 to 2 do
    echo_server rpc ~node
  done;
  let worst = ref 0 in
  Engine.spawn engine (fun () ->
      for i = 1 to 200 do
        ignore (Rpc.call rpc ~src:0 ~dst:1 ~timeout:3600.0 (string_of_int i));
        ignore (Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2 ] ~timeout:3600.0 "b");
        worst := max !worst (Engine.pending engine)
      done);
  Engine.run engine;
  Alcotest.(check bool)
    (Printf.sprintf "pending stays bounded (worst %d)" !worst)
    true (!worst < 50);
  Alcotest.(check int) "all timers accounted for at quiescence" 0
    (Engine.pending engine)

let test_rpc_late_response_dropped () =
  (* A reply arriving after its call timed out must not be delivered to a
     later call (no id confusion). *)
  let engine, _net, rpc = make_rpc ~spec:"VOV" () in
  (* Server at the far datacenter: one-way ~45ms, so a 10ms timeout always
     expires first; then a fast local call must get its own answer. *)
  echo_server rpc ~node:1;
  echo_server rpc ~node:2;
  let first = ref (Some "sentinel") and second = ref None in
  Engine.spawn engine (fun () ->
      first := Rpc.call rpc ~src:0 ~dst:1 ~timeout:0.01 "slowpoke";
      second := Rpc.call rpc ~src:0 ~dst:2 ~timeout:1.0 "quick");
  Engine.run engine;
  Alcotest.(check (option string)) "first timed out" None !first;
  Alcotest.(check (option string)) "second correct" (Some "quick-by-2-from-0") !second

let test_rpc_duplicate_reply_dropped () =
  (* Regression for the "late or duplicate reply: drop" branch: a
     duplicated response must resolve its pending call exactly once,
     never confuse a later call, and never leak a waiter or timer. *)
  let engine, net, rpc = make_rpc () in
  echo_server rpc ~node:1;
  (* Duplicate every reply on the 1 -> 0 direction; requests (0 -> 1)
     are untouched. *)
  Network.set_duplication net ~src:1 ~dst:0 1.0;
  let first = ref None and second = ref None in
  Engine.spawn engine (fun () ->
      first := Rpc.call rpc ~src:0 ~dst:1 ~timeout:1.0 "a";
      second := Rpc.call rpc ~src:0 ~dst:1 ~timeout:1.0 "b");
  Engine.run engine;
  Alcotest.(check (option string)) "first resolves once, correctly"
    (Some "a-by-1-from-0") !first;
  Alcotest.(check (option string)) "duplicate does not bleed into next call"
    (Some "b-by-1-from-0") !second;
  Alcotest.(check bool) "replies were duplicated" true
    ((Network.stats net).Network.duplicated >= 2);
  Alcotest.(check int) "no leaked waiters or timers" 0 (Engine.pending engine)

let test_rpc_broadcast_duplicate_replies () =
  (* Under total duplication (requests and replies both delivered twice)
     a broadcast still counts each destination once and invokes the RTT
     observer exactly once per counted reply. *)
  let engine, net, rpc = make_rpc ~spec:"VVV" () in
  for node = 0 to 2 do
    echo_server rpc ~node
  done;
  Network.set_duplication_all net 1.0;
  let observed = ref [] and got = ref [] in
  Engine.spawn engine (fun () ->
      got :=
        Rpc.broadcast rpc ~src:0 ~dsts:[ 0; 1; 2 ] ~timeout:1.0
          ~observe:(fun ~dst ~rtt:_ -> observed := dst :: !observed)
          "m");
  Engine.run engine;
  Alcotest.(check (list int)) "each destination counted once" [ 0; 1; 2 ]
    (List.sort compare (List.map fst !got));
  Alcotest.(check (list int)) "observer fired once per counted reply"
    [ 0; 1; 2 ]
    (List.sort compare !observed);
  Alcotest.(check bool) "duplicates happened" true
    ((Network.stats net).Network.duplicated > 0);
  Alcotest.(check int) "quiescent heap" 0 (Engine.pending engine)

let () =
  Alcotest.run "net"
    [
      ( "topology",
        [
          Alcotest.test_case "ec2 preset" `Quick test_topology_ec2;
          Alcotest.test_case "invalid specs" `Quick test_topology_invalid;
          Alcotest.test_case "uniform" `Quick test_topology_uniform;
          QCheck_alcotest.to_alcotest prop_topology_sane;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery and latency" `Quick test_delivery_and_latency;
          Alcotest.test_case "loss rate" `Quick test_loss_rate;
          Alcotest.test_case "outage drops" `Quick test_down_drops;
          Alcotest.test_case "outage during flight" `Quick test_down_during_flight;
          Alcotest.test_case "partition and heal" `Quick test_partition_and_heal;
          Alcotest.test_case "partition singleton" `Quick test_partition_singleton_default;
        ] );
      ( "gray failures",
        [
          Alcotest.test_case "one-way cut is asymmetric" `Quick test_oneway_cut_asymmetric;
          Alcotest.test_case "one-way cut during flight" `Quick test_oneway_cut_in_flight;
          Alcotest.test_case "duplicate delivery" `Quick test_duplication;
          Alcotest.test_case "slow node multiplies delay" `Quick test_slowdown_delays;
          Alcotest.test_case "flapping link phases" `Quick test_flap_phases;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call" `Quick test_rpc_call;
          Alcotest.test_case "timeout" `Quick test_rpc_timeout;
          Alcotest.test_case "broadcast all" `Quick test_rpc_broadcast_all;
          Alcotest.test_case "broadcast quorum early exit" `Quick test_rpc_broadcast_quorum_early;
          Alcotest.test_case "broadcast linger" `Quick test_rpc_broadcast_linger;
          Alcotest.test_case "broadcast partial on timeout" `Quick test_rpc_broadcast_timeout_partial;
          Alcotest.test_case "notify one-way" `Quick test_rpc_notify;
          Alcotest.test_case "concurrent handlers" `Quick test_rpc_concurrent_handlers;
          Alcotest.test_case "inline handlers" `Quick test_rpc_inline_handlers;
          Alcotest.test_case "lossy calls stay correct" `Quick test_rpc_lossy_statistics;
          Alcotest.test_case "late responses dropped" `Quick test_rpc_late_response_dropped;
          Alcotest.test_case "completed calls cancel their timers" `Quick
            test_rpc_timer_cancellation_bounds_heap;
          Alcotest.test_case "duplicate replies dropped" `Quick
            test_rpc_duplicate_reply_dropped;
          Alcotest.test_case "broadcast under total duplication" `Quick
            test_rpc_broadcast_duplicate_replies;
        ] );
    ]
