module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Tally = Mdds_paxos.Tally
module Rpc = Mdds_net.Rpc
module Engine = Mdds_sim.Engine
module Rng = Mdds_sim.Rng

module Trace = Mdds_sim.Trace

type env = {
  rpc : (Messages.request, Messages.response) Rpc.t;
  config : Config.t;
  dc : int;
  dcs : int list;
  rng : Rng.t;
  trace : Trace.t;
  trace_source : string;
  rtt : Rtt.t option;
}

let make_env ~rpc ~config ~dc ~dcs ~rng ~trace =
  let rtt =
    if config.Config.adaptive then
      Some
        (Rtt.create ~floor:Rtt.floor ~cap:config.Config.rpc_timeout
           ~dcs:(List.length dcs))
    else None
  in
  { rpc; config; dc; dcs; rng; trace; trace_source = Printf.sprintf "prop.dc%d" dc; rtt }

let timeout_for env ~dst =
  match env.rtt with
  | Some rtt -> Rtt.timeout rtt ~dst
  | None -> env.config.Config.rpc_timeout

let broadcast_timeout env =
  match env.rtt with
  | Some rtt -> Rtt.broadcast_timeout rtt ~dsts:env.dcs
  | None -> env.config.Config.rpc_timeout

let observer env =
  match env.rtt with
  | None -> None
  | Some rtt -> Some (fun ~dst ~rtt:sample -> Rtt.observe rtt ~dst sample)

type choice = Propose of Txn.entry | Stop of Txn.entry | Retry

type result =
  | Decided of Txn.entry
  | Observed of Txn.entry
  | Unavailable
  | Compacted

type stats = { prepare_rounds : int; accept_rounds : int; fast_path_used : bool }

let quorum env = Tally.majority (List.length env.dcs)

(* A [%a] printer for trace formats, so a disabled trace never renders
   the ballot. *)
let show_ballot () ballot = Ballot.to_string ballot

(* Backoff before re-entering the prepare phase (Algorithm 2, lines 40 and
   55): a uniform draw from [2 ms, 40 ms] — exactly the paper's
   prototype, and exactly one RNG draw per retry. *)
let backoff_min = 0.002
let backoff_max = 0.040

let backoff env = Engine.sleep (Rng.uniform env.rng backoff_min backoff_max)

(* Extra seconds to keep collecting prepare responses after a quorum of
   promises, so the tally sees more than a bare majority (the combination
   window of §5 depends on it). *)
let prepare_linger = 0.01

(* Broadcast apply to every datacenter (Figure 3, step 6). Remote applies
   are one-way; the local one is confirmed synchronously so that the next
   transaction of this application instance sees the new read position
   (the paper's co-located-replica optimization: the client updates its
   local store as part of commit). A local timeout is tolerated.
   [encoded] is the entry's bytes from its accept round, reused. *)
let broadcast_apply env ~group ~pos ~encoded entry =
  let msg = Messages.apply ~group ~pos ~encoded entry in
  List.iter
    (fun dst -> if dst <> env.dc then Rpc.notify env.rpc ~src:env.dc ~dst msg)
    env.dcs;
  ignore
    (Rpc.call env.rpc ~src:env.dc ~dst:env.dc ~timeout:(timeout_for env ~dst:env.dc)
       msg)

(* One accept round: true iff a majority voted for (ballot, entry).
   Also returns the highest nextBal seen in rejections, for ballot
   selection on retry. The entry is serialized once per round and its
   vote bytes are built once from those ({!Messages.accept}): every
   acceptor's vote row stores the vote bytes and, if the entry is chosen,
   every replica's log row the entry bytes. *)
let accept_round ?sequenced env ~group ~pos ~ballot ~encoded entry =
  let acks = ref 0 in
  let replies =
    Rpc.broadcast env.rpc ~src:env.dc ~dsts:env.dcs
      ~timeout:(broadcast_timeout env) ?observe:(observer env)
      ~enough:(fun responses ->
        acks :=
          List.length
            (List.filter
               (function _, Messages.Accept_reply { ok = true; _ } -> true | _ -> false)
               responses);
        !acks >= quorum env)
      (Messages.accept ~group ~pos ~ballot ?sequenced ~encoded entry)
  in
  let oks, max_seen =
    List.fold_left
      (fun (oks, seen) (_, reply) ->
        match reply with
        | Messages.Accept_reply { ok; next_bal } ->
            let seen =
              if Ballot.compare next_bal seen > 0 then next_bal else seen
            in
            ((if ok then oks + 1 else oks), seen)
        | _ -> (oks, seen))
      (0, Ballot.bottom) replies
  in
  (oks >= quorum env, max_seen)

(* How one prepare round ended. *)
type prepared =
  | Promised of Txn.entry Tally.response list  (* a majority promised *)
  | Rejected of Ballot.t  (* the highest nextBal hint seen *)
  | Closed  (* a majority refused the position as compacted *)

let rec count p n = function
  | [] -> n
  | (_, r) :: rest -> count p (if p r then n + 1 else n) rest

let is_promise = function Messages.Promise _ -> true | _ -> false
let is_compacted = function Messages.Compacted _ -> true | _ -> false

(* One prepare round. A compacted position is decided and its acceptor
   state gone wherever it was compacted, so once a majority says so no
   later round can gather a majority of promises: the round ends there. *)
let prepare_round env ~group ~pos ~ballot =
  let replies =
    Rpc.broadcast env.rpc ~src:env.dc ~dsts:env.dcs
      ~timeout:(broadcast_timeout env) ?observe:(observer env)
      ~linger:prepare_linger
      ~enough:(fun responses ->
        count is_promise 0 responses >= quorum env
        || count is_compacted 0 responses >= quorum env)
      (Messages.Prepare { group; pos; ballot })
  in
  let votes, max_seen =
    List.fold_left
      (fun (votes, seen) (from, reply) ->
        match reply with
        | Messages.Promise { vote } -> ({ Tally.from; vote } :: votes, seen)
        | Messages.Prepare_reject { next_bal } ->
            (votes, if Ballot.compare next_bal seen > 0 then next_bal else seen)
        | _ -> (votes, seen))
      ([], Ballot.bottom) replies
  in
  if List.length votes >= quorum env then Promised (List.rev votes)
  else if count is_compacted 0 replies >= quorum env then Closed
  else Rejected max_seen

let run env ~group ~pos ?fast ~choose () =
  let stats = ref { prepare_rounds = 0; accept_rounds = 0; fast_path_used = false } in
  let bump_prepare () = stats := { !stats with prepare_rounds = !stats.prepare_rounds + 1 } in
  let bump_accept () = stats := { !stats with accept_rounds = !stats.accept_rounds + 1 } in
  (* Interned at env construction: [run] is per-instance hot and must not
     pay a sprintf before a (usually disabled) trace call. *)
  let source = env.trace_source in
  let fast_outcome =
    match fast with
    | None -> None
    | Some entry ->
        stats := { !stats with fast_path_used = true };
        bump_accept ();
        Trace.record env.trace ~source ~category:"fast" "pos %d: accept round at ballot 0" pos;
        let encoded = Messages.encode_entry entry in
        let ok, seen =
          accept_round env ~group ~pos ~ballot:(Ballot.fast ~proposer:env.dc)
            ~encoded entry
        in
        if ok then begin
          Trace.record env.trace ~source ~category:"decide" "pos %d decided via fast path" pos;
          broadcast_apply env ~group ~pos ~encoded entry;
          Some (Decided entry)
        end
        else begin
          ignore seen;
          None (* fall through to the full protocol *)
        end
  in
  match fast_outcome with
  | Some r -> (r, !stats)
  | None ->
      let rec attempt ballot round =
        if round > env.config.max_rounds then begin
          Trace.record env.trace ~level:Trace.Warn ~source ~category:"giveup"
            "pos %d: %d rounds exhausted" pos env.config.max_rounds;
          (Unavailable, !stats)
        end
        else begin
          bump_prepare ();
          Trace.record env.trace ~source ~category:"prepare" "pos %d ballot %a round %d"
            pos show_ballot ballot round;
          match prepare_round env ~group ~pos ~ballot with
          | Closed ->
              Trace.record env.trace ~level:Trace.Warn ~source ~category:"giveup"
                "pos %d: compacted at a majority" pos;
              (Compacted, !stats)
          | Rejected seen ->
              backoff env;
              attempt (Ballot.next ~after:(if Ballot.compare seen ballot > 0 then seen else ballot) ~proposer:env.dc) (round + 1)
          | Promised votes -> (
              match choose votes with
              | Stop entry -> (Observed entry, !stats)
              | Retry ->
                  backoff env;
                  attempt (Ballot.next ~after:ballot ~proposer:env.dc) (round + 1)
              | Propose entry ->
                  bump_accept ();
                  let encoded = Messages.encode_entry entry in
                  let ok, seen = accept_round env ~group ~pos ~ballot ~encoded entry in
                  if ok then begin
                    Trace.record env.trace ~source ~category:"decide"
                      "pos %d decided at ballot %a (%d txns)" pos show_ballot
                      ballot (List.length entry);
                    broadcast_apply env ~group ~pos ~encoded entry;
                    (Decided entry, !stats)
                  end
                  else begin
                    backoff env;
                    attempt
                      (Ballot.next ~after:(if Ballot.compare seen ballot > 0 then seen else ballot) ~proposer:env.dc)
                      (round + 1)
                  end)
        end
      in
      attempt (Ballot.make ~round:1 ~proposer:env.dc) 1

(* Pipelined fast round (throughput mode): one round-0 accept for an
   eagerly assigned position, with no full-protocol fallback — the
   manager's window resolution owns recovery, in log order, so an
   out-of-order failure here must not start a rival instance. A
   [sequenced] accept carries the entry this leader proposed at
   [pos - 1]; acceptors grant it only if their vote at [pos - 1] is that
   very (round-0 ballot, entry) pair. A quorum of grants is therefore a
   quorum of round-0 votes for one value at [pos - 1] — the predecessor
   entry is chosen — and by induction every earlier in-flight position
   is chosen with this leader's entries, which is why success may be
   reported out of order. (Ballot equality alone would not do: the
   round-0 ballot is reused at a position after a given-up round, so
   ballot-equal votes for different entries can coexist at [pos - 1].) *)
let run_fast env ~group ~pos ~sequenced entry =
  Trace.record env.trace ~source:env.trace_source ~category:"fast"
    "pos %d: pipelined accept round at ballot 0%s" pos
    (if sequenced <> None then " (sequenced)" else "");
  let encoded = Messages.encode_entry entry in
  let ok, _seen =
    accept_round ?sequenced env ~group ~pos
      ~ballot:(Ballot.fast ~proposer:env.dc) ~encoded entry
  in
  if ok then begin
    Trace.record env.trace ~source:env.trace_source ~category:"decide"
      "pos %d decided via pipelined fast path (%d txns)" pos (List.length entry);
    broadcast_apply env ~group ~pos ~encoded entry
  end;
  ok

let learn env ~group ~pos =
  let choose votes =
    (* Adopt whatever the votes reveal; never invent a value. *)
    match Tally.highest votes with
    | Some (_, entry) -> Propose entry
    | None -> Retry
  in
  match run env ~group ~pos ~choose () with
  | Decided entry, _ | Observed entry, _ -> Ok entry
  | Compacted, _ -> Error `Compacted
  | Unavailable, _ -> Error `Unavailable
