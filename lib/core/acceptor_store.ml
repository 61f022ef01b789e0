module Store = Mdds_kvstore.Store
module Row = Mdds_kvstore.Row
module Slots = Mdds_kvstore.Slots
module Strtbl = Mdds_kvstore.Strtbl
module Wal = Mdds_wal.Wal
module Txn = Mdds_types.Txn
module Ballot = Mdds_paxos.Ballot
module Acceptor = Mdds_paxos.Acceptor
module Codec = Mdds_codec.Codec

(* Decoded acceptor state as cached per position, in one flat record:
   Algorithm 1's nextBal and vote, decoded, next to the durable row's raw
   attributes, which are the truth. [nb] is the raw nextBal attribute, so
   the next conditional save tests against exactly what the store holds,
   and [raw] the raw vote attribute, so a prepare (which keeps the vote)
   writes it back without re-encoding the entry. *)
type cached = {
  next_bal : Ballot.t;
  vote : (Ballot.t * Txn.entry) option;
  nb : string option;
  raw : string;
}

(* One group's row families (its paxos/ and claim/ rows, by position),
   its write-through decoded view of the paxos/ rows, and how far
   compaction has pruned them since this process started. *)
type group = {
  name : string;
  paxos : Store.family;
  claim : Store.family;
  cache : cached Slots.t;
  mutable pruned : int;  (* rows at 1..pruned are gone *)
}

let vote_codec = Codec.(option (pair Ballot.codec Txn.entry_codec))

let no_vote = Codec.encode vote_codec None

(* The state of a position with no row (or no attributes yet). *)
let blank = { next_bal = Ballot.bottom; vote = None; nb = None; raw = no_vote }

(* The empty slot of a group's cache: a copy of [blank], so a block no
   load returns. *)
let absent = { blank with vote = None }

type t = {
  store : Store.t;
  wal : Wal.t;
  groups : group Strtbl.t;
      (* Volatile: dropped on restart and pruned with compaction. *)
  mutable recent : group option;  (* the group resolved last *)
  counters : Counters.t;
}

let create ~store ~wal ~counters =
  { store; wal; groups = Strtbl.create 4; recent = None; counters }

let reset t =
  Strtbl.reset t.groups;
  t.recent <- None

let group t name =
  match t.recent with
  | Some g when String.equal g.name name -> g
  | _ ->
      let g =
        match Strtbl.find_opt t.groups name with
        | Some g -> g
        | None ->
            let g =
              {
                name;
                paxos = Store.family t.store ~prefix:("paxos/" ^ name ^ "/");
                claim = Store.family t.store ~prefix:("claim/" ^ name ^ "/");
                cache = Slots.create absent;
                pruned = 0;
              }
            in
            Strtbl.replace t.groups name g;
            g
      in
      t.recent <- Some g;
      g

let load_fresh g ~pos =
  let nb = Store.attribute_at g.paxos pos "nb" in
  match (nb, Store.attribute_at g.paxos pos "vote") with
  | None, None -> blank
  | nb, raw ->
      {
        next_bal =
          (match nb with None -> Ballot.bottom | Some s -> Ballot.of_string s);
        vote =
          (match raw with None -> None | Some s -> Codec.decode_exn vote_codec s);
        nb;
        raw = Option.value raw ~default:no_vote;
      }

let load g ~pos =
  let c = Slots.get g.cache pos in
  if c != absent then c
  else
    let c = load_fresh g ~pos in
    Slots.set g.cache pos c;
    c

let state_of c = { Acceptor.next_bal = c.next_bal; vote = c.vote }

(* ------------------------------------------------------------------ *)
(* Acceptor state persistence (Algorithm 1's datastore state).         *)

(* Conditional save keyed on the nextBal attribute, mirroring Algorithm 1
   lines 9 and 18: the write goes through only if nextBal has not changed
   since we read the state. The cache follows the store: updated only when
   the conditional write lands, dropped when it does not (someone else owns
   the row's current value). [raw] is [state.vote] already encoded. *)
let save t g ~pos ~expected_nb ~raw (state : Txn.entry Acceptor.state) =
  let nb = Ballot.to_string state.next_bal in
  let ok =
    Store.check_and_write_at g.paxos pos ~test_attribute:"nb"
      ~test_value:expected_nb
      (Row.of_array [| "nb"; nb; "vote"; raw |])
  in
  (* Promises and votes are the durability the whole protocol rests on
     (§4.1: an acceptor must come back remembering them): sync before the
     reply leaves this datacenter. *)
  if ok then begin
    Store.sync t.store;
    Slots.set g.cache pos
      { next_bal = state.next_bal; vote = state.vote; nb = Some nb; raw }
  end
  else Slots.clear g.cache pos;
  ok

let state t ~group:name ~pos = state_of (load (group t name) ~pos)

let prepare t ~group:name ~pos ~ballot =
  let g = group t name in
  let rec go () =
    let c = load g ~pos in
    let state', reply = Acceptor.on_prepare (state_of c) ballot in
    match reply with
    | Acceptor.Reject next_bal -> Messages.Prepare_reject { next_bal }
    | Acceptor.Promise vote ->
        if save t g ~pos ~expected_nb:c.nb ~raw:c.raw state' then
          Messages.Promise { vote }
        else go () (* state changed: retry *)
  in
  go ()

(* Grant condition for a sequenced (pipelined) round-0 accept: our current
   vote at the previous position is the very same round-0 ballot *for the
   very entry the leader says it proposed there* ([prev], carried in the
   Accept). Acceptors cast at most one round-0 vote per position, so a
   quorum of sequenced grants at [pos] is a quorum of round-0 votes at
   [pos - 1] for one value — i.e. proof the leader's previous in-flight
   entry is chosen. That induction is what lets the manager keep
   [pipeline_depth] positions open and still report completions out of
   order (DESIGN.md §14). The entry match is load-bearing: the round-0
   ballot is NOT single-use per position (after a given-up
   exposed-but-undecided round the manager re-proposes a different batch
   at the same position and ballot 0, and pre-restart accepts linger on
   slow/duplicating links), so ballot-equal votes for different entries
   can coexist at [pos - 1] and ballot equality alone would prove
   nothing chosen. Anything else — no vote yet, an overwritten vote, a
   different entry, a compacted predecessor — is refused; refusal costs
   only the fast round, the window resolution recovers through the full
   protocol. *)
let sequenced_ok t g ~name ~pos ~ballot ~prev =
  pos > 1
  && pos - 1 > Wal.compacted_position t.wal ~group:name
  &&
  match (load g ~pos:(pos - 1)).vote with
  | Some (pb, pe) -> Ballot.equal pb ballot && Txn.equal_entry pe prev
  | None -> false

let accept t ~group:name ~pos ~ballot ~entry ~vote ~sequenced =
  let g = group t name in
  let rec go () =
    let refused =
      match sequenced with
      | None -> false
      | Some prev -> not (sequenced_ok t g ~name ~pos ~ballot ~prev)
    in
    let c = load g ~pos in
    if refused then Messages.Accept_reply { ok = false; next_bal = c.next_bal }
    else
      let state', ok = Acceptor.on_accept (state_of c) ballot entry in
      if not ok then Messages.Accept_reply { ok = false; next_bal = c.next_bal }
      else if save t g ~pos ~expected_nb:c.nb ~raw:vote state' then
        Messages.Accept_reply { ok = true; next_bal = state'.next_bal }
      else go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Leadership of the next log position (§4.1 optimization).            *)

(* The claim registry is protocol-critical state, not a cache: the fast
   path is only safe if at most one value is ever proposed at round 0 of
   a position, and that uniqueness rests entirely on the registrar
   granting [first] once. (The registrar's identity is view-consistent —
   every claimant derives it from the decided entry at [pos - 1] — so a
   durable first-wins register here is sufficient.) Keeping it in a
   volatile table would let a service restart re-grant a claim and allow
   two rival round-0 votes, which ballot order cannot arbitrate. *)
let claim t ~group:name ~pos ~claimant =
  let claims = (group t name).claim in
  let owner () = Store.attribute_at claims pos "owner" in
  match owner () with
  | Some winner ->
      (* A replayed claim from the registered owner (duplicated link or
         client retry) re-reads the durable register; the answer is the
         original grant, never a second one. *)
      if String.equal winner claimant then Counters.incr t.counters Dup_claims;
      Messages.Claim_reply { first = String.equal winner claimant }
  | None ->
      if
        Store.check_and_write_at claims pos ~test_attribute:"owner"
          ~test_value:None
          (Row.of_array [| "owner"; claimant |])
      then begin
        (* The claim is a durable first-wins register (see above): a grant
           lost at a crash boundary could be re-granted to a rival. *)
        Store.sync t.store;
        Messages.Claim_reply { first = true }
      end
      else Messages.Claim_reply { first = owner () = Some claimant }

(* ------------------------------------------------------------------ *)
(* Compaction and crash recovery of the rows.                           *)

(* A compacted position can never be proposed again, so its acceptor
   state is dead weight: the rows go, and the decoded cache is pruned
   with the rows it mirrors. Each compaction deletes only the span past
   the previous one. The watermark is this process's own, not the WAL's
   compaction point: a snapshot install raises that point without
   pruning, and after a restart the watermark starts again at 0, so the
   rows such an install skipped are still reclaimed. *)
let prune t ~group:name ~upto =
  let g = group t name in
  for pos = g.pruned + 1 to upto do
    Store.delete_at g.paxos pos;
    Store.delete_at g.claim pos;
    Slots.clear g.cache pos
  done;
  if upto > g.pruned then g.pruned <- upto

(* Scrub the group's Paxos and claim rows; positions whose rows held
   checksum-invalid versions are the damage set — their durable state
   reverted to an older promise/grant and must not be voted from. *)
let scrub t ~group:name =
  let g = group t name in
  let dropped = ref 0 in
  let damaged = ref [] in
  let scan rows =
    List.iter
      (fun pos ->
        let n = Store.scrub_at rows pos in
        if n > 0 then begin
          dropped := !dropped + n;
          damaged := pos :: !damaged
        end)
      (Store.positions rows)
  in
  scan g.paxos;
  scan g.claim;
  (!dropped, List.sort_uniq Int.compare !damaged)

(* ------------------------------------------------------------------ *)
(* Cache coherence: the decoded view equals a fresh decode of the rows. *)

exception Incoherent of string

let equal_vote a b =
  match (a, b) with
  | None, None -> true
  | Some (ba, va), Some (bb, vb) -> Ballot.equal ba bb && Txn.equal_entry va vb
  | _ -> false

(* The first position, ascending, whose cached state differs from its
   row. *)
let coherent t ~group:name =
  match Strtbl.find_opt t.groups name with
  | None -> Ok ()
  | Some g ->
      let fail fmt = Printf.ksprintf (fun m -> raise (Incoherent m)) fmt in
      let check pos cached =
        let fresh = load_fresh g ~pos in
        if
          not
            (Ballot.equal cached.next_bal fresh.next_bal
            && equal_vote cached.vote fresh.vote)
        then
          fail "acceptor/%s/%d: cached state differs from durable decode" name
            pos
        else if cached.nb <> fresh.nb then
          fail "acceptor/%s/%d: cached nextBal attribute %s, store %s" name pos
            (Option.value cached.nb ~default:"<absent>")
            (Option.value fresh.nb ~default:"<absent>")
        else if not (String.equal cached.raw fresh.raw) then
          fail "acceptor/%s/%d: cached vote bytes differ from the store" name
            pos
      in
      try
        Slots.iter check g.cache;
        Ok ()
      with Incoherent msg -> Error msg
