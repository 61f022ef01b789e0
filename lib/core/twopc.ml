module Txn = Mdds_types.Txn
module Codec = Mdds_codec.Codec

(* Everything the multi-shot commit protocol persists rides inside
   ordinary log records as writes to keys under {!Txn.reserved_prefix}, so
   the per-group Paxos machinery (durability, replication, dedup,
   recovery) applies to 2PC state unchanged. *)
let prepare_prefix = Txn.reserved_prefix ^ "p/"
let outcome_prefix = Txn.reserved_prefix ^ "o/"
let decision_prefix = Txn.reserved_prefix ^ "d/"

let prepare_key txid = prepare_prefix ^ txid
let outcome_key txid = outcome_prefix ^ txid
let decision_key txid = decision_prefix ^ txid

let commit_verdict = "commit"
let abort_verdict = "abort"

type payload = {
  coordinator : string;
  participants : string list;
  writes : (string * string) list;
}

let payload_codec =
  Codec.(
    map
      (fun (coordinator, participants, writes) ->
        { coordinator; participants; writes })
      (fun { coordinator; participants; writes } ->
        (coordinator, participants, writes))
      (triple string (list string) (list (pair string string))))

type kind =
  | Prepare of { txid : string }
  | Outcome of { txid : string; verdict : string }
  | Decision of { txid : string; verdict : string }
  | Plain

(* Marker records carry their marker (the reserved prefix, a kind letter,
   '/' and the txid) as the first write, so classification is one prefix
   test and one letter on the hot path. It allocates only its result and
   decodes nothing: a prepare's payload is read only by {!payload}. *)
let classify (r : Txn.record) =
  match r.Txn.writes with
  | { Txn.key; value } :: _ when Txn.is_reserved key -> (
      let at = String.length prepare_prefix in
      let txid = String.sub key at (String.length key - at) in
      match key.[String.length Txn.reserved_prefix] with
      | 'p' -> Prepare { txid }
      | 'o' -> Outcome { txid; verdict = value }
      | _ -> Decision { txid; verdict = value })
  | _ -> Plain

let payload (r : Txn.record) =
  match r.Txn.writes with
  | { Txn.key; value } :: _ when String.starts_with ~prefix:prepare_prefix key
    ->
      Codec.decode_exn payload_codec value
  | _ -> invalid_arg "Twopc.payload: not a prepare record"

let is_marker (r : Txn.record) =
  match r.Txn.writes with
  | { Txn.key; _ } :: _ -> Txn.is_reserved key
  | [] -> false

(* The prepare both locks the transaction's footprint in this group and
   re-uses the single-group admission predicate: its read set is the
   union of the transaction's real reads *and* write keys, so the
   manager's staleness check ("was any of these keys overwritten after
   the read position?") validates the whole footprint at the prepare's
   log position. The real writes travel in the payload; they are applied
   only by a commit outcome. *)
let prepare_record ~txid ~origin ~read_position ~reads ~payload =
  Txn.make_record ~txn_id:txid ~origin ~read_position ~reads
    ~writes:
      [ { Txn.key = prepare_key txid; value = Codec.encode payload_codec payload } ]

(* Outcome and decision records get origin-tagged transaction ids so
   racing resolvers never propose the same id twice (an L2 violation);
   the duplicate *effects* are suppressed by the WAL's write-once rule
   for [__2pc/] keys — the first logged outcome applies, later ones are
   inert. *)
let outcome_record ~txid ~tag ~origin ~prepare_position ~verdict ~writes =
  let writes =
    { Txn.key = outcome_key txid; value = verdict }
    :: (if String.equal verdict commit_verdict then
          List.map (fun (key, value) -> { Txn.key; value }) writes
        else [])
  in
  Txn.make_record
    ~txn_id:(txid ^ "/o@" ^ tag)
    ~origin ~read_position:prepare_position ~reads:[] ~writes

let decision_record ~txid ~tag ~origin ~verdict =
  Txn.make_record
    ~txn_id:(txid ^ "/d@" ^ tag)
    ~origin ~read_position:0 ~reads:[]
    ~writes:[ { Txn.key = decision_key txid; value = verdict } ]

(* Pseudo-group under which a cross-group transaction's audit event is
   recorded. It never matches a real group, so the per-group oracles
   ignore cross events; {!Verify.check_cross} reads them explicitly. *)
let audit_group groups = "cross:" ^ String.concat "+" groups

let is_audit_group g = String.starts_with ~prefix:"cross:" g
