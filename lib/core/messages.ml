module Ballot = Mdds_paxos.Ballot
module Txn = Mdds_types.Txn

type submit_result =
  | Accepted_at of int
  | Stale_read
  | No_quorum
  | In_doubt

type request =
  | Get_read_position of { group : string }
  | Read of { group : string; key : string; position : int }
  | Prepare of { group : string; pos : int; ballot : Ballot.t }
  | Accept of {
      group : string;
      pos : int;
      ballot : Ballot.t;
      entry : Txn.entry;
      vote : string;
      sequenced : Txn.entry option;
    }
  | Apply of { group : string; pos : int; entry : Txn.entry; encoded : string }
  | Claim_leadership of { group : string; pos : int; claimant : string }
  | Submit of { group : string; record : Txn.record }
  | Get_snapshot of { group : string }

type response =
  | Read_position of { position : int; leader : int option }
  | Value of { value : string option }
  | Promise of { vote : (Ballot.t * Txn.entry) option }
  | Prepare_reject of { next_bal : Ballot.t }
  | Accept_reply of { ok : bool; next_bal : Ballot.t }
  | Applied
  | Claim_reply of { first : bool }
  | Submit_reply of { result : submit_result }
  | Snapshot_reply of { applied : int; rows : (string * int * string) list }
  | Compacted of int
  | Recovering
  | Unlearnable of int

let encode_entry entry = Mdds_codec.Codec.encode Txn.entry_codec entry

let or_encode encoded entry =
  match encoded with Some bytes -> bytes | None -> encode_entry entry

(* [Some (ballot, entry)] under the acceptor's vote codec, spliced from
   the entry bytes: the option tag, the ballot, then the entry verbatim.
   Built once per round; every acceptor stores these very bytes. *)
let accept ~group ~pos ~ballot ?sequenced ?encoded entry =
  let vote =
    String.concat ""
      [ "\001"; Mdds_codec.Codec.encode Ballot.codec ballot; or_encode encoded entry ]
  in
  Accept { group; pos; ballot; entry; vote; sequenced }

let apply ~group ~pos ?encoded entry =
  Apply { group; pos; entry; encoded = or_encode encoded entry }

let pp_request ppf = function
  | Get_read_position { group } -> Format.fprintf ppf "get_read_position(%s)" group
  | Read { group; key; position } ->
      Format.fprintf ppf "read(%s,%s@%d)" group key position
  | Prepare { group; pos; ballot } ->
      Format.fprintf ppf "prepare(%s,%d,%a)" group pos Ballot.pp ballot
  | Accept { group; pos; ballot; entry; sequenced; vote = _ } ->
      Format.fprintf ppf "accept(%s,%d,%a,%a%s)" group pos Ballot.pp ballot
        Txn.pp_entry entry
        (if sequenced <> None then ",seq" else "")
  | Apply { group; pos; entry; encoded = _ } ->
      Format.fprintf ppf "apply(%s,%d,%a)" group pos Txn.pp_entry entry
  | Claim_leadership { group; pos; claimant } ->
      Format.fprintf ppf "claim(%s,%d,%s)" group pos claimant
  | Submit { group; record } ->
      Format.fprintf ppf "submit(%s,%a)" group Txn.pp_record record
  | Get_snapshot { group } -> Format.fprintf ppf "get_snapshot(%s)" group

let pp_response ppf = function
  | Read_position { position; leader } ->
      Format.fprintf ppf "read_position(%d,leader=%a)" position
        (Format.pp_print_option Format.pp_print_int)
        leader
  | Value { value } ->
      Format.fprintf ppf "value(%a)"
        (Format.pp_print_option (fun ppf -> Format.fprintf ppf "%S"))
        value
  | Promise { vote } ->
      Format.fprintf ppf "promise(%a)"
        (Format.pp_print_option (fun ppf (b, e) ->
             Format.fprintf ppf "%a:%a" Ballot.pp b Txn.pp_entry e))
        vote
  | Prepare_reject { next_bal } ->
      Format.fprintf ppf "prepare_reject(%a)" Ballot.pp next_bal
  | Accept_reply { ok; next_bal } ->
      Format.fprintf ppf "accept_reply(%b,%a)" ok Ballot.pp next_bal
  | Applied -> Format.fprintf ppf "applied"
  | Claim_reply { first } -> Format.fprintf ppf "claim_reply(first=%b)" first
  | Submit_reply { result } ->
      Format.fprintf ppf "submit_reply(%s)"
        (match result with
        | Accepted_at pos -> Printf.sprintf "accepted@%d" pos
        | Stale_read -> "stale-read"
        | No_quorum -> "no-quorum"
        | In_doubt -> "in-doubt")
  | Snapshot_reply { applied; rows } ->
      Format.fprintf ppf "snapshot(applied=%d,%d rows)" applied (List.length rows)
  | Compacted upto -> Format.fprintf ppf "failed(compacted through %d)" upto
  | Recovering -> Format.fprintf ppf "failed(position recovering)"
  | Unlearnable pos -> Format.fprintf ppf "failed(cannot learn log position %d)" pos
