(** Marker-record encoding for the multi-shot atomic commit protocol
    (after Chockler & Gotsman, "Multi-Shot Distributed Transaction
    Commit").

    A cross-group transaction's 2PC state machine is persisted as
    ordinary {!Mdds_types.Txn.record}s whose writes target keys under
    {!Mdds_types.Txn.reserved_prefix}, so every record rides the existing
    per-group Paxos log unchanged:

    - [Prepare]: logged in every participant group; its read set is the
      transaction's footprint in that group (reads ∪ write keys), so
      the single-group admission predicate doubles as the vote. Its
      single write carries the {!payload} (coordinator, participants,
      buffered writes).
    - [Decision]: logged in the coordinator's group; the first decision
      applied (WAL write-once) is authoritative for the transaction.
    - [Outcome]: logged in each participant group; applies the buffered
      writes on commit, nothing on abort. *)

module Txn := Mdds_types.Txn

val prepare_key : string -> string
val decision_key : string -> string
(** Marker (and data-row) key for a transaction id. *)

val commit_verdict : string
val abort_verdict : string

type payload = {
  coordinator : string;  (** group whose log holds the decision *)
  participants : string list;  (** all participant groups, sorted *)
  writes : (string * string) list;  (** buffered writes for this group *)
}


type kind =
  | Prepare of { txid : string }
  | Outcome of { txid : string; verdict : string }
  | Decision of { txid : string; verdict : string }
  | Plain

val classify : Txn.record -> kind
(** Constant-time on plain records: markers are always the first write.
    Decodes nothing; a prepare's payload is read by {!payload}. *)

val payload : Txn.record -> payload
(** Decode a prepare record's payload. Raises [Invalid_argument] on any
    record {!classify} does not call a [Prepare]. *)

val is_marker : Txn.record -> bool

val prepare_record :
  txid:string ->
  origin:int ->
  read_position:int ->
  reads:string list ->
  payload:payload ->
  Txn.record
(** [reads] must be the transaction's full footprint in the group
    (reads ∪ write keys) so admission staleness checks cover writes. *)

val outcome_record :
  txid:string ->
  tag:string ->
  origin:int ->
  prepare_position:int ->
  verdict:string ->
  writes:(string * string) list ->
  Txn.record
(** Transaction id is [txid ^ "/o@" ^ tag]: racing resolvers propose
    distinct records (L2-safe); the WAL's write-once rule makes all but
    the first applied outcome inert. *)

val decision_record :
  txid:string -> tag:string -> origin:int -> verdict:string -> Txn.record

val audit_group : string list -> string
(** Pseudo-group ["cross:<g1>+<g2>+..."] for cross-transaction audit
    events; never equal to a real group name. *)

val is_audit_group : string -> bool
