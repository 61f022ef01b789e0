(** One-copy serializability oracle for executions of the transactional
    datastore.

    Theorem 1 reduces one-copy serializability to the log properties
    (L1)–(L3), (R1) and the read properties (A1)–(A2). The cluster's
    {!Mdds_core.Cluster.logs_agree} checks (R1); this module checks the
    rest against a replicated log and the audit trail:

    - {!positions}: (L2), every transaction in at most one log slot; the
      table it returns answers (L1)'s questions ({!committed_at},
      {!aborted}) without a second pass over the log.
    - {!check_log}: one walk of the serial history defined by the log
      (positions in order, records within an entry in order) over one
      per-key table, checking three things at once:
      + (L3): every transaction got exactly the reads it was entitled to:
        no key in its read set was written between its read position and
        its commit position, nor by a preceding record in its own entry —
        the union of (L3)'s admission rules for combination and
        promotion, verified independently of the protocol's own checks;
      + replay: every value each client actually observed equals the
        value the serial execution holds at its commit point;
      + read-only: every read-only transaction saw the state the serial
        execution holds at its read position.

      When the history breaks more than one, the first (L3) violation in
      log order is reported; else the first replay violation; else the
      first read-only one. *)

module Txn = Mdds_types.Txn

type violation = {
  txn_id : string;
  position : int;
  message : string;
  property : string;
      (** What was broken: ["L1"], ["L2"], ["L3"], ["replay"] or
          ["read-only"]. {!pp_violation} does not print it. *)
}

val pp_violation : Format.formatter -> violation -> unit

(** {1 (L1) and (L2)} *)

type positions = (string, int) Hashtbl.t
(** Transaction id -> the log position holding it. *)

val positions : (int * Txn.entry) list -> (positions, violation) result
(** (L2): no transaction occupies two log slots. [Error] names the first
    repeat in log order. *)

val committed_at : positions -> txn_id:string -> pos:int -> (unit, violation) result
(** (L1) and outcome honesty: a transaction reported committed at [pos]
    is logged exactly there. *)

val aborted : positions -> txn_id:string -> (unit, violation) result
(** Outcome honesty: a transaction reported aborted is not logged. *)

(** {1 (L3), replay and read-only} *)

val check_log :
  ?observed:(string -> (Txn.key * string option) list option) ->
  ?readers:(string * int * (Txn.key * string option) list) list ->
  (int * Txn.entry) list ->
  (unit, violation) result
(** The log must be sorted by position (as {!Mdds_core.Cluster.committed_log}
    returns it).
    - [observed txn_id] returns the key/value pairs the client's reads
      actually returned ([None], the default for every id: unknown — such
      transactions get only the (L3) check).
    - [readers] are the read-only transactions [(txn_id, read_position,
      observed)], which are not logged: Theorem 1 serializes each one
      immediately after the last transaction of its read position. *)
