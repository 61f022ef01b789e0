(** One-copy serializability by the book (§3.1, Definition 1).

    A multi-version multi-copy history is one-copy serializable iff there
    is a single-copy single-version *serial* history with the same
    operations and the same reads-from relation. This module decides that
    definition directly, by searching for a witness serial order — which
    is exponential, so it is only usable for small histories.

    Its purpose is cross-validation: the practical log-based oracle
    ({!Mdds_serial.Checker}) must agree with this definitional decision
    procedure on every history small enough to check both ways. It is an
    executable specification: only [test_serial] runs it. *)

type txn = {
  id : string;
  reads : (string * string option) list;
      (** [(key, Some writer)]: the transaction read [key] from [writer]'s
          write; [None]: it read the initial version. *)
  writes : string list;  (** Keys written. *)
}

val one_copy_serializable : txn list -> string list option
(** A witness serial order of the transaction ids — an order in which the
    last writer of each key before each transaction matches its reads-from
    — or [None] if no such order exists. Exhaustive: intended for ≤ 8
    transactions. Raises [Invalid_argument] on duplicate ids or a
    reads-from referencing an unknown transaction or non-writer. *)

val of_log : (int * Mdds_types.Txn.entry) list -> txn list
(** Interpret a replicated-log history as an MVMC history: each record's
    reads-from for key [k] is the last transaction writing [k] at or
    before its read position (which is how the Transaction Service serves
    reads). The log must be position-sorted. *)
