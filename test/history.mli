(** Single-copy, single-version transaction histories (§3.1).

    A general conflict-serializability tester over SCSV schedules: build
    the direct serialization graph (edges on conflicting operations, i.e.
    same key, at least one write, ordered by schedule position) and search
    it for cycles. Used to unit-test the theory itself and as a reference
    for the log-based checker: a one-copy serializable execution projected
    onto committed transactions must always pass this test. It is an
    executable specification: only [test_serial] runs it. *)

type action = Read of string | Write of string
(** Operation on a key. *)

type step = { txn : string; action : action }

type t = step list
(** A schedule: operations of committed transactions in execution order.
    (Aborted transactions should be filtered out before checking.) *)

val conflict_serializable : t -> bool
(** True iff the conflict graph is acyclic. *)

val serial_order : t -> string list option
(** A topological order of the conflict graph — an equivalent serial
    execution — or [None] if the schedule is not conflict-serializable.
    Transactions with no operations in the schedule are omitted. *)

val txns : t -> string list
(** Distinct transaction ids, in first-appearance order. *)

val conflict_edges : t -> (string * string) list
(** Distinct [(t1, t2)] pairs such that some operation of [t1] conflicts
    with and precedes some operation of [t2] (no self-edges), ordered by
    first conflicting occurrence (earlier step first, then the later
    step's position). *)

val of_serial : (string * action list) list -> t
(** Schedule obtained by running whole transactions back-to-back — always
    serializable; handy for tests and generators. *)
