(** The Transaction Client: the application-facing transaction API (§2.2)
    and the commit protocols (§4.1 basic Paxos, §5 Paxos-CP).

    One client belongs to one application instance in one datacenter. The
    transaction lifecycle follows the paper's transaction protocol (§4):

    + {!begin_} asks the local Transaction Service for the read position
      (falling back to other datacenters if it is unreachable);
    + {!read} returns buffered writes first (A1), otherwise reads from a
      Transaction Service at the read position (A2), caching the result;
    + {!write} only buffers locally;
    + {!commit} builds the log entry from the read and write sets and runs
      the configured commit protocol for position [read position + 1].

    Read-only transactions commit locally without any messages (§2.2). *)

module Txn = Mdds_types.Txn

exception Unavailable of string
(** No Transaction Service answered within three datacenter attempts;
    raised by {!begin_} and {!read}. *)

type t

val create :
  rpc:(Messages.request, Messages.response) Mdds_net.Rpc.t ->
  config:Config.t ->
  dc:int ->
  dcs:int list ->
  audit:Audit.t ->
  counters:Counters.t ->
  id:string ->
  trace:Mdds_sim.Trace.t ->
  t
(** [counters] is the client's datacenter's; a [begin]/[read] answered
    by another datacenter counts as {!Counters.Hedges} there. *)

val dc : t -> int

val service_order : Proposer.env -> int list
(** The datacenters {!begin_} and {!read} try, in order: the local one
    first, then the others — in random order (one shuffle of the env's
    RNG) under the paper's default, or nearest first by estimated RTT
    under [Config.adaptive], with unsampled datacenters last in topology
    order. *)

type txn

val begin_ : t -> group:string -> txn
val txn_id : txn -> string
val read_position : txn -> int

val read : txn -> Txn.key -> string option
(** [None] if the key has never been written (as of the read position). *)

val write : txn -> Txn.key -> string -> unit
(** Buffers the write until {!commit}. {!read} and [write] raise
    [Invalid_argument] on a key under {!Txn.reserved_prefix}. *)

val commit : txn -> Audit.outcome
(** Run the commit protocol; records the transaction in the audit trail and
    returns its outcome. Never raises: total unavailability yields
    [Aborted { reason = Unavailable; _ }]. A transaction can be committed
    at most once ([Invalid_argument] otherwise). *)

(** {1 Cross-group transactions (PROTOCOL.md §10)}

    A multi-group transaction reads and writes in several groups and
    commits atomically with the multi-shot 2PC whose every step —
    prepare, decision, outcome — is an ordinary record in a per-group
    Paxos log (see {!Twopc}). Requires the [Leader] protocol when more
    than one group participates. *)

type mtxn

val begin_multi : t -> groups:string list -> mtxn
(** Begin in every listed group (deduplicated, sorted; the first sorted
    group coordinates). Raises [Invalid_argument] on an empty list and
    {!Unavailable} like {!begin_}. *)

val mtxn_id : mtxn -> string

val read_in : mtxn -> group:string -> Txn.key -> string option
val write_in : mtxn -> group:string -> Txn.key -> string -> unit
(** Like {!read} / {!write} in one participant group.
    [Invalid_argument] if [group] was not passed to {!begin_multi}. *)

val commit_multi : mtxn -> Audit.outcome
(** Atomic commit across all participant groups. A single-group [mtxn]
    commits exactly like {!commit}. Otherwise: prepares are logged in
    every group in order (the single-group admission predicate over the
    transaction's footprint is the vote), the decision is logged in the
    coordinator's group — its apply is the commit point, write-once, so
    the verdict is read back before reporting — and outcomes deliver the
    buffered writes. [Committed] is reported only after the commit
    decision is durably logged and read back; [Aborted] only when no
    prepare can have been logged (presumed abort) or an abort decision
    settles the leftovers (in-doubt resolvers finish either cleanup if
    the client dies mid-protocol); everything else is [Unknown]. Records
    one audit event under {!Twopc.audit_group} with group-qualified
    keys. *)
