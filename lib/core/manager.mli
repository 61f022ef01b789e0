(** The long-term-leader transaction manager (§7–§8 future work;
    DESIGN.md §14): the one Submit path, for clients and the in-process
    2PC resolvers alike.

    One drainer fiber per group owns proposal order. Submissions queue;
    the drainer drains them (fill-or-timeout) into Combine-valid batches,
    one batch per log position, and — in the Multi-Paxos steady state —
    keeps up to [pipeline_depth] positions in flight at once via
    {!Proposer.run_fast}'s sequenced round-0 accepts. A failed round
    stalls the pipeline: every open position is resolved in log order
    through the full protocol before new positions open. Data applies
    always stay in log order behind the WAL watermark regardless of the
    order rounds complete in. At [batch_max = pipeline_depth = 1] this is
    the paper's manager: one transaction per position, one position in
    flight.

    Queues, window and leadership streak are all volatile. *)

type t

val create :
  env:Proposer.env ->
  wal:Mdds_wal.Wal.t ->
  catchup:Catchup.t ->
  indoubt:Indoubt.t ->
  counters:Counters.t ->
  t

val submit : t -> Indoubt.submit
(** Enqueue the record and block until its outcome is known. A duplicate
    of a submission already queued or in flight attaches to it; one
    already in the log is answered with its position. *)

val restart : t -> unit
(** Drop every queue, window and streak, and answer each held
    submission at once: [No_quorum] if no accept carrying it can have
    gone out, else [In_doubt]. Orphaned drainers exit without proposing. *)
