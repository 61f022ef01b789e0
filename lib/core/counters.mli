(** The service-side telemetry of one datacenter: one int array with a
    slot per counter.

    {!Service.start} creates the array and hands it to every module that
    counts ({!Acceptor_store}, {!Catchup}, {!Indoubt}, {!Manager}) and,
    through {!Cluster.client}, to the datacenter's clients. It survives
    {!Service.restart}. Nothing in the protocol reads a counter. *)

type counter =
  | Learns  (** Missing log entries learned through Paxos (§4.1). *)
  | Snapshots  (** Peer snapshots installed during catch-up. *)
  | Recoveries
      (** Restarts whose recovery scan found damage (torn versions
          scrubbed or the log truncated; PROTOCOL.md §7). *)
  | Scrubbed  (** Checksum-invalid versions dropped across restarts. *)
  | Relearned
      (** Quarantined positions re-entered after their decided value was
          re-learned from peers (or checkpointed past). *)
  | Dup_applies
      (** Apply notifications for a position the log already holds —
          duplicated one-way messages (or proposer retries) absorbed by
          {!Mdds_wal.Wal.append}'s idempotence instead of applied twice. *)
  | Dup_claims
      (** Leadership claims replayed by the registered owner; answered
          from the durable first-wins register, never re-granted. *)
  | Dup_submits
      (** Submissions whose transaction the log already holds or the
          manager already has queued or in flight — a duplicated or
          replayed [Submit] is answered with the original position instead
          of being sequenced twice (an L2 violation; found by gray-failure
          chaos under the leader protocol). *)
  | Batches
      (** Log positions proposed by the manager (each holds a
          Combine-validated batch of 1..[batch_max] transactions;
          DESIGN.md §14). *)
  | Batched_txns  (** Transactions those positions carried. *)
  | Pipelined_rounds
      (** Sequenced round-0 accept rounds launched with earlier positions
          still in flight (the k-deep pipeline actually overlapping). *)
  | Pipeline_stalls
      (** Times a failed round forced the window to be resolved in log
          order through the full protocol before new positions opened. *)
  | Twopc_prepares
      (** Prepare marker records absorbed into the in-doubt table (from
          own admissions, applies received, and restart rescans —
          observations, not distinct transactions). *)
  | Twopc_resolved
      (** In-doubt transactions this service's resolvers settled by
          logging a decision and outcome (PROTOCOL.md §10). *)
  | In_doubt_replies
      (** [In_doubt] submit replies returned to clients: the submission
          was exposed to acceptors but its fate was unknown when the
          manager gave up (honest "unknown", never a silent drop). *)
  | Hedges
      (** Service requests ([begin]/[read]) of this datacenter's clients
          answered by a fallback datacenter after the local one failed or
          timed out — under {!Config.t.adaptive}, hedged failovers. *)

type t

val create : unit -> t
(** Every slot zero. *)

val incr : t -> counter -> unit
val add : t -> counter -> int -> unit
val get : t -> counter -> int

val sum : t list -> t
(** Slot-wise sum, e.g. over a cluster's services. *)
