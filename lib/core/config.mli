(** Transaction-tier configuration.

    The defaults reproduce the paper's prototype (§6): 2 s message-loss
    timeout, the leader-per-position fast path enabled, combination and
    unlimited promotion for Paxos-CP. Parameters the prototype fixes and
    no caller varies are constants in the module that reads them: the
    2–40 ms retry backoff and prepare linger ({!Proposer}), the read
    attempts and combination search limit ({!Client}), the per-request
    service cost ({!Service}) and the adaptive floor and multiplier
    ({!Rtt}). *)

type protocol =
  | Basic  (** The basic Paxos commit protocol (§4). *)
  | Cp  (** Paxos-CP: combination + promotion (§5). *)
  | Leader
      (** The long-term-leader design the paper sketches as related/future
          work (§7–§8): clients ship their whole transaction to one
          designated site, which orders transactions, performs fine-grained
          conflict checks against committed state, and replicates log
          entries with Multi-Paxos-style single-round accepts. Fewer
          message rounds per commit, but a single site does most of the
          work and remote clients pay a wide-area hop. *)

type t = {
  protocol : protocol;
  rpc_timeout : float;
      (** Seconds before an unanswered message counts as lost (paper: 2 s). *)
  max_promotions : int option;
      (** Promotion attempts before aborting; [None] = unlimited (paper). *)
  enable_combination : bool;  (** Paxos-CP combination enhancement. *)
  enable_fast_path : bool;
      (** Leader-per-log-position optimization (§4.1): skip the prepare
          phase when first at the position's leader. *)
  max_rounds : int;
      (** Ballot attempts per log position before reporting the system
          unavailable (liveness valve; Paxos alone cannot guarantee
          termination under contention). *)
  initial_leader : int;
      (** [Leader] protocol: the datacenter clients prefer as transaction
          manager; on unreachability they probe the next one (round-robin). *)
  adaptive : bool;
      (** [false] (paper behaviour, default): every call and broadcast
          waits the fixed [rpc_timeout], and [begin]/[read] fall back to
          the other datacenters in random order. [true]: the client keeps
          a per-destination EWMA of observed RTTs ({!Rtt}) and uses it
          twice — as adaptive timeouts clamped to
          [[Rtt.floor, rpc_timeout]], so a slow-but-alive or silent
          datacenter is given up on after a few believed RTTs instead of
          the full fixed window, and as a nearest-first fallback order for
          [begin]/[read] (hedged failover). Off ⇒ byte-identical
          figures. *)
  batch_max : int;
      (** [Leader] protocol throughput mode: max queued transactions the
          manager combines into one log position ({!Mdds_core.Combine}'s
          validity rule orders them). [1] (default) disables batching —
          every submission is proposed alone, as in the paper's §7
          manager. *)
  batch_fill : float;
      (** Fill-or-timeout: once the manager has at least one queued
          transaction but fewer than [batch_max], it waits at most this
          many seconds for more before proposing (only read when
          [batch_max > 1]). A long window with a large [batch_max] puts
          everything submitted in the window into one log entry — one
          consensus round amortized over the window (PROTOCOL.md §9). *)
  pipeline_depth : int;
      (** [Leader] protocol throughput mode: concurrent in-flight log
          positions the manager may keep open (Multi-Paxos pipelining;
          positions assigned eagerly, applies stay in log order via the
          WAL watermark, failures fall back to in-order single-position
          resolution). [1] (default) disables pipelining. *)
}

val default : t
(** Paxos-CP with the paper's parameters. *)

val basic : t
(** [default] with [protocol = Basic]. *)

val leader : t
(** [default] with [protocol = Leader]. *)

val throughput_mode : t -> bool
(** True iff batching or pipelining is enabled ([batch_max > 1] or
    [pipeline_depth > 1]). Off in {!default}/{!basic}/{!leader}. A label
    only: every Submit runs through the same manager, which at
    [batch_max = pipeline_depth = 1] proposes one transaction per
    position, one position at a time. *)

val submit_timeout : t -> float
(** How long a leader-protocol client waits for a Submit reply:
    [2 × rpc_timeout] unbatched; in throughput mode the queueing ahead of
    the proposal is added — up to [pipeline_depth] positions draining
    ahead, plus the drainer's fill wait. *)

val throughput : ?batch_max:int -> ?pipeline_depth:int -> t -> t
(** Steady-state throughput mode: [Leader] protocol with batching
    (default [batch_max = 8]) and pipelining (default
    [pipeline_depth = 4]) enabled. Validates like {!make}. *)

val make :
  ?base:t ->
  ?rpc_timeout:float ->
  ?batch_max:int ->
  ?pipeline_depth:int ->
  ?batch_fill:float ->
  unit ->
  t
(** [make ()] is {!default}; each optional argument overrides one field
    of [base] (default {!default}). Raises [Invalid_argument] with a
    descriptive message on contradictory knobs: [batch_max < 1],
    [pipeline_depth < 1], a negative or non-finite [batch_fill], or
    [rpc_timeout] below {!Rtt.floor} — each of which would otherwise be
    undefined behavior downstream (empty batch windows, a timeout floor
    above its cap). *)

val with_protocol : protocol -> t -> t

val protocol_name : protocol -> string
