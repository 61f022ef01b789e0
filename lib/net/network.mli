(** Simulated datagram transport between datacenters.

    Matches the paper's communication model (§2.2): messages are
    UDP-like — unordered across links, possibly lost, never corrupted;
    "either the message arrives before a known timeout or it is lost".
    Datacenters can go offline and come back without notice, and the
    network can be partitioned; both drop traffic silently.

    Beyond the paper's clean-failure model, the transport can also inject
    {e gray failures}: one-way (directed) link cuts, flapping links that
    alternate up/down half-periods, slow-but-alive datacenters (per-node
    delay multipliers) and duplicate delivery (per-link probability of a
    second, independently delayed copy). All of these compose with
    outages, partitions and link-quality overrides; with none active, the
    transport's RNG stream is byte-identical to the clean model.

    Each node has one handler, and a message that survives its flight is
    passed straight to the destination's handler inside the delivery
    event: there is no queue in between. *)

type 'msg t

type stats = {
  sent : int;  (** Messages submitted to the transport. *)
  delivered : int;  (** Messages handed to a destination handler. *)
  dropped_loss : int;  (** Lost to random link loss. *)
  dropped_down : int;  (** Dropped because an endpoint was offline. *)
  dropped_cut : int;  (** Dropped by a partition. *)
  dropped_oneway : int;
      (** Dropped by a directed cut or a flapping link's down
          half-period. *)
  duplicated : int;  (** Extra copies injected by duplicate delivery. *)
}

val create : Mdds_sim.Engine.t -> Topology.t -> 'msg t

val engine : 'msg t -> Mdds_sim.Engine.t
val topology : 'msg t -> Topology.t
val size : 'msg t -> int

val listen : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit
(** Make [handler] the receiver of every message delivered to [node],
    replacing the previous one (initially, delivered messages are
    dropped). The handler runs inside the delivery event, so it must not
    block; a handler that needs to block spawns a process. *)

val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
(** Fire-and-forget send. Sampled delay; silently dropped on loss, outage
    of either endpoint, partition, directed cut or flap down-phase (all
    checked at send *and* delivery time). May deliver twice under an
    active duplication probability. *)

(** {1 Fault injection} *)

val set_down : 'msg t -> int -> unit
(** Take a datacenter offline: its traffic is dropped, including
    messages already in flight to it when they land. *)

val set_up : 'msg t -> int -> unit
val is_down : 'msg t -> int -> bool

val partition : 'msg t -> int list list -> unit
(** [partition net groups] cuts every link between nodes of different
    groups (a node absent from all groups forms its own singleton). *)

val heal : 'msg t -> unit
(** Remove any partition. *)

(** {2 Link-quality overrides (loss/jitter storms)}

    A degraded-weather knob for chaos testing: an override replaces the
    topology's delay/jitter/loss for one directed link until cleared.
    Overrides compose with outages and partitions (those still drop
    first). *)

val link : 'msg t -> src:int -> dst:int -> Topology.link
(** The link parameters currently in effect for [src → dst]. *)

val override_link : 'msg t -> src:int -> dst:int -> Topology.link -> unit

val clear_overrides : 'msg t -> unit
(** Drop every link override (end of a storm). *)

(** {2 Gray failures}

    The degraded-network regime that dominates real multi-datacenter
    outages: routes that fail in one direction only, links that flap,
    datacenters that are slow but alive, and duplicate delivery. None of
    these mark a node down — [is_down] stays false — which is exactly
    what makes them gray. *)

val cut_oneway : 'msg t -> src:int -> dst:int -> unit
(** Drop all traffic [src → dst]; the reverse direction is untouched
    (asymmetric route failure). Counted in [dropped_oneway]. *)

val heal_oneway : 'msg t -> src:int -> dst:int -> unit
val clear_oneway_cuts : 'msg t -> unit

val set_slowdown : 'msg t -> int -> float -> unit
(** Multiply the delay of every message into {e and} out of this node by
    [factor >= 1] (slow-but-alive datacenter). Composes multiplicatively
    when both endpoints are slowed. *)

val clear_slowdown : 'msg t -> int -> unit
val clear_slowdowns : 'msg t -> unit

val flap_link : 'msg t -> src:int -> dst:int -> period:float -> unit
(** Make the directed link alternate up/down half-periods of
    [period / 2] seconds, phase-anchored at the call (starts up).
    Messages sent or in flight during a down half-period are dropped and
    counted in [dropped_oneway]. Deterministic in the clock — no RNG. *)

val clear_flap : 'msg t -> src:int -> dst:int -> unit
val clear_flaps : 'msg t -> unit

val set_duplication : 'msg t -> src:int -> dst:int -> float -> unit
(** With probability [p], a message on this directed link is delivered
    twice, the second copy with an independently sampled delay (counted
    in [duplicated]). [p = 0] clears the link. The duplication RNG draw
    only happens while some link has [p > 0], so runs without duplication
    keep a byte-identical RNG stream. *)

val set_duplication_all : 'msg t -> float -> unit
(** Set the duplication probability on every directed link. *)

val clear_duplication : 'msg t -> unit

val stats : 'msg t -> stats

val delivered_to : 'msg t -> int -> int
(** Messages delivered to this datacenter's handler (load it served) —
    used to quantify the single-site bottleneck of leader-based designs. *)
