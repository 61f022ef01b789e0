(** Per-destination EWMA round-trip estimator for adaptive timeouts.

    The paper's prototype uses a fixed 2 s message-loss timeout (§6).
    Under gray failure — a slow-but-alive datacenter, a flapping route —
    a fixed timeout either waits far too long (healthy RTTs are tens of
    milliseconds) or cannot be shortened safely. The estimator tracks an
    exponentially weighted moving average of observed RTTs per
    destination (weight 1/8 per new sample, TCP's smoothing constant)
    and derives a timeout of [3 × ewma], clamped to [[floor, cap]] where
    [cap] is {!Config.t.rpc_timeout} — so the adaptive timeout is never
    longer than the paper's, and never shorter than the floor. A
    destination with no samples gets the full [cap]: adaptivity only
    tightens after evidence.

    Pure arithmetic — no RNG, no clock access — so creating and feeding
    one never perturbs a deterministic run. Behind {!Config.t.adaptive},
    which defaults to the paper's fixed timeout. *)

type t

val floor : float
(** The floor every client estimator uses (0.05 s): no adaptive timeout
    is shorter, so an over-confident estimate cannot starve a genuinely
    slow reply. *)

val create : floor:float -> cap:float -> dcs:int -> t
(** Raises [Invalid_argument] unless [0 < floor <= cap]. *)

val observe : t -> dst:int -> float -> unit
(** Feed one observed round-trip time (seconds). Negative samples and
    out-of-range destinations are ignored. *)

val estimate : t -> dst:int -> float option
(** Current EWMA for the destination; [None] before any sample. *)

val timeout : t -> dst:int -> float
(** [clamp floor cap (multiplier × ewma)]; [cap] with no samples. Always
    within [[floor, cap]]. *)

val broadcast_timeout : t -> dsts:int list -> float
(** The max of {!timeout} over the destinations — the adaptive wait for a
    quorum round, bounded by the slowest believed-alive acceptor. *)
