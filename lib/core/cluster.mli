(** A complete simulated deployment: engine, network, one Transaction
    Service per datacenter, and factories for Transaction Clients.

    This is the top-level entry point of the library — the simulated
    equivalent of Figure 1's architecture. Typical use:

    {[
      let cluster = Cluster.create (Topology.ec2 "VVV") in
      let client = Cluster.client cluster ~dc:0 in
      Cluster.spawn cluster (fun () ->
          let txn = Client.begin_ client ~group:"g" in
          Client.write txn "x" "1";
          ignore (Client.commit txn));
      Cluster.run cluster
    ]} *)

type t

val create :
  ?seed:int ->
  ?config:Config.t ->
  ?storage:Mdds_kvstore.Store.mode ->
  Mdds_net.Topology.t ->
  t
(** Build the deployment and start all services. Default config is
    {!Config.default} (Paxos-CP); default seed 42; default storage mode
    [Sync_always] (every write durable as it lands — the chaos engine
    passes [Sync_explicit] so dirty and torn crashes have something to
    lose). *)

val engine : t -> Mdds_sim.Engine.t
val config : t -> Config.t
val topology : t -> Mdds_net.Topology.t
val network : t -> (Messages.request, Messages.response) Mdds_net.Rpc.packet Mdds_net.Network.t
val audit : t -> Audit.t

val trace : t -> Mdds_sim.Trace.t
(** The protocol event trace; {!Mdds_sim.Trace.enable} it before running
    to capture message rounds, decisions, learner/snapshot activity and
    commit outcomes. *)

val size : t -> int
val service : t -> int -> Service.t
val services : t -> Service.t list

val client : ?id:string -> t -> dc:int -> Client.t
(** A fresh application instance in the given datacenter. [?id] overrides
    the generated client id (transaction ids are [<id>/<n>]). *)

val spawn : ?at:float -> t -> (unit -> unit) -> unit
(** Start a simulated process (an application thread). *)

val run : ?until:float -> t -> unit
(** Run the simulation to quiescence (or the time bound). *)

val now : t -> float

(** {1 Fault injection}

    Every injector records a [fault]-category {!Mdds_sim.Trace} event, so a
    traced run interleaves faults with the protocol activity they disturb
    (the chaos engine's repro output relies on this). *)

val take_down : t -> int -> unit
val bring_up : t -> int -> unit
val is_down : t -> int -> bool
val partition : t -> int list list -> unit
val heal : t -> unit

val restart : t -> int -> unit
(** {!Service.restart} the given datacenter's service: volatile state is
    dropped, durable acceptor/log state survives. *)

val dirty_restart : t -> int -> unit
(** Storage-level power loss: {!Mdds_kvstore.Store.crash} discards the
    datacenter's unsynced write buffer, then the service restarts and runs
    its recovery scan. A plain {!restart} in [Sync_always] mode. *)

val torn_restart : t -> int -> unit
(** Like {!dirty_restart}, but the in-flight row write additionally
    persists only a prefix of its attributes (a torn write, caught by the
    recovery scan's checksum scrub). *)

val storm : t -> loss:float -> jitter:float -> unit
(** Degrade every inter-datacenter link to the given loss probability and
    fractional jitter (base delays are kept). *)

val calm : t -> unit
(** End a storm: drop all link-quality overrides. *)

(** {2 Gray failures}

    Faults where every datacenter stays up and correct but the network
    misbehaves asymmetrically: directed cuts, slow-but-alive nodes,
    flapping and duplicating links ({!Mdds_net.Network}'s gray-failure
    state). *)

val cut_oneway : t -> src:int -> dst:int -> unit
(** Drop messages [src]→[dst]; the reverse direction still flows. *)

val heal_oneway : t -> src:int -> dst:int -> unit
val heal_oneways : t -> unit

val slow_node : t -> int -> factor:float -> unit
(** Multiply every link delay into and out of the datacenter by
    [factor >= 1] (a slow-but-alive datacenter). *)

val clear_slowdown : t -> int -> unit
val clear_slowdowns : t -> unit

val flap_link : t -> src:int -> dst:int -> period:float -> unit
(** Alternate the directed link up/down with a square wave of the given
    period (first half-period up). *)

val clear_flap : t -> src:int -> dst:int -> unit
val clear_flaps : t -> unit

val dup_storm : t -> prob:float -> unit
(** Duplicate every delivered message with the given probability on all
    links (both copies arrive, independently delayed). *)

val clear_duplication : t -> unit

(** {1 Checking (test oracles)} *)

val agreed_log :
  t -> group:string -> ((int * Mdds_types.Txn.entry) list, string) result
(** The union of all datacenter logs, sorted by position, built in one
    pass over the positions without copying any replica's log. [Error]
    names a position where a datacenter's entry differs from that of the
    lowest datacenter holding it, violating (R1): of all such, the lowest
    differing datacenter's lowest position. *)

val logs_agree : t -> group:string -> (unit, string) result
(** Replication property (R1): no two datacenter logs hold different
    entries for the same position. *)

val committed_log : t -> group:string -> (int * Mdds_types.Txn.entry) list
(** The union of all datacenter logs, sorted by position. Raises
    [Failure] if (R1) is violated. *)

val combined_entries : t -> group:string -> int
(** Number of log entries holding more than one transaction — the paper's
    "combinations performed" telemetry (§6). *)
