(** Request/response messaging over the lossy datagram {!Network}.

    This is the shape of the paper's client↔service communication: the
    Transaction Client sends a request to the Transaction Service of one or
    all datacenters and waits for replies until a timeout (2 s in the
    paper's prototype) — there are no connections, retransmissions or
    ordering guarantees. {!broadcast} implements the Paxos message rounds:
    send to every datacenter in parallel and collect replies until a quorum
    predicate is satisfied or the timeout fires (Algorithm 2).

    ['req] and ['resp] are the application's request/response payloads.

    Dispatch is direct: a request carries its caller's waiter record and
    the response carries it back, so a reply's delivery resolves the
    caller in place, with no request-id table and no dispatcher process.
    A served request costs one event at delivery and one when its
    handler starts (DESIGN.md §2.1). *)

type ('req, 'resp) packet
(** Wire format (opaque; exposed so the underlying network is typed). *)

type ('req, 'resp) t

val create : ('req, 'resp) packet Network.t -> ('req, 'resp) t
(** Wrap a network carrying RPC packets: every node's handler resolves
    replies, and drops requests until {!serve} runs there. *)

val network : ('req, 'resp) t -> ('req, 'resp) packet Network.t
val engine : ('req, 'resp) t -> Mdds_sim.Engine.t

val serve :
  ('req, 'resp) t ->
  node:int ->
  ?processing:float ->
  ?inline:('req -> bool) ->
  (src:int -> 'req -> 'resp) ->
  unit
(** Serve requests at [node]. Each incoming request is handled in its
    own process (the paper's stateless per-request service processes),
    after an optional randomized delay of mean [processing] (uniform
    within +/-50%, modelling store/OS work). The delay is drawn at
    delivery, in delivery order, from a stream split off the engine's
    root stream by this call. The handler may block (e.g. perform nested
    RPCs).

    [inline] (default: none) is asked when a request's handler is due to
    start. A request it accepts is handled right there as a plain
    callback, without a process of its own: {b its handler must not
    block} ([Engine.sleep], [Engine.suspend], {!call}, {!broadcast}), or
    the simulation fails. Inline or not, a request costs the same events
    at the same instants, so the choice changes no run. *)

val call :
  ('req, 'resp) t -> src:int -> dst:int -> timeout:float -> 'req -> 'resp option
(** Send one request and wait for its reply; [None] on timeout (request or
    reply lost, destination down, or slow). *)

val broadcast :
  ('req, 'resp) t ->
  src:int ->
  dsts:int list ->
  timeout:float ->
  ?linger:float ->
  ?enough:((int * 'resp) list -> bool) ->
  ?observe:(dst:int -> rtt:float -> unit) ->
  'req ->
  (int * 'resp) list
(** Send the request to every destination in parallel and collect
    [(dst, reply)] pairs until all have answered, [enough] is satisfied, or
    the timeout fires; returns whatever was collected (possibly early).
    [linger] keeps collecting for that many extra seconds after [enough]
    first holds, so near-simultaneous responses beyond the quorum are still
    seen (Paxos-CP's tally wants more than a bare majority, §5).
    [observe] is invoked once per counted reply with the destination and
    its observed round-trip time (the adaptive timeout estimator's feed);
    late or duplicate replies are never observed. *)

val notify : ('req, 'resp) t -> src:int -> dst:int -> 'req -> unit
(** One-way message: no reply is sent or awaited (used for the apply phase,
    Algorithm 2 lines 58–61). *)
