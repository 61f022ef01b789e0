(** Discrete-event simulation engine with lightweight processes.

    The engine replaces the paper's EC2 testbed: datacenters, transaction
    services, clients and the network are all processes interleaved over a
    single virtual clock. A process is an ordinary OCaml function; when it
    blocks ([sleep], [suspend]) an OCaml 5 effect captures
    its continuation and the engine resumes it later from the event queue.

    Determinism: events fire in (time, insertion-order) order and all
    randomness comes from the engine's {!Rng.t}, so a run is a pure function
    of the seed.

    Domain safety: the "engine of the currently-running process" registry is
    domain-local, so independent engines may run concurrently on separate
    domains (the parallel trial runner does exactly that). A single engine
    must not be shared across domains: all interaction with one engine —
    [spawn], [run], processes — must happen on the domain that runs it. *)

type t

(** {1 Construction and running} *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] makes an engine whose clock starts at [0.]. *)

val now : t -> float
(** Current virtual time, in seconds. *)

val rng : t -> Rng.t
(** The engine's root random stream ({!Rng.split} it per component). *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty (all processes finished or
    blocked forever) or the clock would pass [until]; in the latter case the
    clock advances to [until], never backwards. A run that ends on
    cancelled timers leaves the clock at the latest of their deadlines (at
    most [until]). Can be called again after adding more work. *)

val processed : t -> int
(** Number of events executed so far (debugging/telemetry). A cancelled
    timer is not an event: it never runs and is not counted. *)

val pending : t -> int
(** Live events currently queued in any of the three lanes (events due
    now, later events, timers); cancelled timers are not counted. Used by
    tests guarding against timer leaks: a component that cancels its
    one-shot timers when the awaited event arrives keeps this bounded by
    its in-flight window, instead of growing with every call whose long
    timeout has not yet expired. *)

(** {1 Processes and scheduling} *)

val spawn : ?at:float -> t -> (unit -> unit) -> unit
(** [spawn t f] starts process [f] at time [max at (now t)]. Exceptions
    escaping a process abort the simulation ([run] re-raises them). *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Low-level: run a callback (not a blocking process) at the given time,
    clamped to [now t]. Raises [Invalid_argument] on a NaN time. *)

val start : t -> (unit -> unit) -> unit
(** [start t f] runs [f] as a process at once, from inside an event
    callback of [t]: what a {!spawn}ed process does when its event fires,
    so [schedule t ~at (fun () -> start t f)] is [spawn ~at t f]. Lets a
    callback decide, when it runs, whether its work may block. *)

type timer
(** Handle to a pending one-shot callback. *)

val after : t -> float -> (unit -> unit) -> timer
(** [after t d f] runs [f] once, [d] seconds from now, unless cancelled.
    Raises [Invalid_argument] on a NaN delay. *)

val cancel : timer -> unit
(** Cancel a pending timer; harmless if it already fired. The callback,
    and what it captured, is released at once, not at the deadline. *)

(** {1 Blocking operations — valid only inside a process} *)

val sleep : float -> unit
(** Suspend the calling process for the given virtual duration. Raises
    [Invalid_argument] on a NaN duration. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend register] blocks the calling process and calls
    [register wake]. Some other event must eventually call [wake v], which
    resumes the process with value [v] (at the then-current time). Calling
    [wake] more than once is a programming error; guard with a flag when
    racing a timer against another waker. *)

val yield : unit -> unit
(** Let other events scheduled for the current instant run first. *)
