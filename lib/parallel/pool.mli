(** Order-preserving parallel map for embarrassingly parallel trials.

    Simulation trials (experiment cells, chaos seeds) are independent: each
    builds its own engine, cluster and RNG from a seed, so trials can run on
    separate OCaml 5 domains without sharing any mutable state. This module
    provides the one primitive the harness needs: an order-preserving
    parallel {!map} over a list of such trials.

    Determinism contract: [map f xs] returns exactly what [List.map f xs]
    returns (same values, same order), provided [f] is deterministic per
    element — which every simulator trial is, being a pure function of its
    seed. Parallel figure regeneration is therefore byte-identical to
    sequential regeneration, whatever the domain count or dispatch order. *)

val set_jobs : int option -> unit
(** Process-wide width for {!map} calls without [?domains] (the [--jobs]
    knob of the CLIs). [None] clears it. Values below 1 are clamped to 1.
    Call it from the main domain before any parallel work; it is a plain
    write, not synchronized. *)

val get_jobs : unit -> int
(** Width used by {!map} without [?domains]: the value set by {!set_jobs}
    if any, else the [MDDS_JOBS] environment variable, else
    [Domain.recommended_domain_count ()]. Always at least 1. Raises
    [Invalid_argument] if [MDDS_JOBS] is consulted and is not an integer
    [>= 1]. *)

val map : ?domains:int -> ?cost:('a -> float) -> ('a -> 'b) -> 'a list -> 'b list
(** [map ?domains ?cost f xs] applies [f] to every element of [xs] and
    returns the results in input order. The width is
    [min (length xs) domains], with [domains] defaulting to {!get_jobs}.

    - With width [<= 1], or when called from inside another [map]'s [f],
      it is exactly [List.map f xs] on the calling domain.
    - Otherwise it starts [width - 1] helper domains for this call only
      and joins them before returning; the caller works alongside them.
      Helpers run with a 4M-word minor heap. If the runtime refuses a
      domain, the batch runs on those already started.
    - [?cost] is a per-element work estimate: when given, elements are
      dispensed longest-estimated-first (ties by input index), so one
      expensive trial cannot tail-bound the batch by being dispensed last.
      The result list is unaffected — only wall-clock time changes.
    - If one or more applications raise, the exception of the {e smallest
      failing index} is re-raised (with its backtrace) after every helper
      is joined. Undispensed elements are skipped once a failure is seen;
      every element already dispensed runs to completion. *)
