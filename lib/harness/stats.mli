(** Descriptive statistics for experiment results. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val empty : summary
(** All-zero summary (of an empty sample). *)

val summarize : float list -> summary

val mean : float list -> float
val stddev : float list -> float

val percentile : float list -> float -> float
(** [percentile xs p] with [p] in [0, 100], nearest-rank on the sorted
    sample; 0 on an empty sample. *)

val pp_ms : Format.formatter -> float -> unit
(** Seconds rendered as milliseconds ("12.3ms"). *)

