(** Exact statistics over raw samples.

    Every percentile the ledger prints is an order statistic of the
    sorted raw samples, never a histogram bucket bound: the log2 buckets
    of {!Obs.Histogram} can be up to 2x off. *)

val sorted : float array -> float array
(** A sorted copy. *)

val percentile : float array -> float -> float
(** [percentile sorted q], nearest rank: the smallest sample with at
    least [q * n] samples at or below it.
    @raise Invalid_argument on no samples or [q] outside [0, 1]. *)

val median : float array -> float
(** [percentile sorted 0.5]. *)

val tail : q:float -> float array -> float * float
(** [(q', v)]: the [q] percentile when at least ten samples lie beyond
    it; otherwise the highest percentile that still has ten samples
    beyond it (the maximum below eleven samples).  [q'] is the
    percentile actually reported. *)

val py_median : float array -> float
(** Median as Python's [statistics.median] computes it (mean of the two
    middle samples of an even count). *)

val quartiles : float array -> float * float
(** First and third quartile exactly as Python's
    [statistics.quantiles(data, n=4)] computes them (the default
    "exclusive" method).  @raise Invalid_argument below two samples. *)

val spread : float array -> float
(** [(q3 - q1) / median]: the run-to-run spread a benchmark bound is
    checked against. *)

val bisect :
  lo:float ->
  hi:float ->
  steps:int ->
  (float -> bool) ->
  float * (float * bool) list
(** [bisect ~lo ~hi ~steps pass] probes the midpoint [steps] times,
    moving [lo] up on a pass and [hi] down on a failure.  Returns the
    highest passing rate found ([lo] itself when no probe passes) and
    the probes in order. *)

val residual : whole:float -> float list -> float
(** The whole minus the sum of its parts. *)
