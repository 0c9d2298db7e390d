(** Summary statistics for the benchmark: medians over repetitions,
    quartiles computed exactly as Python's
    [statistics.quantiles(values, n=4)] computes them (the default
    "exclusive" method), the relative inter-quartile range used for
    regression bounds, and an allocation-free latency histogram. *)

val median : float array -> float
(** Middle value, or the mean of the two middle values for an even
    count ([nan] when empty). *)

val quartiles : float array -> float * float * float
(** [(q1, q2, q3)] by the exclusive method of Python's
    [statistics.quantiles(data, n=4)].
    @raise Invalid_argument with fewer than two values. *)

val rel_iqr : float array -> float
(** [(q3 - q1) / |median|]: the spread a regression bound is taken
    from.  [0.] for fewer than two values. *)

val percentile_sorted : float array -> float -> float
(** Nearest-rank percentile [p] (0..100) of an already sorted array
    ([nan] when empty). *)

(** Latency histogram over integer nanoseconds: exact below 1024 ns,
    then 512 buckets per power of two (a relative resolution of 0.2%).
    Recording allocates nothing, so it can sit on a zero-allocation
    call path. *)
module Lat : sig
  type t

  val create : unit -> t
  val record : t -> int -> unit
  val count : t -> int

  val percentile_ns : t -> float -> float
  (** Nearest-rank percentile [p] (0..100), reported as the midpoint of
      the bucket holding it ([nan] when empty). *)

  val merge_into : dst:t -> t -> unit
end
