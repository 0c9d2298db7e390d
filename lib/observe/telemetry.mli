(** Live telemetry plane: a registry of wait-free instruments sampled
    into a {!Series} ring of timestamped frames.

    Three instrument kinds cover the drivers' needs:

    - {b Counters} ({!counter}/{!add}/{!incr}): monotonic totals bumped
      with one [Atomic.fetch_and_add]; each frame carries the per-window
      delta under the counter's name.
    - {b Gauges} ({!gauge}): point-in-time callbacks (ring depth, slab
      occupancy) read at frame time; a raising gauge reads
      as [nan] rather than killing the sampler.
    - {b External counter batches} ({!ext_counters}): a callback
      returning monotonic [(name, total)] pairs — e.g. a
      [Counters.snapshot] flattened with [Counters.to_fields], or
      arena words summed across fork'd children.  The sampler diffs
      each name against its previous total, so frames again carry
      deltas.
    - {b Windowed histograms} ({!whist}/{!record}): double-buffered
      log-bucketed {!Histogram}s, one pair per recording domain
      (registered lazily via DLS).  {!record} is one DLS read, one
      [Atomic.get], and a plain [Histogram.record] — no locks.  At each
      frame the sampler flips the epoch, merges every domain's retired
      buffer ([Histogram.merge_into]) into the window and the
      cumulative total, and resets it; the frame carries
      [name_count]/[name_p50]/[name_p99]/[name_max] ([nan] quantiles on
      an empty window).  The flip race is bounded: at most one
      in-flight record per writer per flip may be lost, double-counted,
      or slide one window — window counts are conservative, totals
      drift by at most [writers] samples per flip.

    Sampling is {!tick}, called by the driver that owns the run — the
    echo driver ticks inline while it waits for its peers, since a
    process that forks them must not have spawned a sampler domain.  A
    last tick after the run closes the partial window, so summed
    per-window deltas equal the instruments' totals exactly.

    Registration is mutex-guarded and may happen at any time, but
    {!tick} must only ever have one caller at a time (the sampler). *)

type t

val create :
  ?interval_ms:float ->
  ?capacity:int ->
  ?on_frame:(Series.frame -> unit) ->
  unit ->
  t
(** [create ()] is an empty registry.  [interval_ms] (default 10.0) is
    the sampling period its driver ticks at; [capacity] bounds the frame ring
    (see {!Series.create}); [on_frame] is invoked after each frame is
    pushed — from {!tick}'s caller — which is how [ulipc_top] renders
    live.  @raise Invalid_argument on non-positive [interval_ms]. *)

val interval_ms : t -> float
val series : t -> Series.t
val frames : t -> Series.frame list

(** {2 Instruments} *)

type counter

val counter : t -> string -> counter
val add : counter -> int -> unit
val incr : counter -> unit
val counter_value : counter -> int

val gauge : t -> string -> (unit -> float) -> unit
val ext_counters : t -> (unit -> (string * int) list) -> unit

type whist

val whist :
  ?lo:float -> ?decades:int -> ?buckets_per_decade:int -> t -> string -> whist
(** Bucket geometry defaults match {!Histogram.create}. *)

val record : whist -> float -> unit
(** Wait-free; safe from any domain concurrently with sampling. *)

val whist_cumulative : whist -> Histogram.t
(** Merge of every window sampled so far (records still sitting in the
    active buffer are not yet included; the next {!tick} folds them
    in). *)

(** {2 Sampling} *)

val tick : t -> Series.frame
(** Take one sample now: flip windowed histograms, diff counters, read
    gauges, push (and return) the frame.  Single-caller only. *)

val to_prometheus : t -> string
(** Prometheus text exposition: counters as [ulipc_<name>_total],
    gauges as [ulipc_<name>], windowed histograms as summaries
    (quantiles 0.5/0.9/0.99 plus [_sum]/[_count]) over the cumulative
    distribution. *)
