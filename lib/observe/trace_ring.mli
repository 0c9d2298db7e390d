(** Bounded per-actor event rings: the one event recorder of every
    substrate.

    A sink hands every recording actor its own fixed-size ring, so the
    hot path is three plain int-array stores with no synchronisation —
    and {e no heap allocation}: the rings are flat parallel int arrays
    (timestamp in nanoseconds, kind tag, channel), so attaching a sink
    does not put minor-heap traffic on the zero-allocation message
    plane it observes.  When a ring is full its oldest events are
    overwritten, keeping the last [capacity] events per actor and
    counting the rest as dropped.  Drain with {!events} after the
    traffic has quiesced (all recording domains joined); boxed
    {!Event.t} records are built only then.

    An actor finds its ring one of two ways:
    - {!record}/{!record_at}: the calling domain's ring, through
      domain-local storage (registered on first use); the actor is
      [Domain.self] and the timestamp CLOCK_MONOTONIC ({!Clock}).  The
      real backends record this way.
    - {!record_as}: an explicit actor with an explicit timestamp, for a
      single writer domain recording on behalf of many actors.  The
      simulator records this way, with proc ids and simulated time.
      One sink should be written one way only: a domain id and an
      explicit actor of the same number would share a sequence.

    Each ring stamps a private sequence number, so the cross-actor merge
    is deterministic. *)

type t

val create : ?capacity:int -> unit -> t
(** A fresh sink; each recording actor gets its own ring of [capacity]
    events (default 4096).
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val record : t -> Event.kind -> chan:int -> unit
(** Append one event stamped [Clock.now_ns ()] to the calling domain's
    ring (lazily created).  Allocation-free after the ring exists. *)

val record_at : t -> Event.kind -> t_ns:int -> chan:int -> unit
(** Like {!record} with a caller-supplied timestamp — for pre-operation
    stamps taken before the recorded effect was attempted, so the merged
    stream never orders an effect before its cause. *)

val record_as : t -> Event.kind -> actor:int -> t_ns:int -> chan:int -> unit
(** Append one event to [actor]'s ring (created on its first event).
    Not synchronised: every [record_as] on one sink must come from the
    same domain. *)

val events : t -> Event.t list
(** All retained events, merged across actors and sorted by
    [(t_us, actor, seq)] — equal timestamps tie-break on (actor,
    sequence), so the merge is deterministic.  Only meaningful once
    every recording domain has been joined. *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overwrite, summed over actors. *)
