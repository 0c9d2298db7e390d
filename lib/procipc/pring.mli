(** Flat bounded rings over shared arena words — the cross-process
    siblings of [Ulipc_real.Spsc_ring]/[Mpsc_ring], with the same
    layout (one (seq, value) word pair per slot, power-of-two slot
    count, exact capacity) and the same one-shared-line rule
    ({!Ulipc_real.Ring_layout}): the consumer polls the cell and writes
    only its own index, and a producer reads the consumer's index only
    when its per-process snapshot says the ring is full.  Publishes are
    fenceless single-writer stores (see pring.ml for the MAP_SHARED TSO
    argument); values are non-negative immediates with [-1] as empty.

    Constructors carve their span out of the arena and must run
    pre-fork; the record a child inherits keeps working because it
    names word {e offsets}, not pointers. *)

val nil : int
(** [-1], the empty-dequeue sentinel. *)

val span_words : ring:int -> int
(** Arena words one ring of [ring] slots carves (before cache-line
    alignment): two index lines plus [2 * ring] cell words.  For the
    session's arena sizing. *)

(** Single producer / single consumer: one client's reply ring. *)
module Spsc : sig
  type t

  val create : Parena.t -> capacity:int -> t
  (** @raise Invalid_argument if [capacity <= 0] or the arena is full. *)

  val capacity : t -> int

  val enqueue : t -> int -> bool
  (** [false] when full (exact against the logical capacity).
      @raise Invalid_argument on a negative value. *)

  val dequeue : t -> int
  (** The oldest value, or {!nil} when empty. *)

  val is_empty : t -> bool
  (** Lock-free hint, same snapshot invariant as
      [Ulipc_real.Spsc_ring.is_empty]: reads the consumer-advanced
      [tail] BEFORE the producer's [head], so a racing dequeue can never
      make an occupied ring look empty.  The dequeue itself polls the
      cell, never [head]. *)

  val length : t -> int
  (** Racy but conservative occupancy snapshot (consumer index first):
      may over-report against a racing consumer — the stale [tail] only
      under-counts consumption, the later [head] only grows — and is
      never negative (clamped at 0 for the instant a taken message's
      [head] store is still in flight).  The telemetry sampler's cross-process ring-depth
      gauge. *)
end

(** Multi producer / single consumer: the server's request ring.
    Producers check room against a per-process snapshot of the
    consumer's [head], then claim slots by a ticket CAS on a shared
    word; per-slot sequence words distinguish claimed-but-unfilled from
    ready, and the consumer never writes them back. *)
module Mpsc : sig
  type t

  val create : Parena.t -> capacity:int -> t
  (** @raise Invalid_argument if [capacity <= 0] or the arena is full. *)

  val capacity : t -> int

  val enqueue : t -> int -> bool
  (** [false] when full; may transiently report full while the consumer
      is mid-dequeue — callers retry, as for a genuinely full ring.
      @raise Invalid_argument on a negative value. *)

  val dequeue : t -> int
  (** Single consumer only. *)

  val is_empty : t -> bool
  (** Lock-free hint, roles swapped from {!Spsc.is_empty} (here the
      single consumer advances [head]): reads [head] BEFORE the
      producers' ticket [tail], so a racing dequeue can never make an
      occupied ring look empty.  Counts claimed-but-unfilled slots as
      present. *)

  val length : t -> int
  (** Racy but conservative occupancy snapshot (consumer index first,
      including claimed slots): may over-report against a racing
      consumer, never negative. *)
end
