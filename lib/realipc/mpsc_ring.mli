(** Bounded lock-free multi-producer/single-consumer ring over shared
    arena words.

    Vyukov's bounded queue specialised to one consumer: producers claim
    slots by CAS on a tail ticket, a per-slot sequence number says
    whether a slot holds the current lap's message, and the single
    consumer advances head with plain stores and never writes a cell
    back — no lock, no per-message node.  Tail and head tickets sit on
    separate cache lines.

    Each slot is a two-word cell — a tag holding the client and the
    sequence number, then the payload word — so a message moves one
    cache line from producer to consumer, payload included: no
    ['a option] box, no write barrier, zero heap allocation per
    operation.  Both message words are immediates; any int is a valid
    word, since readiness is the sequence number's alone, and a client
    is any int in [[-2^42, 2^42)] ({!Ring_layout}).  Producers check room
    against a shared snapshot of the consumer's index and re-read the
    index only when the snapshot says the ring is full ({!Ring_layout}'s
    one-shared-line rule).  Every index, the snapshot and every cell is
    a word of a {!Word_arena}, so producers and the consumer may be
    domains or fork'd processes alike.

    This is the transport for the session's shared request queue: every
    client (and {!Rpc.post}) produces, only the server consumes.
    Behaviour is undefined if two domains or processes consume
    concurrently.

    When quiescent: FIFO per producer, an enqueue returns [false]
    exactly when [capacity] messages are in flight, a dequeue reports an
    empty ring.  Under
    concurrency, an enqueue may transiently report full (while the
    consumer is mid-dequeue) and a dequeue may transiently report empty
    (while a producer is mid-enqueue); callers retry, as all the
    protocol loops already do. *)

type t

val create : capacity:int -> unit -> t
(** A ring in an arena of its own.  The slot count is the capacity
    rounded up to a power of two, but the flow-control boundary is
    checked against [capacity] exactly.
    @raise Invalid_argument unless [1 <= capacity <= 2^19].
    @raise Failure if the arena cannot be mapped (see
    {!Word_arena.create}). *)

val carve : Word_arena.t -> capacity:int -> t
(** {!create}, but carved out of a session's arena, before any peer
    starts.
    @raise Invalid_argument unless [1 <= capacity <= 2^19], or if the
    arena is full. *)

val arena_words : capacity:int -> int
(** An upper bound on the arena words {!carve} takes, alignment
    included: for sizing a session's arena. *)

val carve_lane : Word_arena.t -> capacity:int -> cells:int -> t
(** {!carve}, but on one lane of a cell region the caller carved from
    the same arena: a region of {!Ring_layout.region_words}
    line-aligned words holds two rings of [capacity], one with [cells]
    at its base and one at its base plus {!Ring_layout.second_lane},
    and cell [i] of both is in one line.  Only the ring's index lines
    are carved here.
    @raise Invalid_argument unless [1 <= capacity <= 2^19], or if the
    arena is full. *)

val lane_arena_words : int
(** An upper bound on the arena words {!carve_lane} takes (its index
    lines), alignment included. *)

val capacity : t -> int

val enqueue_pair : t -> client:int -> word:int -> bool
(** [false] when the queue is full.  Any number of concurrent producers;
    lock-free (a failed ticket race retries, but some producer always
    progresses). *)

val dequeue_into : t -> int array -> int -> bool
(** [dequeue_into q dst pos] copies the oldest ready message into
    [dst.(pos)] (client) and [dst.(pos + 1)] (word), then releases its
    cell; [false] when none is ready ([dst] untouched).  Consumer side
    only.  Allocation-free.
    @raise Invalid_argument if [pos, pos + 1] is outside [dst]. *)

(** {1 One-word messages} *)

val nil : int
(** [-1]: {!dequeue}'s empty sentinel; never a valid element. *)

val enqueue : t -> int -> bool
(** [enqueue q v] is [enqueue_pair q ~client:0 ~word:v].
    @raise Invalid_argument on a negative value (it would read as
    {!nil}). *)

val dequeue : t -> int
(** The oldest ready message's word, or {!nil} when none is.  Consumer
    side only.  Allocation-free. *)

(** {1 Batch operations}

    Spans are flat [int array]s of pairs, as for
    {!Spsc_ring.enqueue_batch}: message [i] of the span at [pos] is
    [(span.(2 * (pos + i)), span.(2 * (pos + i) + 1))]. *)

val enqueue_batch : t -> int array -> pos:int -> len:int -> int
(** [enqueue_batch q span ~pos ~len] enqueues a prefix of the [len]
    messages at [pos], claiming the whole span of tickets with a single
    tail CAS, and returns how many were accepted — observationally n
    single {!enqueue_pair}s (FIFO, exact capacity boundary), at one
    contended CAS per batch instead of one per message.  Never blocks;
    [0] when full.  Safe under any number of concurrent producers.
    @raise Invalid_argument on a bad span. *)

val dequeue_batch : t -> int array -> pos:int -> max:int -> int
(** [dequeue_batch q buf ~pos ~max] dequeues every ready message up to
    [max] into the span of [buf] at [pos] (FIFO), publishing the
    consumer index once per batch, and returns the count.  Consumer side
    only.  Allocation-free.
    @raise Invalid_argument on a negative [max] or a bad span. *)

val is_empty : t -> bool
(** Lock-free hint, as used by polling loops: two index loads, [head]
    before [tail] so a concurrent dequeue can never make an occupied ring
    look empty.  Counts claimed-but-unfilled slots as present. *)

val length : t -> int
(** Racy but conservative snapshot of the element count (including
    claimed slots): may over-report occupancy against a racing consumer,
    never negative. *)
