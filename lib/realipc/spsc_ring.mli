(** Bounded lock-free single-producer/single-consumer ring over shared
    arena words.

    Two-word cells — a tag holding the client and a sequence number,
    and the payload word — and monotonically increasing head/tail
    indices on
    separate cache lines, all of them words of a {!Word_arena}, under
    {!Ring_layout}'s one-shared-line rule: the consumer polls the cell
    at its index for a ready sequence number, copies the message out and
    publishes only its own index, never reading [head]; the producer
    re-reads the consumer's index only when its snapshot says the ring
    looks full.  A steady-state hop moves the cell's line and nothing
    else: the message rides in it.  Since no state a peer must see lives
    in the OCaml heap, the same ring serves two domains or two fork'd
    processes.

    Both message words are {e immediate ints}: any int is a valid word
    — readiness is the sequence number's alone, so no word acts as a
    sentinel — and a client is any int in [[-2^42, 2^42)] (it shares
    the tag with the sequence number; {!Ring_layout}).  The
    per-operation cost is a few plain unboxed word stores: no mutex, no
    per-message node, no ['a option] box, no write barrier, zero heap
    allocation.

    A further Torquati (TR-10-20) refinement, {e temporal slipping}:
    {!enqueue_batch} writes its span backward (highest slot first), so
    the cell the consumer polls is made ready last and the producer is
    done with the span's cache lines before the consumer walks them.

    The session's reply channels are SPSC {e by construction} (the
    server is the only producer, the owning client the only consumer),
    which is what makes this the right transport for them.  Behaviour
    is undefined if two domains produce, or two consume, concurrently —
    use {!Mpsc_ring} there.

    FIFO; an enqueue returns [false] exactly when [capacity] messages
    are in flight, and a dequeue reports an empty ring. *)

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
    starts (a fork'd session carves pre-fork; children inherit word
    offsets, not pointers).
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
(** [false] when the queue is full.  Producer side only. *)

val dequeue_into : t -> int array -> int -> bool
(** [dequeue_into q dst pos] copies the oldest message into
    [dst.(pos)] (client) and [dst.(pos + 1)] (word), then releases its
    cell; [false] when the ring is empty ([dst] untouched).  Consumer
    side only.  Allocation-free.
    @raise Invalid_argument if [pos, pos + 1] is outside [dst]. *)

(** {1 One-word messages} *)

val nil : int
(** [-1]: {!dequeue}'s empty sentinel; never a valid element. *)

val enqueue : t -> int -> bool
(** [enqueue q v] is [enqueue_pair q ~client:0 ~word:v], for callers
    with one value per message.
    @raise Invalid_argument on a negative value (it would read as
    {!nil}). *)

val dequeue : t -> int
(** The oldest message's word, or {!nil} when the ring is empty.
    Consumer side only.  Allocation-free. *)

(** {1 Batch operations}

    A span is a run of messages in a flat [int array] of pairs: message
    [i] of the span at [pos] is [(span.(2 * (pos + i)),
    span.(2 * (pos + i) + 1))]. *)

val enqueue_batch : t -> int array -> pos:int -> len:int -> int
(** [enqueue_batch q span ~pos ~len] enqueues a prefix of the [len]
    messages at [pos], filling the ring backward and publishing [head]
    once, and returns how many were accepted — observationally n single
    {!enqueue_pair}s (same FIFO order, same exact capacity boundary) at
    one shared-index store per batch.  Never blocks; [0] when the ring
    is full.  Producer side only.
    @raise Invalid_argument on a bad span. *)

val dequeue_batch : t -> int array -> pos:int -> max:int -> int
(** [dequeue_batch q buf ~pos ~max] dequeues up to [max] messages into
    the span of [buf] at [pos] (FIFO order), stopping at the first cell
    that is not ready and releasing the whole span with a single [tail]
    store, and returns the count.  Consumer side only.
    Allocation-free.
    @raise Invalid_argument on a negative [max] or a bad span. *)

val is_empty : t -> bool
(** Lock-free hint, as used by polling loops: two index loads, [tail]
    before [head] so a concurrent dequeue can never make an occupied ring
    look empty.  [head] is published after the cell, so a message whose
    cell is ready but whose [head] store is still in flight may read as
    absent for that instant. *)

val length : t -> int
(** Racy but conservative snapshot of the element count: may over-report
    occupancy against a racing consumer, never negative (clamped at 0
    for the instant a consumer has taken a message whose [head] store
    is not yet visible). *)
