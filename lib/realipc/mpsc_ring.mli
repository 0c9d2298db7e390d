(** Bounded lock-free multi-producer/single-consumer ring over one flat
    array.

    Vyukov's bounded queue specialised to one consumer: producers claim
    slots by CAS on a tail ticket, per-slot sequence numbers mark each
    slot free / filled / consumed for the current lap, and the single
    consumer advances head with plain stores — no lock, no per-message
    node.  Tail and head tickets live on separate cache-line-padded
    atomics ({!Padding}).

    The ring carries {e non-negative immediate ints} (slab slot indices
    on the message plane, {!Slab}).  Each slot is two adjacent words of
    one flat [int array] — its sequence, then its value — so a message
    moves one cache line from producer to consumer: no ['a option] box,
    no per-slot [Atomic.t], no write barrier, zero heap allocation per
    operation.  A producer reads the consumer's index only when the
    capacity is below the power-of-two slot count; otherwise the
    sequence check alone is the exact full test.  [-1] is the
    dequeue-side empty sentinel; enqueueing a negative value raises.

    This is the transport for the session's shared request queue: every
    client (and {!Rpc.post}) produces, only the server consumes.
    Behaviour is undefined if two domains consume concurrently.

    Same observable semantics as {!Tl_queue} when quiescent: FIFO per
    producer, [enqueue] returns [false] exactly when [capacity] messages
    are in flight, [dequeue] returns {!nil} when empty.  Under
    concurrency, [enqueue] may transiently report full (while the
    consumer is mid-dequeue) and [dequeue] may transiently report empty
    (while a producer is mid-enqueue); callers retry, as all the
    protocol loops already do. *)

type t

val nil : int
(** [-1]: {!dequeue}'s empty sentinel; never a valid element. *)

val create : capacity:int -> unit -> t
(** The slot array is the capacity rounded up to a power of two, but the
    flow-control boundary is checked against [capacity] exactly.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val enqueue : t -> int -> bool
(** [false] when the queue is full.  Any number of concurrent producers;
    lock-free (a failed ticket race retries, but some producer always
    progresses).
    @raise Invalid_argument on a negative value. *)

val dequeue : t -> int
(** The oldest ready value, or {!nil} when none is.  Consumer side only.
    Allocation-free. *)

val enqueue_batch : t -> int array -> pos:int -> len:int -> int
(** [enqueue_batch q vs ~pos ~len] enqueues a prefix of
    [vs.(pos .. pos+len-1)], claiming the whole span of tickets with a
    single tail CAS, and returns how many values were accepted —
    observationally n single {!enqueue}s (FIFO, exact capacity
    boundary), at one contended CAS per batch instead of one per
    message.  The span length is a parameter, not a list traversal.
    Never blocks; [0] when full.  Safe under any number of concurrent
    producers.
    @raise Invalid_argument on a bad span or a negative value. *)

val dequeue_batch : t -> int array -> pos:int -> max:int -> int
(** [dequeue_batch q buf ~pos ~max] dequeues every ready value up to
    [max] into [buf.(pos ..)] (FIFO), publishing the consumer index once
    per batch, and returns the count.  Consumer side only.
    Allocation-free.
    @raise Invalid_argument on a bad span. *)

val is_empty : t -> bool
(** Lock-free hint, as used by polling loops: two atomic loads, [head]
    before [tail] so a concurrent dequeue can never make an occupied ring
    look empty.  Counts claimed-but-unfilled slots as present. *)

val length : t -> int
(** Racy but conservative snapshot of the element count (including
    claimed slots): may over-report occupancy against a racing consumer,
    never negative. *)
