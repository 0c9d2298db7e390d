(** Bounded lock-free single-producer/single-consumer ring over a flat
    int array.

    A preallocated [int array] of (seq, value) word pairs with
    monotonically increasing head/tail indices on separate
    cache-line-padded atomics ({!Padding}), under {!Ring_layout}'s
    one-shared-line rule: the consumer polls the cell at its index for a
    ready sequence number and publishes only its own index, never
    reading [head]; the producer re-reads the consumer's index only when
    its private snapshot says the ring looks full.  A steady-state hop
    moves the cell's line and nothing else.

    The ring carries {e non-negative immediate ints} — slab slot
    indices on the message plane ({!Slab}) — so the per-operation cost
    is a few plain unboxed word stores: no mutex, no per-message node,
    no ['a option] box, no write barrier, zero heap allocation.  [-1] is
    the dequeue-side empty sentinel; enqueueing a negative value
    raises.

    Two further Torquati (TR-10-20) refinements:

    - {e multipush}: {!enqueue_local} accumulates values in a
      producer-private buffer (at most [min 8 capacity]) and {!flush}
      publishes the whole span at once — batch-grade traffic without a
      caller-assembled batch;
    - {e temporal slipping}: flushed spans are written backward
      (highest slot first), so the cell the consumer polls is made
      ready last and the producer is done with the span's cache lines
      before the consumer walks them.

    The session's reply channels are SPSC {e by construction} (the
    server is the only producer, the owning client the only consumer),
    which is what makes this the right transport for them.  Behaviour
    is undefined if two domains produce, or two consume, concurrently —
    use {!Mpsc_ring} or {!Tl_queue} there.

    Same observable semantics as {!Tl_queue}: FIFO, [enqueue] returns
    [false] exactly when [capacity] messages are in flight, [dequeue]
    returns {!nil} when empty. *)

type t

val nil : int
(** [-1]: {!dequeue}'s empty sentinel; never a valid element. *)

val create : capacity:int -> unit -> t
(** The slot array is the capacity rounded up to a power of two, but the
    flow-control boundary is checked against [capacity] exactly.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val enqueue : t -> int -> bool
(** [false] when the queue is full.  Producer side only.  Values must be
    non-negative.  Flushes any {!enqueue_local} leftovers first, so FIFO
    order holds across mixed use ([false] then means the flush itself
    found no room and nothing was accepted).
    @raise Invalid_argument on a negative value. *)

val dequeue : t -> int
(** The oldest value, or {!nil} when the ring is empty.  Consumer side
    only.  Allocation-free. *)

(** {1 Multipush} *)

val enqueue_local : t -> int -> bool
(** Append to the producer-private buffer, auto-flushing when it holds
    [min 8 capacity] values.  [true] means the value is accepted
    (buffered or published — buffered values are invisible to the
    consumer until a {!flush} succeeds, so publish before waking);
    [false] means buffer and ring are both full: flush later and retry.
    Producer side only.
    @raise Invalid_argument on a negative value. *)

val flush : t -> bool
(** Publish every buffered value with one index store, writing the
    span backward (temporal slipping).  All or nothing: [false]
    when the ring lacks room for the whole span, which stays buffered.
    [true] when the buffer is (now) empty.  Producer side only. *)

val pending_local : t -> int
(** Buffered-but-unpublished value count.  Producer side only. *)

(** {1 Batch operations} *)

val enqueue_batch : t -> int array -> pos:int -> len:int -> int
(** [enqueue_batch q vs ~pos ~len] enqueues a prefix of
    [vs.(pos .. pos+len-1)], filling the span backward and publishing
    [head] once, and returns how many values were accepted —
    observationally n single {!enqueue}s (same FIFO order, same exact
    capacity boundary) at one shared-index store per batch.  The span
    length is a parameter, not a list traversal.  Never blocks; [0]
    when the ring is full (or when multipush leftovers could not be
    flushed first).  Producer side only.
    @raise Invalid_argument on a bad span or a negative value. *)

val dequeue_batch : t -> int array -> pos:int -> max:int -> int
(** [dequeue_batch q buf ~pos ~max] dequeues up to [max] values into
    [buf.(pos ..)] (FIFO order), stopping at the first cell that is not
    ready and releasing the whole span with a single [tail] store, and
    returns the count.  Consumer side only.
    Allocation-free.
    @raise Invalid_argument on a bad span. *)

val is_empty : t -> bool
(** Lock-free hint, as used by polling loops: two index loads, [tail]
    before [head] so a concurrent dequeue can never make an occupied ring
    look empty.  [head] is published after the cell, so a message whose
    cell is ready but whose [head] store is still in flight may read as
    absent for that instant.  Unflushed multipush values are not counted
    (they are not yet published). *)

val length : t -> int
(** Racy but conservative snapshot of the element count: may over-report
    occupancy against a racing consumer, never negative (clamped at 0
    for the instant a consumer has taken a message whose [head] store
    is not yet visible). *)
