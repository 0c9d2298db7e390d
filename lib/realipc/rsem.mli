(** Counting semaphore with an atomic fast path and a futex-backed
    waiting array, on {!Word_arena} words: the one blocking primitive of
    both real backends.

    The stand-in for the System V semaphores the paper blocks on, built
    the way a futex-based semaphore is: the count lives in one arena
    word (negative values record waiters), so uncontended {!v} and {!p}
    are a single atomic read-modify-write and never enter the kernel.
    Counting semantics matter: the sleep/wake-up protocols rely on a V
    posted before the P remaining pending (§3, Interleaving 1).

    The count word also carries one {e flag} bit ([word = 2*count +
    flag]): the awake flag of the channel consumer that Ps here.  Both
    halves of a wake-up — the producer's test-and-set and V, the
    consumer's P and flag set — then hit one cache line.  The flag
    writes ({!flag_test_and_set}, {!flag_clear}, {!flag_set}) are each
    a CAS that writes the word even when the bit is unchanged, so each
    is a full barrier: the protocol needs the producer's enqueue to be
    visible before its test-and-set reads the flag, and the consumer's
    clear before its second dequeue reads the queue.  A semaphore whose
    users never touch the flag behaves exactly as one without it.

    The contended path is a waiting array (Dice & Kogan, "Semaphores
    Augmented with a Waiting Array"): a parking P claims a FIFO ticket
    and sleeps in [FUTEX_WAIT] on the ticket's slot, one arena word per
    slot that counts the slot's grants; a V that owes a wake claims the
    matching grant ticket, adds one to that word and issues
    [FUTEX_WAKE] on it.  So the V path takes no lock, every wake is
    directed at exactly the slot of the waiter it releases, and ticket
    order makes the semaphore starvation-free — grant [g] can only
    release park ticket [g], the oldest waiter not yet served.  Only
    when parked waiters outnumber the array's slots do generations
    share a slot and a grant wake (counted) more than one sleeper.

    Every word is shared memory and the record holds only offsets, so a
    semaphore carved before [fork] works between the fork'd processes
    exactly as between domains, and so does one from {!create}.

    Between the fast path and the park, a {!p} that finds no credit may
    spin for a time-bounded, preemption-aware grace ({!Grace.run}
    polling {!try_p}).  The channel semaphores of the real backends are
    carved with [~spin:0] and park at once: the protocol core's
    consumer has already waited out the same grace on its queue, with
    its awake flag still set, before it reaches P. *)

type t

val carve : ?spin:int -> Word_arena.t -> int -> t
(** [carve a count]: a semaphore with the given initial count on words
    carved from [a] ({!arena_words} of them at most), which must be
    fresh (zero).  Carve before forking: the children's copies of the
    record address the same shared words.  [spin] as for {!create};
    the waiting array has {!create}'s default 8 slots.
    @raise Invalid_argument as {!create} does, or when [a] is
      exhausted. *)

val arena_words : unit -> int
(** Arena words one {!carve} takes, alignment padding included — what
    a session adds to its arena size per semaphore. *)

val create : ?spin:int -> ?slots:int -> int -> t
(** [create count] with the given initial count, on an arena of its
    own.  [spin] is the grace in
    nanoseconds that a {!p} finding no credit spins on the count before
    parking; it defaults to {!Grace.default} ({!Grace.grace_ns} on a
    multiprocessor, [0] on a uniprocessor, where spinning can only delay
    the poster).  [~spin:0] parks at once.  The grace ends early when
    the spinning domain is descheduled (see {!Grace.stop_spinning}).
    [slots] is a hint for the expected concurrently-parked population
    (rounded up to a power of two, default 8): with at most [slots]
    waiters parked at once every wake is a directed single signal,
    beyond that slots are shared and a grant wakes every sleeper of its
    slot.  The flag starts clear.
    @raise Invalid_argument on a negative initial count or spin bound,
      or a non-positive [slots]. *)

val p : t -> unit
(** Down: block while the count is zero, then decrement.  Uncontended
    (count positive): one load and one CAS, no lock and no clock read.
    Otherwise it spins out the grace, then parks.  Allocation-free on
    every path. *)

val p_timed : t -> timeout_ns:int -> bool
(** {!p} bounded by a deadline: [false] if no credit could be taken
    within [timeout_ns] — the dead-peer detection primitive.  It never
    registers as a waiter: it polls {!try_p} through the
    {!Grace.backoff} ladder until the deadline, so a timed P that gives
    up leaves no ticket behind for a later grant to strand on.  The
    price is a poll, not a kernel sleep: once the ladder reaches its
    parks, a V is noticed up to one park (at most 50 µs) late, and a
    caller that waits out its whole timeout wakes up to ~20 000 times a
    second.  Its one caller is the fork'd server's dead-peer guard. *)

val try_p : t -> bool
(** Non-blocking down: decrement and return [true] if the count is
    positive, return [false] (without waiting) if it is zero.  The
    Figure 5 consumer drains a raced wake-up with this after its second
    dequeue succeeds (Interleaving 3), where a blocking P could not be
    used speculatively.  Never registers as a waiter. *)

val v : t -> unit
(** Up: increment and wake one waiter — one grant and one [FUTEX_WAKE]
    on the oldest claimed ticket's slot.  Uncontended (no waiter): one
    atomic add and no system call. *)

val value : t -> int
(** Racy snapshot of the credit count (0 while waiters are parked), for
    tests and residue accounting.  Never shows the flag. *)

(** {2 The flag bit}

    Independent of the count: no flag operation adds or takes a credit,
    and no V or P changes the flag. *)

val flag_test_and_set : t -> bool
(** Set the flag and return its previous value, with one CAS that
    always writes (a full barrier) — the producer's [tas] on the
    consumer's awake flag. *)

val flag_clear : t -> unit
(** Clear the flag with one always-writing CAS (a full barrier). *)

val flag_set : t -> unit
(** Set the flag with one always-writing CAS (a full barrier). *)

val flag_get : t -> bool
(** Plain load of the flag. *)

val parked : t -> int
(** Number of waiters currently committed to the waiting array (ticket
    claimed, not yet released).  Read from a dedicated word, so the
    value is never a torn read — it is exact at quiescence and at any
    instant a consistent count of committed waiters. *)

val parks : t -> int
(** Cumulative slow-path entries: how many P's ever claimed a park
    ticket (monotone), from every domain and process that shares the
    semaphore.  With {!grants} this exposes the waiting-array traffic
    to the counters seam. *)

val grants : t -> int
(** Cumulative credits delivered into the waiting array by V's
    (monotone); [parks t - grants t] never exceeds the population still
    parked. *)

val array_size : t -> int
(** The waiting array's slot count (the rounded-up [slots] hint). *)

val slot_waits : t -> int array
(** Per-slot cumulative park counts: the occupancy histogram of the
    waiting array (flat when the FIFO tickets rotate through the array,
    as they should). *)

val shared_slot_broadcasts : t -> int
(** How many grants woke more than one sleeper: sleepers of several
    generations sharing the slot — 0 whenever the concurrently-parked
    population stays within {!array_size}. *)
