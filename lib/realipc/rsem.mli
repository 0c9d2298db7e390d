(** Counting semaphore with an atomic fast path and a waiting-array
    slow path.

    The portable stand-in for the System V semaphores the paper blocks
    on, built the way a futex-based semaphore is: the count lives in one
    [Atomic.t] (negative values record waiters), so uncontended {!v} and
    {!p} are a single atomic read-modify-write and never take a lock.
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
    and sleeps on the ticket's private cache-padded slot (its own
    Mutex/Condition pair); a V that owes a wake claims the matching
    grant ticket and writes the credit straight into that slot.  So the
    V path takes {e no} semaphore-wide lock, every wake is directed at
    exactly the waiter it releases, and ticket order makes the
    semaphore starvation-free — grant [g] can only release park ticket
    [g], the oldest waiter not yet served.  Only when parked waiters
    outnumber the array's slots do generations share a slot and grants
    degrade to (counted) per-slot broadcasts.

    Between the two, a {!p} that finds no credit may spin for a
    time-bounded, preemption-aware grace before it parks ({!Grace.run}
    polling {!try_p}).  The channel semaphores of the real backends are
    created with [~spin:0] and park at once: the protocol core's
    consumer has already waited out the same grace on its queue, with
    its awake flag still set, before it reaches P. *)

type t

val create : ?spin:int -> ?slots:int -> int -> t
(** [create count] with the given initial count.  [spin] is the grace in
    nanoseconds that a {!p} finding no credit spins on the count before
    parking; it defaults to {!Grace.default} ({!Grace.grace_ns} on a
    multiprocessor, [0] on a uniprocessor, where spinning can only delay
    the poster).  [~spin:0] parks at once.  The grace ends early when
    the spinning domain is descheduled (see {!Grace.stop_spinning}).
    [slots] is a hint for the expected concurrently-parked population
    (rounded up to a power of two, default 8): with at most [slots]
    waiters parked at once every wake is a directed single signal,
    beyond that slots are shared and grants broadcast per slot.  The
    flag starts clear.
    @raise Invalid_argument on a negative initial count or spin bound,
      or a non-positive [slots]. *)

val p : t -> unit
(** Down: block while the count is zero, then decrement.  Uncontended
    (count positive): one load and one CAS, no lock and no clock read.
    Otherwise it spins out the grace, then parks.  Allocation-free on
    every path. *)

val try_p : t -> bool
(** Non-blocking down: decrement and return [true] if the count is
    positive, return [false] (without waiting) if it is zero.  The
    Figure 5 consumer drains a raced wake-up with this after its second
    dequeue succeeds (Interleaving 3), where a blocking P could not be
    used speculatively.  Never registers as a waiter. *)

val v : t -> unit
(** Up: increment and wake one waiter — a single directed signal into
    the oldest claimed slot, never a broadcast (unless that slot is
    shared).  Uncontended (no waiter): one atomic add, no lock, no
    signal. *)

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
    claimed, not yet released).  Read from a dedicated [Atomic.t], so
    the value is never a torn read — it is exact at quiescence and at
    any instant a consistent count of committed waiters. *)

val parks : t -> int
(** Cumulative slow-path entries: how many P's ever claimed a park
    ticket (monotone).  With {!grants} this exposes the waiting-array
    traffic to the counters seam. *)

val grants : t -> int
(** Cumulative credits delivered into the waiting array by V's
    (monotone); [parks t - grants t] never exceeds the population still
    parked. *)

val array_size : t -> int
(** The waiting array's slot count (the rounded-up [slots] hint). *)

val slot_waits : t -> int array
(** Per-slot cumulative park counts, each read under its slot's mutex:
    the occupancy histogram of the waiting array (flat when the FIFO
    tickets rotate through the array, as they should). *)

val shared_slot_broadcasts : t -> int
(** How many grants found sleepers of more than one generation sharing
    the slot and had to broadcast — 0 whenever the concurrently-parked
    population stays within {!array_size}. *)
