(** The substrate a sleep/wake-up protocol runs on.

    The paper's protocols (Figures 4/5/7/9) are one algorithm whose
    behaviour is determined entirely by four primitives underneath it: a
    bounded FIFO queue, the consumer's awake flag with an atomic
    test-and-set, a counting semaphore, and the scheduling hints
    ([busy_wait]/[poll]/[yield]/[handoff]).  This signature names exactly
    those primitives, plus the bounded wait on the queue ([await]) a
    real consumer makes before it clears its flag, the session shape
    (one request channel, one reply channel per client) and a shared
    {!Counters} sink, so that
    {!Protocol_core.Make} can derive every protocol once and run it
    unchanged over the simulator ({!Sim_substrate}) and over real OCaml 5
    domains ([Ulipc_real.Real_substrate]) — or over any third backend that
    provides these operations. *)

module type S = sig
  type t
  (** The per-session environment: owns the channels and the counters. *)

  type channel
  (** One direction of traffic: a queue plus the sleep/wake-up state
      (awake flag and semaphore) of its unique consumer. *)

  type msg
  (** What the queues carry. *)

  val no_msg : msg
  (** The "no message" sentinel {!dequeue} returns on an empty queue —
      a distinguished value compared with physical equality ([==]), so
      substrates whose messages are immediates (the real backend passes
      slab slot indices, with [no_msg = -1]) report emptiness without
      allocating an option, and substrates with boxed messages use one
      distinguished block.  [no_msg] must never be enqueued. *)

  (** {2 Session shape} *)

  val request : t -> channel
  (** The request channel shared by all clients, consumed by the server. *)

  val reply_channel : t -> int -> channel
  (** The per-client reply channel.
      @raise Invalid_argument on an out-of-range client number. *)

  (** {2 Queue} *)

  val enqueue : t -> channel -> msg -> bool
  (** [false] when the queue is full (the flow-control condition). *)

  val dequeue : t -> channel -> msg
  (** The oldest message, or [no_msg] (test with [==]) when the queue
      is empty. *)

  val queue_is_empty : t -> channel -> bool
  (** Cheap emptiness hint, as used by the polling loops. *)

  val await : t -> channel -> msg
  (** A bounded run of extra C.1 dequeues, made by the consumer after
      its first dequeue found the queue empty and before it clears its
      awake flag (C.2): the message, or [no_msg] once the substrate's
      grace is over.  Repeated C.1 only — it never touches the flag or
      the semaphore.  That is its whole lost-wake-up argument: while it
      runs the flag is still set, so every producer skips its V exactly
      as it would for a consumer still busy, and when it gives up, C.2–C.5
      run exactly as they would have without it.  The real backends wait
      here for up to a time-bounded grace (zero on a uniprocessor) and
      report an expired grace through {!note_spin_exhausted}; the
      simulator returns [no_msg] at once. *)

  (** {2 Awake flag} *)

  val awake_test_and_set : t -> channel -> bool
  (** Atomically set the consumer's awake flag, returning its previous
      value — the producer-side safeguard of Interleavings 2 and 3.  A
      full barrier: the producer's enqueue (P.1) must be visible before
      the flag is read (P.2). *)

  val awake_clear : t -> channel -> unit
  (** Step C.2 of Figure 4: clear the flag.  A full barrier on every
      real backend, not a plain or release store: the clear must be
      visible before the C.3 dequeue reads the queue.  x86 lets a load
      pass an earlier store to another word, so a plain store here lets
      a producer still read "awake" and skip its V while the consumer,
      having found the queue empty, parks for good — the lost wake-up
      the fork'd backend once had.  The simulator's memory is
      sequentially consistent, so a plain store suffices there. *)

  val awake_set : t -> channel -> unit
  (** Step C.5: set the flag again after the consumer is woken. *)

  val awake_read : t -> channel -> bool

  (** {2 Counting semaphore} *)

  val sem_p : t -> channel -> unit
  (** Down: block while the count is zero, then decrement (step C.4). *)

  val sem_try_p : t -> channel -> bool
  (** Non-blocking down: [false] when the count is zero.  Used by the
      Interleaving-3 drain of a raced wake-up. *)

  val sem_v : t -> channel -> unit
  (** Up: increment and wake one waiter (step P.3). *)

  (** {2 Scheduling hints} *)

  val busy_wait : t -> short:bool -> int -> unit
  (** §2.1: a [yield] on a uniprocessor, a delay loop on a
      multiprocessor.  [busy_wait s ~short n] is wait number [n] of the
      calling retry loop (its count of failed waits so far, from 0; a
      one-shot hint passes 0): the real backends escalate on it from
      pauses to yields to bounded parks, short ones when [short] (the
      consumer of a request channel), so an oversubscribed spinner
      gives its CPU to the peer it waits for.  The simulator ignores
      both. *)

  val poll : t -> channel -> unit
  (** One BSLS poll (Figure 9): like {!busy_wait} but, on a
      multiprocessor, re-checking the queue's emptiness on every slice so
      an arrival is noticed promptly. *)

  val yield : t -> unit
  (** Give the scheduler a chance to run someone else (BSWY, Figure 7). *)

  val handoff_server : t -> unit
  (** §6 extended kernel interface: hand the CPU to the server. *)

  val handoff_any : t -> unit
  (** §6: "I have no useful work, run whoever is best". *)

  val flow_sleep : t -> int -> unit
  (** What a producer does on a full queue before retrying, given its
      retry loop's count of failed waits — the paper sleeps one second
      (a full queue means the consumer is saturated); the real backends
      climb the same ladder as {!busy_wait}, with long parks. *)

  (** {2 Instrumentation} *)

  val note_spin_exhausted : t -> channel -> unit
  (** A §5 limited spin, or an {!await} grace, burned its full budget on
      [channel] and is about to fall through to the blocking sequence.
      Pure instrumentation — substrates with a trace sink record a
      spin-exhaust event, others do nothing; the protocol core's
      behaviour must not depend on it. *)

  val counters : t -> Counters.t
  (** The shared sink for the §4.2 statistics.  Substrates whose
      processes run in parallel (real domains) may lose increments from
      concurrent writers of the same field; each field written by a
      single process is exact. *)
end
