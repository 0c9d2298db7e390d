(** The time-bounded, preemption-aware grace spin shared by both real
    backends: poll until something arrives, the grace runs out, or the
    spinning thread turns out to have been descheduled.

    [Real_substrate.await] runs it over its channel's ring before the
    consumer clears its awake flag; {!Rsem.p} runs it over the count
    before parking.  See grace.ml
    for why the bound is wall time and how the spin gives way to a peer
    sharing its CPU.  Also the back-off ladder both backends' retry
    loops climb, and the scheduling stubs under both. *)

val grace_ns : int
(** The grace on a multiprocessor: 20 µs, about twice the slowest
    kernel park→wake measured on a 2-CPU x86 VM (5–13 µs), so that a
    waiter spins at most twice what parking would cost it. *)

val desched_gap_ns : int
(** A gap between two consecutive clock reads of the spin longer than
    this (3 µs, against ~0.4 µs of pauses between reads) means the
    spinning thread was descheduled. *)

val for_cpus : int -> int
(** The grace for a host with this many CPUs: {!grace_ns}, or [0] on a
    uniprocessor, where nothing can arrive while the waiter spins. *)

val default : int
(** [for_cpus (Domain.recommended_domain_count ())], resolved once. *)

val stop_spinning : deadline:int -> prev:int -> now:int -> bool
(** The exit rule on {!Ulipc_observe.Clock.now_ns} timestamps: [true]
    once [now] reaches [deadline], or when [now] follows the previous
    read [prev] by more than {!desched_gap_ns}. *)

val run : grace:int -> ('a -> 'b) -> 'a -> miss:'b -> 'b
(** [run ~grace poll x ~miss] calls [poll x] until it returns a value
    other than [miss] (compared with [!=]) and returns that value, or
    returns [miss] once [grace] nanoseconds have passed or the spin was
    descheduled (see {!stop_spinning}).  Between polls it pauses, and
    every 2 µs it yields the CPU once.  [~grace:0] returns [miss] at
    once without polling.  Allocates nothing when [poll] is a top-level
    function and its results are immediates. *)

val pauses_per_check : int
(** The polls {!run} makes between two clock reads: 16. *)

val run_checking : grace:int -> every:int -> ('a -> 'b) -> 'a -> miss:'b -> 'b
(** [run] reading the clock once every [every >= 1] polls instead of
    every {!pauses_per_check}: for a poll so slow that
    {!pauses_per_check} of them would outlast {!desched_gap_ns} and end
    the grace as if descheduled.  [run ~grace] is
    [run_checking ~grace ~every:pauses_per_check]. *)

external sched_yield : unit -> unit = "ulipc_sched_yield"
(** [sched_yield(2)] with the OCaml runtime lock released: hands the CPU
    to a runnable thread or process that shares it, and returns at once
    when there is none.  Allocation-free. *)

(** {1 The back-off ladder}

    What one failed wait of a retry loop does (the BSS busy-wait, a
    producer facing a full queue, a credit drain), given the loop's own
    count of failed waits so far, from 0.  See grace.ml for the
    rationale. *)

type rung =
  | Pause  (** one [Domain.cpu_relax] *)
  | Yield  (** one {!sched_yield} *)
  | Sleep  (** one nanosleep of {!park_ns} *)

val pause_waits : int
(** Failed waits that pause on a multiprocessor: 64.  On a
    uniprocessor only wait 0 (a one-shot hint's) pauses. *)

val sleep_after : int
(** Failed waits before the first park: 256.  The ones between
    {!pause_waits} (or 1, on a uniprocessor) and this yield. *)

val rung : multicore:bool -> int -> rung
(** The rung of a loop's wait number [n] (its count of failed waits
    before this one). *)

val park_ns : short:bool -> int -> int
(** The park length of wait number [n >= sleep_after]: doubling per
    wait from 1 µs to a 10 µs cap when [short] (the consumer of a
    request shard), from 20 µs to a 50 µs cap otherwise. *)

val multicore : bool
(** [default > 0]: the host has more than one CPU. *)

val backoff : short:bool -> int -> bool
(** Take wait number [n]'s rung on this host; [true] when it parked.
    Allocates nothing.  A thread's first park sets its Linux timer
    slack to 1 ns, so parks wake at hrtimer precision rather than on
    the 50 µs default slack. *)
