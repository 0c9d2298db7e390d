(** Bounded exponential backoff for the real backend's busy-wait loops.

    Per-domain episode state (in domain-local storage): a waiting episode
    is the run of failed waits since the domain last made progress.
    Within an episode the first [budget] waits are [Domain.cpu_relax]
    hints; after that each wait is a bounded, exponentially growing
    nanosleep — the portable yield that stops oversubscribed
    spinners (BSS on few cores) from burning whole scheduler quanta
    while the peer they wait for cannot run.  Durations are integer
    nanoseconds end to end and the park is a direct [nanosleep] stub,
    so a backoff step never touches the minor heap (a [Unix.sleepf]
    park would box its float duration on every step).

    The spin budget is small and role-independent — on a single CPU a
    spinning domain is not preempted when its peer wakes, so long spins
    add directly to the round-trip — but the park length is
    role-specific: the request channel's consumer (the server) parks
    short so a new request finds it quickly, while producers and
    reply-side consumers park long enough to cover a whole server
    turnaround in one park.  Each domain also drops its Linux timer
    slack to 1 ns so parks wake at hrtimer precision. *)

type t

val get : unit -> t
(** The calling domain's backoff state. *)

val note_role : t -> server_side:bool -> unit
(** Tag the wait in progress: [server_side] when the waiter is the
    request channel's consumer.  Set by the substrate on every failed
    queue operation, read by {!wait} to pick the spin budget. *)

val wait : t -> bool
(** One backoff step; [true] when the step escalated to a sleep (the
    caller records it in {!Ulipc.Counters}). *)

external sched_yield : unit -> unit = "ulipc_sched_yield"
(** [sched_yield(2)] with the OCaml runtime lock released: hands the CPU
    to a runnable thread or process that shares it, and returns at once
    when there is none.  Allocation-free. *)

val progress : t -> unit
(** Reset the episode: the domain completed a queue operation. *)
