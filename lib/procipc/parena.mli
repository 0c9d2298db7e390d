(** The cross-process shared-memory arena: an mmap'd ([MAP_SHARED])
    region of intnat words behind a Bigarray, carved up by a bump
    allocator into the rings, semaphore words and payload slots of a
    {!Proc_substrate} session.

    Processes share {e word offsets}, never OCaml pointers: the parent
    maps and carves the arena, then forks — children inherit the mapping
    (same pages, same address), and their copies of the OCaml records
    that name offsets into it keep working unchanged.  The backing file
    lives in [/dev/shm] when present and is unlinked as soon as it is
    mapped.

    Allocation is parent-only (pre-fork).  The shared {e words} are the
    concurrent part: plain {!get}/{!set} for single-writer publishes
    (the rings' fenceless stores — see pring.ml for the TSO argument)
    and the [at_*] atomics plus {!futex_wait}/{!futex_wake} for
    everything that synchronises. *)

type words =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val cache_line_words : int
(** 8: allocation pitch that defeats false sharing between neighbours. *)

val create : size_words:int -> unit -> t
(** Map a fresh zero-filled shared region of [size_words] words (every
    page faulted in, so children never pay first-touch faults).
    @raise Invalid_argument if [size_words <= 0].
    @raise Failure on a build for any architecture but x86-64, whose TSO
    ordering the plain {!get}/{!set} publishes rely on
    ({!Ulipc_real.Ring_layout.require_tso}). *)

val words : t -> words
(** The raw mapped words, for modules that inline their own unsafe
    accesses over a carved-out span. *)

val size_words : t -> int
val used_words : t -> int

val alloc : t -> words:int -> align:int -> int
(** Bump-allocate [words] words aligned to [align] (a power of two);
    returns the word offset.  No free — sessions carve once, pre-fork.
    @raise Invalid_argument on exhaustion or a non-power-of-two align. *)

val alloc_line : t -> words:int -> int
(** {!alloc} at cache-line alignment. *)

val get : t -> int -> int
(** Plain (fenceless) word load. *)

val set : t -> int -> int -> unit
(** Plain (fenceless) word store. *)

(** {1 Atomic word operations} (C stubs over the mapped words) *)

val at_load : t -> int -> int
(** Acquire load. *)

val at_store : t -> int -> int -> unit
(** Release store. *)

val at_xchg : t -> int -> int -> int
(** Atomic exchange; returns the previous value. *)

val at_fetch_add : t -> int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val at_cas : t -> int -> expected:int -> desired:int -> bool

(** {1 Kernel sleep/wake} *)

type wait_result = Woken | Value_changed | Timed_out

val futex_wait : t -> int -> expected:int -> timeout_ns:int -> wait_result
(** Park until word [i]'s low 32 bits differ from [expected] or a wake
    arrives; [timeout_ns < 0] waits forever.  [Woken] covers genuine,
    spurious and signal-interrupted wake-ups — callers re-check their
    predicate. *)

val futex_wake : t -> int -> count:int -> int
(** Wake up to [count] parked processes; returns the number woken. *)

val sched_yield : unit -> unit
(** [sched_yield] with the OCaml runtime lock released — the
    uniprocessor's cross-process busy-wait. *)
