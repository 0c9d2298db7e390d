(** A shared word arena: an mmap'd ([MAP_SHARED]) region of intnat
    words behind a Bigarray, carved up by a bump allocator.  Every flat
    ring ({!Spsc_ring}, {!Mpsc_ring}), channel semaphore ({!Rsem})
    and slab free list ({!Slab}) lives in one, whether a
    session's peers are domains or fork'd processes
    ([Ulipc_procipc.Parena] is this module plus a yield).

    Structures carved here are {e word offsets}, never OCaml pointers:
    a fork'd session maps and carves the arena, then forks — children
    inherit the mapping (same pages, same address), and their copies of
    the OCaml records that name offsets into it keep working unchanged.
    The backing file lives in [/dev/shm] when present and is unlinked
    as soon as it is mapped.

    Allocation is single-owner (before any peer starts).  The shared
    {e words} are the concurrent part: plain {!get}/{!set} (or inlined
    [Bigarray.Array1.unsafe_get/set] over {!words}) for the
    single-writer publishes of {!Ring_layout}, and the atomics below for
    everything that synchronises. *)

type words =
  (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val cache_line_words : int
(** 8: allocation pitch that defeats false sharing between neighbours. *)

val create : size_words:int -> unit -> t
(** Map a fresh zero-filled shared region of [size_words] words (every
    page faulted in, so no peer pays first-touch faults).
    @raise Invalid_argument if [size_words <= 0].
    @raise Failure if the region cannot be mapped, or on a build for any
    architecture but x86-64, whose TSO ordering the plain publishes rely
    on ({!Ring_layout.require_tso}). *)

val outlived_fork : t -> bool
(** [true] once this process has forked, or was forked, since [t] was
    mapped: the arena's words may then be shared with another address
    space, where no OCaml heap pointer means anything.  Read from the
    fork stamp the atomics use (word_stubs.c). *)

val words : t -> words
(** The raw mapped words, for modules that inline their own unsafe
    accesses over a carved-out span.  One line longer than the rounded-up
    {!size_words}: its last word is the fork stamp the atomics read. *)

val size_words : t -> int
val used_words : t -> int

val alloc : t -> words:int -> align:int -> int
(** Bump-allocate [words] words aligned to [align] (a power of two);
    returns the word offset.  No free — sessions carve once, up front.
    @raise Invalid_argument on exhaustion or a non-power-of-two align. *)

val alloc_line : t -> words:int -> int
(** {!alloc} at cache-line alignment. *)

val get : t -> int -> int
(** Plain (fenceless) word load. *)

val set : t -> int -> int -> unit
(** Plain (fenceless) word store. *)

external get_word : words -> int -> int = "%caml_ba_ref_1"
(** [get_word w i]: {!get} on the raw words, declared [external] so that
    callers in other modules compile it inline — a [val] is an unknown
    call once modules are compiled [-opaque], as dune's default profile
    does.  For the shared words of a hot path ({!Slab}'s free list). *)

external set_word : words -> int -> int -> unit = "%caml_ba_set_1"
(** {!set} on the raw words, inline as {!get_word} is. *)

(** {1 Atomic word operations} (C stubs over the mapped words)

    Like OCaml's own [Atomic], the read-modify-writes skip the lock
    while the process runs one domain and has not forked since it
    mapped the arena: then no other thread or process can reach the
    word between the load and the store. *)

external cas : words -> int -> int -> int -> bool = "ulipc_word_cas"
[@@noalloc]
(** [cas w i expected desired]: the raw compare-and-swap on word [i],
    for the rings' ticket claim and the semaphore's count word —
    declared [external] here so callers in other modules call the stub
    directly. *)

external fetch_add : words -> int -> int -> int = "ulipc_word_fetch_add"
[@@noalloc]
(** [fetch_add w i d]: the raw fetch-and-add on word [i], returning the
    previous value (the semaphore's V, P commit and tickets). *)

val at_load : t -> int -> int
(** Acquire load. *)

val at_store : t -> int -> int -> unit
(** Release store. *)

val at_fetch_add : t -> int -> int -> int
(** Atomic fetch-and-add; returns the previous value. *)

val at_cas : t -> int -> expected:int -> desired:int -> bool

(** {1 Kernel sleep/wake on a word}

    Shared (not process-private) futexes, so a wake reaches a waiter in
    another domain and in a fork'd process alike.  Linux only; elsewhere
    a wait is a 50 µs sleep that reports {!Woken}. *)

type wait_result = Woken | Value_changed | Timed_out

val futex_wait : t -> int -> expected:int -> timeout_ns:int -> wait_result
(** Park until word [i]'s low 32 bits differ from [expected] or a wake
    arrives; [timeout_ns < 0] waits forever.  [Woken] covers genuine,
    spurious and signal-interrupted wake-ups — callers re-check their
    predicate.  Releases the runtime lock while parked. *)

val futex_wake : t -> int -> count:int -> int
(** Wake up to [count] waiters parked on word [i] ([max_int]: all of
    them); returns the number woken. *)
