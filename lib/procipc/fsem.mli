(** Futex-backed counting semaphore on two shared arena words: the
    cross-process realisation of the paper's blocking primitive.

    Uncontended V and P are each two userspace atomic operations (the
    benaphore bar the in-process [Rsem] set); the contended path parks
    in the kernel with [FUTEX_WAIT] keyed on the value word's address
    and is woken by the V side's [FUTEX_WAKE] — sleep-on-address /
    wakeup-by-address, for real.  See fsem.ml for the no-lost-wake-up
    interleaving argument.

    {!p} spins only briefly before it parks.  The channel consumers of
    [Proc_substrate] reach it only after its [await] has polled their
    ring for the {!Ulipc_real.Grace} spin, so a semaphore P there means
    the peer really was idle. *)

type t

val create : ?initial:int -> Parena.t -> t
(** Carve the two semaphore words (one cache line apart) out of the
    arena.  Create pre-fork; the children's inherited copies of the
    record address the same shared words.
    @raise Invalid_argument if [initial < 0]. *)

val p : t -> unit
(** Down: one load + CAS while credit is available, else advertise,
    re-check and park in the kernel. *)

val try_p : t -> bool
(** Non-blocking down; [false] when the count is zero. *)

val p_timed : t -> timeout_ns:int -> bool
(** {!p} bounded by a deadline: [false] if no credit arrived within
    [timeout_ns] — the dead-peer detection primitive. *)

val v : t -> unit
(** Up: fetch-add plus a waiter-census load; issues [FUTEX_WAKE] only
    when somebody is actually parked. *)

val value : t -> int
(** Current count — the wake-residue probe. *)

val parks : t -> int
(** Kernel waits entered {e by the calling process} (statistics are
    process-local; drivers sum them post-run). *)

val grants : t -> int
(** Parked processes woken by the calling process's Vs. *)
