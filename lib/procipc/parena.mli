(** The cross-process shared-memory arena: {!Ulipc_real.Word_arena}
    (an mmap'd [MAP_SHARED] region of words, a bump allocator, atomic
    word operations) plus the kernel sleep/wake the fork'd backend's
    semaphores need.  A {!Proc_substrate} session maps and carves one
    before forking; see {!Ulipc_real.Word_arena} for the layout rules. *)

include module type of struct
  include Ulipc_real.Word_arena
end

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
