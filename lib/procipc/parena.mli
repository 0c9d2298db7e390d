(** The cross-process shared-memory arena: {!Ulipc_real.Word_arena}
    (an mmap'd [MAP_SHARED] region of words, a bump allocator, atomic
    word operations and the futex sleep/wake on a word) plus a yield
    that releases the runtime lock.  A {!Proc_substrate} session maps
    and carves one before forking; see {!Ulipc_real.Word_arena} for the
    layout rules. *)

include module type of struct
  include Ulipc_real.Word_arena
end

val sched_yield : unit -> unit
(** {!Ulipc_real.Grace.sched_yield}: the uniprocessor's cross-process
    busy-wait. *)
