(** The layer ladder's name for {!Ulipc_real.Word_arena} (an mmap'd
    [MAP_SHARED] region of words, a bump allocator, atomic word
    operations and the futex sleep/wake on a word) plus a yield that
    releases the runtime lock: the arena its [pring_*], [pslab_*] and
    [fsem_*] rungs carve from.  Every session maps its own; see
    {!Ulipc_real.Word_arena} for the layout rules. *)

include module type of struct
  include Ulipc_real.Word_arena
end

val sched_yield : unit -> unit
(** {!Ulipc_real.Grace.sched_yield}: the uniprocessor's cross-process
    busy-wait. *)
