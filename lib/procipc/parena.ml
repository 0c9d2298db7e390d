(* The layer ladder's shared arena: the word arena every ring,
   semaphore and slab lives in ({!Ulipc_real.Word_arena}, futex calls
   included), plus the yield the fork'd peers busy-wait with. *)

include Ulipc_real.Word_arena

let sched_yield = Ulipc_real.Grace.sched_yield
