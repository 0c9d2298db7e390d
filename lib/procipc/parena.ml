(* The fork'd backend's shared arena: the word arena every flat ring
   lives in ({!Ulipc_real.Word_arena}: the mapping, the bump allocator
   and the atomic word operations), plus what only processes need —
   kernel sleep/wake on an arena word and a yield that releases the
   runtime lock. *)

include Ulipc_real.Word_arena

(* Kernel sleep/wake on an arena word (see shm_stubs.c for the 32-bit
   futex-word discipline and the shared-futex rationale). *)

external futex_wait_ : words -> int -> int -> int -> int
  = "ulipc_shm_futex_wait"

external futex_wake_ : words -> int -> int -> int = "ulipc_shm_futex_wake"
[@@noalloc]

type wait_result = Woken | Value_changed | Timed_out

let futex_wait t i ~expected ~timeout_ns =
  match futex_wait_ (words t) i expected timeout_ns with
  | 1 -> Value_changed
  | 2 -> Timed_out
  | _ -> Woken

let futex_wake t i ~count = futex_wake_ (words t) i count

let sched_yield = Ulipc_real.Grace.sched_yield
