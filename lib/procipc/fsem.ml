(* The layer ladder's name for the one semaphore (see fsem.mli). *)

include Ulipc_real.Rsem

let create ?(initial = 0) a = carve ~spin:0 a initial
