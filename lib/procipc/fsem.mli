(** The fork'd backend's name for {!Ulipc_real.Rsem}, the one semaphore
    of both real backends: the layer ladder's [fsem_*] rungs time it
    carved from a {!Parena}, between processes. *)

include module type of struct
  include Ulipc_real.Rsem
end

val create : ?initial:int -> Parena.t -> t
(** {!Ulipc_real.Rsem.carve} from the arena with [~spin:0], as the
    fork'd backend carves its channel semaphores, so a P that finds no
    credit parks at once; [initial] defaults to 0.  Create pre-fork. *)
