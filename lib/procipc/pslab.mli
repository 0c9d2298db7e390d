(** The layer ladder's name for {!Ulipc_real.Slab}, the one slab of
    both real backends: the [pslab_*] rung times it carved from a
    {!Parena}, the way a session carves it. *)

include module type of struct
  include Ulipc_real.Slab
end

val create : Parena.t -> slots:int -> t
(** {!Ulipc_real.Slab.carve}.  Carve before forking.
    @raise Invalid_argument if [slots <= 0] or the arena is full. *)
