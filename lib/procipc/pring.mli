(** The arena-ring entry points the layer ladder ([bench/e2e]) measures:
    {!Ulipc_real.Spsc_ring} and {!Ulipc_real.Mpsc_ring} carved from a
    {!Parena}, with one-word messages (client word 0, [-1] as empty).
    The rings already live on arena words, so these are aliases, not a
    second implementation. *)

module Spsc : sig
  type t = Ulipc_real.Spsc_ring.t

  val create : Parena.t -> capacity:int -> t
  (** {!Ulipc_real.Spsc_ring.carve}. *)

  val enqueue : t -> int -> bool
  val dequeue : t -> int
end

module Mpsc : sig
  type t = Ulipc_real.Mpsc_ring.t

  val create : Parena.t -> capacity:int -> t
  (** {!Ulipc_real.Mpsc_ring.carve}. *)

  val enqueue : t -> int -> bool
  val dequeue : t -> int
end
