(* The arena-ring names the layer ladder measures, kept as adapters: the
   rings themselves are Ulipc_real.Spsc_ring and Mpsc_ring, which live on
   arena words and serve the fork'd backend unchanged. *)

module Spsc = struct
  type t = Ulipc_real.Spsc_ring.t

  let create a ~capacity = Ulipc_real.Spsc_ring.carve a ~capacity
  let enqueue = Ulipc_real.Spsc_ring.enqueue
  let dequeue = Ulipc_real.Spsc_ring.dequeue
end

module Mpsc = struct
  type t = Ulipc_real.Mpsc_ring.t

  let create a ~capacity = Ulipc_real.Mpsc_ring.carve a ~capacity
  let enqueue = Ulipc_real.Mpsc_ring.enqueue
  let dequeue = Ulipc_real.Mpsc_ring.dequeue
end
