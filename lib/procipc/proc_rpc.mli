(** The fork'd backend under the names the benchmark ([bench/e2e])
    calls.  A fork'd session is an {!Ulipc_real.Rpc} session with
    {!Ulipc_real.Rpc.int_codec} in both directions: create it before
    forking, then run {!serve} in the server process and {!send} in
    each client process.  Everything else is {!Ulipc_real.Rpc}'s. *)

val create :
  ?trace:Ulipc_observe.Trace_ring.t ->
  nclients:int ->
  Ulipc_real.Rpc.waiting ->
  (int, int) Ulipc_real.Rpc.t

val serve : (int, int) Ulipc_real.Rpc.t -> (client:int -> int -> int) -> unit
(** {!Ulipc_real.Rpc.serve} on the one server's shard. *)

val send : (int, int) Ulipc_real.Rpc.t -> client:int -> int -> int
val harvest_sem_counters : (int, int) Ulipc_real.Rpc.t -> unit
val counters : (int, int) Ulipc_real.Rpc.t -> Ulipc.Counters.t
val slab : (int, int) Ulipc_real.Rpc.t -> Ulipc_real.Slab.t
