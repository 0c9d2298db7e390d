(** Counting-semaphore producer/consumer: a V on every enqueue, a P before
    every dequeue, no awake flag.

    Two system calls per message in each direction — exactly the overhead
    the paper's tas-guarded wake-up exists to avoid — but the per-item
    grants make it the one protocol here that is safe with several
    consumers sharing a queue, which the multi-threaded-server
    architecture ({!Ulipc_workload.Arch}) requires. *)

val send : Session.t -> client:int -> Message.t -> Message.t
val receive : Session.t -> Message.t
val reply : Session.t -> client:int -> Message.t -> unit

val produce : Session.t -> Channel.t -> Message.t -> unit
(** Flow-controlled enqueue, then a V: one grant per item. *)

val consume : Channel.t -> Message.t
(** A P, then the dequeue the grant guarantees. *)
