(** Asynchronous sends — the extension §1 and §8 sketch.

    A client may enqueue several requests without waiting for replies
    ("a client process can enqueue multiple asynchronous messages on to a
    shared queue without blocking waiting for a response") and collect the
    responses later.  On a uniprocessor this is where user-level IPC needs
    {e no} system calls at all in the best case: the server drains the
    batch in one possession of the CPU.

    The sleep/wake-up machinery is the session protocol's own producer
    and consumer halves ({!Protocol_core.Make.produce} and [consume]), so
    [post] is a send without its wait and [collect] is exactly the
    client half of a synchronous send — BSLS polls included.  CSEM
    sessions use per-item semaphore grants, SYSV sessions the kernel
    queues. *)

val post : Session.t -> client:int -> Message.t -> unit
(** Enqueue a request and wake the server if needed; return immediately.
    Blocks (with the one-second flow-control sleep) only if the request
    queue is full. *)

val collect : Session.t -> client:int -> Message.t
(** Wait for the next response on this client's reply channel the way a
    synchronous send of the session's protocol would (spinning for BSS,
    polling then the C.1–C.5 sequence for BSLS, ...). *)

val try_collect : Session.t -> client:int -> Message.t option
(** Non-blocking poll of the reply channel: one dequeue attempt. *)

val call_batch : Session.t -> client:int -> Message.t list -> Message.t list
(** [call_batch s ~client msgs] posts every request, then collects exactly
    one response per request, in arrival order. *)
