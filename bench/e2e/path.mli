(** Critical-path split of traced calls.

    Each call the benchmark timed is paired with its messages' trace
    events, FIFO per channel: the client's k-th request Enqueue, the
    server's Dequeue of that request, the server's reply Enqueue and the
    client's reply Dequeue.  A server answers in the order it dequeues,
    so each reply Enqueue is matched with the oldest request Dequeue the
    same server actor has not yet answered.  The five parts of a message
    telescope from the call's start stamp to its end stamp:

    {v
    start -> req Enqueue -> req Dequeue -> reply Enqueue -> reply Dequeue -> end
     client_send   request_wait   service     reply_wait      client_recv
    v}

    so their means sum to the mean round-trip of the paired messages.
    A call carrying several messages (a pipelined burst) contributes each
    message with the burst's start and end stamps. *)

type call = {
  client : int;  (** reply channel of the calling client *)
  actor : int;  (** trace actor that issued the requests *)
  t_start_us : float;
  t_end_us : float;
  msgs : int;  (** messages the call carried *)
}

type t = {
  paired : int;  (** messages matched with all four events *)
  unpaired : int;  (** messages of timed calls left without a match *)
  misordered : int;
      (** paired messages with a negative part: a pairing that broke
          causality *)
  client_send_us : float;
  request_wait_us : float;
  service_us : float;
  reply_wait_us : float;
  client_recv_us : float;
  rt_mean_us : float;
      (** mean per-message round-trip over every timed call, paired or
          not *)
  unexplained_us : float;  (** [rt_mean_us] minus the sum of the parts *)
}

val split : skip:int array -> calls:call list -> Ulipc_observe.Event.t list -> t
(** [skip.(c)] is how many messages client [c] sent before its first
    timed call (warm-up traffic): that many events are passed over on
    each of its queues.  [calls] lists each client's timed calls in the
    order it made them. *)
