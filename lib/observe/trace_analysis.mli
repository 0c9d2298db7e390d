(** Causal analysis over a merged trace-event stream.

    Pairs each Wake (the producer's V) with the Dequeue it enabled and
    each Block (the consumer's P) with the Wake that released it,
    per-channel, to recover the two latencies the paper's protocols
    trade against each other: wake-up latency (V issued → released
    consumer takes the message) and block duration (P entered → V
    issued).  Alongside the pairings it checks trace-level invariants —
    no queue underflow, no orphan Block, no lost Wake, per-actor
    sequence integrity — making a trace usable as a race detector.
    The simulated kernel's events ({!Event.is_protocol} false) take part
    in the per-actor sequence and clock checks only.

    Pairing rules (per channel, events in time order; ties broken so
    Enqueue precedes Wake precedes everything else at one instant):
    - Block with no banked Wake credit joins the pending-block queue;
      a Block finding a banked credit pairs with it immediately (the
      raced-wake case: V landed before P).
    - Wake releases the oldest pending Block if any (block-duration
      pair), otherwise banks a credit; either way it joins the
      waiting-wake queue, tagged with the sleeper it released.
    - Wake_drain consumes one banked credit (the C.3' [sem_try_p]
      drain); a drain with no credit is a violation.
    - Dequeue pairs with the oldest waiting Wake that released this
      dequeuer (wake-latency pair); an un-woken dequeue (pure spin
      success) pairs with nothing.
    - A Block by an actor with a waiting Wake cancels that wake: the
      sleeper was woken, found the queue empty and went back to sleep —
      a spurious wake (the producer tas-claimed a waiting flag raised
      for a later wait), counted but not a violation. *)

type dist = {
  n : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
}
(** Exact (nearest-rank) percentiles over all samples; [nan] fields when
    [n = 0]. *)

type pair = {
  chan : int;
  from_actor : int;  (** who produced the causing event *)
  to_actor : int;  (** who produced the caused event *)
  t_from_us : float;
  t_to_us : float;
}

val pair_us : pair -> float
(** [t_to_us - t_from_us], clamped at 0. *)

type violation =
  | Queue_underflow of { chan : int; t_us : float }
      (** a Dequeue with no prior unconsumed Enqueue *)
  | Orphan_block of { chan : int; actor : int; t_us : float }
      (** a Block never released by any Wake *)
  | Lost_wake of { chan : int; t_us : float }
      (** a Wake whose credit was never consumed by a Block or drain *)
  | Drain_without_wake of { chan : int; t_us : float }
      (** a Wake_drain with no banked Wake credit *)
  | Wake_without_dequeue of { chan : int; t_us : float }
      (** a Wake whose woken sleeper neither dequeued nor went back to
          sleep *)
  | Non_monotonic_actor of { actor : int; seq : int; t_us : float }
      (** an actor's timestamps run backwards against its sequence
          numbers: the clock stepped mid-trace *)
  | Seq_gap of { actor : int; expected : int; got : int }
      (** an actor's sequence numbers are not contiguous: events were
          lost other than by whole-ring overwrite *)

val pp_violation : Format.formatter -> violation -> unit

type channel_report = {
  chan : int;
  enqueues : int;
  dequeues : int;
  blocks : int;
  wakes : int;
  wake_drains : int;
  spurious_wakes : int;
  handoffs : int;
  spin_exhausts : int;
  wake_latency : dist;
  block_duration : dist;
}

type t = {
  events : int;
  actors : int;
  span_us : float;  (** last timestamp − first timestamp, 0 if empty *)
  complete : bool;  (** as passed to {!analyse} *)
  channels : channel_report list;  (** sorted by channel id *)
  wake_latency : dist;  (** across all channels *)
  block_duration : dist;  (** across all channels *)
  wake_pairs : pair list;  (** Wake → enabled Dequeue, time order *)
  block_pairs : pair list;  (** Block → releasing Wake, time order *)
  blocks : int;
  wakes : int;
  raced_wakes : int;  (** wakes absorbed by the C.3' drain *)
  spurious_wakes : int;
      (** wakes whose woken sleeper found nothing and re-blocked *)
  handoffs : int;
  handoffs_taken : int;
      (** handoffs whose issuing actor's next event is a Dequeue: the
          hint put the server on-CPU and the transfer completed *)
  spin_exhausts : int;
  violations : violation list;
}

val analyse : ?complete:bool -> Event.t list -> t
(** [complete] (default true) asserts the stream has no ring-overwrite
    truncation; when false, end-state invariants (orphan block, lost
    wake, queue underflow, sequence gaps) are skipped because a
    truncated prefix forges them, while pairings and Non_monotonic_actor
    are still produced. *)

val pp : Format.formatter -> t -> unit
(** Multi-line breakdown: totals, per-channel wake-latency and
    block-duration percentiles, hint efficacy, invariant summary. *)
