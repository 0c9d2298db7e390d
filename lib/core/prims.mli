(** Building blocks of the sleep/wake-up protocols, over the simulated
    session.

    These functions are the labelled steps of the paper's figures that
    code outside the shared protocol core composes on its own: the
    producer's conditional wake-up (P.1–P.3 of Figure 4), the consumer's
    carefully-ordered block sequence (C.1–C.5) and the flow-controlled
    enqueue.  {!Ablation} and {!Csem} build their variants from them;
    the six standard protocols run through {!Protocol_core.Make}'s
    [produce]/[consume] instead. *)

type side = Protocol_core.side = Client | Server
(** Which end of the session the calling process is; used to attribute
    instrumentation counters. *)

val flow_enqueue : Session.t -> Channel.t -> Message.t -> unit
(** [while (!enqueue(Q, msg)) sleep(1)] — the queue-full path of every
    blocking protocol.  The one-second sleep is the paper's deliberate
    choice: a full queue means the consumer is saturated. *)

val wake_consumer : Session.t -> Channel.t -> target:side -> bool
(** Steps P.2–P.3 with the test-and-set repair of Interleavings 2 and 3:
    [if (!tas(&Q->awake)) V(sem)].  Returns whether a V was actually
    issued (BSWY busy-waits only in that case). *)

type empty_hint = No_hint | Hint_busy_wait | Hint_handoff_server
(** The scheduling hint run between a failed first dequeue (C.1) and the
    awake-flag clear (C.2) — an enumeration, not a closure, so hinted
    consumers allocate nothing. *)

val blocking_dequeue :
  Session.t -> Channel.t -> side:side -> empty_hint -> Message.t
(** The consumer sequence C.1–C.5 of Figure 4 as hardened in Figure 5:
    try to dequeue; on empty, run the hint (BSWY inserts the hand-off
    [busy_wait] here, HANDOFF the [handoff] call — Figures 7 and 9), clear
    the awake flag, dequeue {e again} (the step C.3 whose necessity
    Interleaving 4 shows), and only then block on the semaphore.  When the
    second dequeue succeeds, restore the flag with test-and-set and drain
    a raced wake-up with a non-blocking P (Interleaving 3 repair). *)
