(** The substrate-parametric protocol core.

    The paper's six protocols — BSS (Figure 1), BSW (Figure 5), BSWY
    (Figure 7), BSLS (Figure 9), the §6 hand-off variant, and the
    adaptive-budget BSLS the real backends add — are one algorithm: the
    producer steps P.1–P.3 and the consumer sequence C.1–C.5, differing
    only in what a waiting side does.  This module names that choice
    once, as a {!waiting} value, and [Make (S)] derives the algorithm
    from the {!Substrate.S} primitives alone, with the channel an
    explicit argument of every operation.  Each substrate composes its
    calls from the same {!Make.produce}/{!Make.consume} halves on the
    channels its session shape dictates: {!Dispatch} and {!Async} over
    the simulated session ({!Sim_protocols}), [Ulipc_real.Rpc] over a
    sharded request plane on OCaml 5 domains, [Ulipc_procipc.Proc_rpc]
    over fork'd processes.  A new backend only has to provide a
    substrate, and differential testing across substrates is meaningful
    because there is nothing else to differ.

    Two substrate obligations carry the no-lost-wake-up argument.  The
    flag writes of P.2 and C.2 ({!Substrate.S.awake_test_and_set},
    {!Substrate.S.awake_clear}) are full barriers on every real backend,
    so neither side's next read of the other's word can pass its own
    write.  And {!Substrate.S.await}, which a blocking consumer runs
    between its first dequeue and C.2, is repeated C.1 only: it never
    touches the flag or the semaphore, so while it waits producers see
    the consumer awake and skip their V, and when it gives up C.2–C.5
    run exactly as they would have without it. *)

type waiting =
  | Spin  (** BSS: busy-wait, never block *)
  | Block  (** BSW: awake flag + counting semaphore, the Figure 5 sequence *)
  | Block_yield
      (** BSWY: BSW with the Figure 7 scheduling hints — the client
          busy-waits after really waking the server and before clearing
          its flag; the server yields once before blocking. *)
  | Limited_spin of int
      (** BSLS: poll up to MAX_SPIN times, then run the Figure 5
          sequence *)
  | Handoff
      (** §6: BSWY with every hint an explicit handoff — to the server
          from a client, to whoever is best from the server. *)
  | Adaptive of int
      (** Adaptive BSLS: per-channel MAX_SPIN, adjusted from the observed
          spin-success rate and capped by the argument.  A spin episode
          that ends with a message visible grows the budget
          ([cur <- min cap (2*cur + 8)]); an exhausted spin halves it.  At
          [cur = 0] the code path is BSW's consumer sequence, so idle
          channels pay nothing for the option to spin.  Driven by the
          host's monotonic clock, so only the real backends run it. *)

type side = Client | Server
(** Which end of the session the calling process is: selects the
    consumer's hints and attributes instrumentation counters. *)

val blocks : waiting -> bool
(** Whether the mode may put a consumer to sleep on its semaphore — every
    mode but [Spin] — so that producers must wake it. *)

val validate : who:string -> ?host:bool -> waiting -> waiting
(** The one budget check of every session constructor.  Rejects negative
    budgets and, when [host] (default [true]) and the host has a single
    CPU, clamps [Limited_spin]/[Adaptive] budgets to 0: no spin can pay
    off when the peer cannot run concurrently.  The simulator passes
    [~host:false] — its CPU count is the simulated machine's.
    @raise Invalid_argument ["<who>: max_spin must be non-negative"] or
    ["<who>: adaptive spin cap must be non-negative"]. *)

module Make (S : Substrate.S) : sig
  (** The labelled steps of the paper's figures, over [S]'s primitives.
      See {!Prims} (the simulator instantiation) for per-function
      commentary. *)
  module Prims : sig
    type nonrec side = side = Client | Server

    val flow_enqueue : S.t -> S.channel -> S.msg -> unit
    val wake_consumer : S.t -> S.channel -> target:side -> bool

    type empty_hint = No_hint | Hint_busy_wait | Hint_handoff_server
    (** The scheduling hint run between a failed first dequeue (C.1) and
        clearing the awake flag: nothing, the §2.1 busy-wait (BSWY,
        BSLS), or the §6 hand-off.  An enumeration, not a closure, so
        hinted consumers stay allocation-free. *)

    val take_credit : S.t -> S.channel -> int -> unit
    (** [take_credit s ch 0]: a non-blocking P retried, with short
        back-off waits, until it takes a credit — for a consumer that
        knows a producer's V is imminent (it saw the producer's
        test-and-set).  The count argument is the loop's failed waits. *)

    val drain_raced_wakeup : S.t -> S.channel -> unit
    (** The Interleaving-3 fix-up: restore the awake flag and absorb the
        semaphore credit of a producer that signalled between C.2 and
        C.3.  Exposed for consumers that leave the blocking loop by a
        side door (e.g. a TIMED receive) and must rebalance the credit
        themselves. *)

    val blocking_dequeue : S.t -> S.channel -> side:side -> empty_hint -> S.msg
  end

  val wait_for_room : S.t -> waiting -> int -> unit
  (** One back-off of a producer that found no room (full queue, or an
      exhausted payload slab): [busy_wait] for [Spin], otherwise a
      counted [flow_sleep].  The int is the caller's retry loop's count
      of failed waits so far, from 0 (see {!Substrate.S.busy_wait}). *)

  val produce : S.t -> waiting -> S.channel -> target:side -> S.msg -> bool
  (** The producer half: enqueue on the channel (backing off per
      {!wait_for_room} while it is full), then — unless [Spin] — the
      tas-guarded conditional wake-up of its consumer.  Returns whether a
      V was actually issued. *)

  val consume :
    S.t -> waiting -> S.channel -> side:side -> budget:int Atomic.t -> S.msg
  (** The consumer half: the next message on the channel, waiting per the
      mode.  [budget] is the channel's adaptive MAX_SPIN cell, read and
      written by [Adaptive] only; its owner is the channel's unique
      consumer. *)

  val send :
    S.t ->
    waiting ->
    req:S.channel ->
    reply:S.channel ->
    budget:int Atomic.t ->
    S.msg ->
    S.msg
  (** A synchronous call: {!produce} on [req], the post-wake hint of BSWY
      and HANDOFF, then the client {!consume} on [reply] with [reply]'s
      [budget].  Counts a send. *)

  val receive : S.t -> waiting -> S.channel -> budget:int Atomic.t -> S.msg
  (** The server {!consume}.  Counts a receive. *)

  val reply : S.t -> waiting -> S.channel -> S.msg -> unit
  (** {!produce} towards a client.  Counts a reply. *)
end
