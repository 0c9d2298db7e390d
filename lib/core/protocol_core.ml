(* The substrate-parametric protocol core: every sleep/wake-up protocol of
   the paper, written once against the Substrate.S primitives and
   instantiated over the simulator (Sim_protocols), real OCaml 5 domains
   (Ulipc_real.Rpc) and fork'd processes (Ulipc_procipc.Proc_rpc).
   Nothing in this file knows whether time is simulated or real.

   The six protocols are one algorithm.  They share the producer steps
   P.1–P.3 and the consumer sequence C.1–C.5 and differ only in what a
   waiting side does, so the protocol is a [waiting] value and the
   channel is an explicit argument: [produce] and [consume] are the two
   halves, and every substrate composes its send/receive/reply/post/
   collect from them on whichever channels its session shape dictates
   (a sharded request plane, one request queue, a simulated session). *)

type waiting =
  | Spin
  | Block
  | Block_yield
  | Limited_spin of int
  | Handoff
  | Adaptive of int

type side = Client | Server

let blocks = function
  | Spin -> false
  | Block | Block_yield | Limited_spin _ | Handoff | Adaptive _ -> true

let validate ~who ?(host = true) waiting =
  (match waiting with
  | Limited_spin max_spin when max_spin < 0 ->
    invalid_arg (who ^ ": max_spin must be non-negative")
  | Adaptive cap when cap < 0 ->
    invalid_arg (who ^ ": adaptive spin cap must be non-negative")
  | Spin | Block | Block_yield | Limited_spin _ | Handoff | Adaptive _ -> ());
  (* On a single-core host a spinning consumer occupies the only CPU its
     producer could use, so no spin budget can ever pay off — the paper's
     own uniprocessor rule (§2.1: yield, never spin).  Clamp the adaptive
     cap to 0 there: the controller then runs BSW's exact consumer path
     (one extra queue-occupancy load) instead of re-learning futility per
     channel.  BSLS gets the same clamp: traces showed every BSLS(50)
     spin on a uniprocessor burning its full budget *inside the peer's
     already-signalled wake path* (spin exhausts ~= blocks, EXPERIMENTS
     "anomaly 1"), so a clamped budget of 0 skips the poll loop entirely
     and the path is BSW plus the busy-wait hint.  Drivers still report
     the protocol under its requested name — the clamp changes the budget
     actually spent, not the protocol asked for. *)
  if (not host) || Domain.recommended_domain_count () > 1 then waiting
  else
    match waiting with
    | Adaptive _ -> Adaptive 0
    | Limited_spin _ -> Limited_spin 0
    | Spin | Block | Block_yield | Handoff -> waiting

module Make (S : Substrate.S) = struct
  (* What a producer does when there is no room — a full queue, or on the
     real backends an exhausted payload slab: BSS busy-waits; every
     blocking protocol sleeps, counted, because a full queue means the
     consumer is saturated (the paper sleeps one second).  [n] is the
     retry loop's count of failed waits (see Substrate.S.busy_wait):
     every wait loop here carries its own, from 0, and a loop that
     exits has made progress, so the next one starts at 0 again. *)
  let wait_for_room s waiting n =
    match waiting with
    | Spin -> S.busy_wait s ~short:false n
    | Block | Block_yield | Limited_spin _ | Handoff | Adaptive _ ->
      let c = S.counters s in
      c.Counters.queue_full_sleeps <- c.Counters.queue_full_sleeps + 1;
      S.flow_sleep s n

  let rec enqueue s waiting ch msg n =
    if not (S.enqueue s ch msg) then begin
      wait_for_room s waiting n;
      enqueue s waiting ch msg (n + 1)
    end

  module Prims = struct
    type nonrec side = side = Client | Server

    let flow_enqueue s ch msg = enqueue s Block ch msg 0

    let wake_consumer s ch ~target =
      if not (S.awake_test_and_set s ch) then begin
        let c = S.counters s in
        (match target with
        | Client -> c.Counters.client_wakeups <- c.Counters.client_wakeups + 1
        | Server -> c.Counters.server_wakeups <- c.Counters.server_wakeups + 1);
        S.sem_v s ch;
        true
      end
      else false

    (* Emptiness is the [S.no_msg] sentinel, compared physically: for
       immediate messages (the real backend's slab indices) [==] is
       value equality and costs one compare, for boxed messages it is a
       pointer compare against the substrate's one distinguished block —
       either way the empty path allocates nothing, where an option
       return would box every successful dequeue.

       The wait loops below are module-level recursive functions, not
       local [let rec]s: a local loop would capture its environment in a
       closure allocated on every call (this project does not assume
       flambda), and these loops ARE the per-message consumer path of
       the zero-allocation message plane. *)
    let rec spinning_dequeue s ch ~side n =
      let m = S.dequeue s ch in
      if m != S.no_msg then m
      else begin
        let short = match side with Server -> true | Client -> false in
        S.busy_wait s ~short n;
        spinning_dequeue s ch ~side (n + 1)
      end

    (* A one-shot §2.1 hint: wait number 0, never a park. *)
    let hint s = S.busy_wait s ~short:false 0

    let count_block s = function
      | Client ->
        let c = S.counters s in
        c.Counters.client_blocks <- c.Counters.client_blocks + 1
      | Server ->
        let c = S.counters s in
        c.Counters.server_blocks <- c.Counters.server_blocks + 1

    (* The Interleaving-3 repair: the second dequeue (C.3) succeeded, so
       restore the flag with test-and-set.  If a producer already set it,
       that producer issued — or is just about to issue — a V we must
       consume, or wake-ups would accumulate and fire the *next* block
       sequence spuriously.  The drain is a non-blocking P (Figure 5),
       retried through the tiny window between the producer's test-and-set
       and its V, so no stale V is ever left behind.  That V is imminent,
       so the retries park short. *)
    let rec take_credit s ch n =
      if not (S.sem_try_p s ch) then begin
        S.busy_wait s ~short:true n;
        take_credit s ch (n + 1)
      end

    let drain_raced_wakeup s ch =
      if S.awake_test_and_set s ch then begin
        let c = S.counters s in
        c.Counters.race_fix_p <- c.Counters.race_fix_p + 1;
        take_credit s ch 0
      end

    (* What to do between a failed first dequeue (C.1) and the substrate's
       [await]: nothing (BSW), the §2.1 busy-wait hint (BSWY, BSLS) or
       the §6 hand-off (HANDOFF).  An enumeration rather than a
       closure on purpose — a [~on_empty:(fun () -> ...)] argument
       capturing the substrate would allocate a closure on every
       consumer call, and the zero-copy message plane promises an
       allocation-free round-trip.  Passed positionally, not as an
       optional argument, for the same reason: a computed [?on_empty]
       would box its [Some] per call. *)
    type empty_hint = No_hint | Hint_busy_wait | Hint_handoff_server

    (* [S.await] waits on the message, not on the semaphore: more C.1
       dequeues with the flag still set, so a producer finds the
       consumer awake and issues no V.  It writes neither the flag nor
       the semaphore, so whether it returns a message or gives up, the
       sequence below is the paper's, unchanged. *)
    let rec blocking_dequeue s ch ~side on_empty =
      let m = S.dequeue s ch in
      (* C.1 *)
      if m != S.no_msg then m
      else begin
        (match on_empty with
        | No_hint -> ()
        | Hint_busy_wait -> hint s
        | Hint_handoff_server -> S.handoff_server s);
        let m = S.await s ch in
        if m != S.no_msg then m
        else begin
          S.awake_clear s ch;
          (* C.2 *)
          let m = S.dequeue s ch in
          (* C.3 *)
          if m != S.no_msg then begin
            drain_raced_wakeup s ch;
            m
          end
          else begin
            count_block s side;
            S.sem_p s ch;
            (* C.4 *)
            S.awake_set s ch;
            (* C.5 *)
            blocking_dequeue s ch ~side on_empty
          end
        end
      end

    let bump_spin_iter s side =
      let c = S.counters s in
      match side with
      | Client -> c.Counters.spin_iterations <- c.Counters.spin_iterations + 1
      | Server ->
        c.Counters.server_spin_iterations <-
          c.Counters.server_spin_iterations + 1

    let bump_spin_fall s ch side =
      let c = S.counters s in
      (match side with
      | Client ->
        c.Counters.spin_fallthroughs <- c.Counters.spin_fallthroughs + 1
      | Server ->
        c.Counters.server_spin_fallthroughs <-
          c.Counters.server_spin_fallthroughs + 1);
      S.note_spin_exhausted s ch

    let rec limited_spin_loop s ch ~side ~max_spin spincnt =
      if S.queue_is_empty s ch then
        if spincnt < max_spin then begin
          bump_spin_iter s side;
          S.poll s ch;
          limited_spin_loop s ch ~side ~max_spin (spincnt + 1)
        end
        else bump_spin_fall s ch side

    let limited_spin s ch ~side ~max_spin =
      limited_spin_loop s ch ~side ~max_spin 0
  end

  open Prims

  (* The producer half: Figure 1's spinning enqueue for BSS; for every
     blocking protocol the flow-controlled enqueue (P.1) and the
     tas-guarded conditional wake-up (P.2–P.3). *)
  let produce s waiting ch ~target msg =
    enqueue s waiting ch msg 0;
    blocks waiting && wake_consumer s ch ~target

  (* Adaptive BSLS: the BSLS code path with a per-channel MAX_SPIN that
     tracks the observed spin-success rate.  A spin episode that ends with
     a visible message (hit) grows the budget multiplicatively,
     [cur <- min cap (2*cur + 8)]; an exhausted spin (miss) halves it, and
     a miss at or below the kick size drops it straight to 0.  The +8
     additive kick lets a budget of 0 restart: at [cur = 0] a
     queue-occupancy load stands in for the spin, so an arriving message
     still reads as a hit.  At [cap = 0] no budget can ever grow — the
     controller is skipped entirely and the path is exactly BSW's
     consumer sequence, which is what [validate]'s single-core clamp
     relies on (never-spin must cost nothing next to BSW).

     A hit only counts if the spin stayed on the CPU: a spin whose wall
     time far exceeds its iteration budget was descheduled mid-spin, and
     a message visible on resume was delivered by the preemption, not the
     polling.  Crediting those turns oversubscription into the paper's
     Figure 11 positive feedback — preemption causes hits, hits grow the
     budget, longer spins cause more preemption — driving the budget to
     its cap exactly when spinning is most harmful.  The elapsed-time
     guard (two CLOCK_MONOTONIC reads, only on the [cur > 0] path) makes
     every descheduled spin a miss, so on a saturated host the budget
     decays to 0 and ADAPT converges to BSW.  The clock must be monotonic:
     a wall-clock step during the spin would read as a huge (or negative)
     elapsed time and poison the learned budget.  Integer nanoseconds end
     to end ([Clock.now_ns]) so the guard allocates no floats.  The clock
     is the host's, which is why the simulator runs ADAPT as BSLS. *)
  let adaptive_dequeue s ch ~side ~cap ~budget =
    if cap = 0 then blocking_dequeue s ch ~side No_hint
    else begin
      let cur = Atomic.get budget in
      let productive =
        if cur = 0 then not (S.queue_is_empty s ch)
        else begin
          let t0 = Ulipc_observe.Clock.now_ns () in
          limited_spin s ch ~side ~max_spin:cur;
          let spin_ns = Ulipc_observe.Clock.now_ns () - t0 in
          (* ~10 ns per cpu_relax iteration plus 1 µs of clock-granularity
             slack: a genuine early exit sits under this, while even one
             context-switch round (the cheapest way off the CPU and back)
             costs several µs and lands over it. *)
          (not (S.queue_is_empty s ch)) && spin_ns < 1_000 + (cur * 10)
        end
      in
      if productive then Atomic.set budget (min cap ((2 * cur) + 8))
      else
        (* A miss at or below the additive kick collapses straight to 0
           rather than decaying 8 -> 4 -> 2 -> 1 -> 0: the decay tail is
           four more missed episodes, each paying two clock reads and its
           leftover polls, before the channel returns to the blocking
           path — and every spurious hit restarts it.  With the collapse
           one miss undoes one kick, so the budget is non-zero only while
           hits actually recur and ADAPT's floor is provably BSW: at
           [cur = 0] the only per-message overhead is the one
           queue-occupancy probe. *)
        Atomic.set budget (if cur <= 8 then 0 else cur / 2);
      blocking_dequeue s ch ~side Hint_busy_wait
    end

  (* The consumer half.  Clients of BSWY and BSLS (and ADAPT) busy-wait
     once before clearing their flag (Figures 7 and 9), HANDOFF clients
     hand off to the server instead; a BSWY or HANDOFF server first takes
     any pending request — that is what lets it batch under several
     clients — and only then gives the CPU away (yield, or handoff to
     PID_ANY) before its blocking sequence.

     [Limited_spin 0] skips the poll loop rather than entering it: the
     loop would charge a fall-through (and, in the simulator, a
     shared-memory read) per empty check, and a never-spinning budget —
     what [validate]'s single-core clamp produces — must cost nothing
     next to BSW.

     An asynchronous [collect] is this client half on every substrate,
     hints and polls included, so a posted call waits exactly as a
     synchronous [send] would.  [budget] is an [int Atomic.t] on every
     substrate too: only its channel's consumer writes it, and the
     Atomic publishes it across domains (fork'd processes each own a
     copy). *)
  let consume s waiting ch ~side ~budget =
    match (waiting, side) with
    | Spin, _ -> spinning_dequeue s ch ~side 0
    | Block, _ -> blocking_dequeue s ch ~side No_hint
    | Block_yield, Client -> blocking_dequeue s ch ~side Hint_busy_wait
    | Handoff, Client -> blocking_dequeue s ch ~side Hint_handoff_server
    | (Block_yield | Handoff), Server ->
      let m = S.dequeue s ch in
      if m != S.no_msg then m
      else begin
        (match waiting with Handoff -> S.handoff_any s | _ -> S.yield s);
        blocking_dequeue s ch ~side No_hint
      end
    | Limited_spin max_spin, _ ->
      if max_spin > 0 then limited_spin s ch ~side ~max_spin;
      blocking_dequeue s ch ~side
        (match side with Client -> Hint_busy_wait | Server -> No_hint)
    | Adaptive cap, _ -> adaptive_dequeue s ch ~side ~cap ~budget

  let send s waiting ~req ~reply ~budget msg =
    if produce s waiting req ~target:Server msg then begin
      (* We really did wake the server: let it run (Figure 7), or hand
         it the CPU outright (§6). *)
      match waiting with
      | Block_yield -> hint s
      | Handoff -> S.handoff_server s
      | Spin | Block | Limited_spin _ | Adaptive _ -> ()
    end;
    let ans = consume s waiting reply ~side:Client ~budget in
    let c = S.counters s in
    c.Counters.sends <- c.Counters.sends + 1;
    ans

  let receive s waiting ch ~budget =
    let m = consume s waiting ch ~side:Server ~budget in
    let c = S.counters s in
    c.Counters.receives <- c.Counters.receives + 1;
    m

  let reply s waiting ch msg =
    let (_ : bool) = produce s waiting ch ~target:Client msg in
    let c = S.counters s in
    c.Counters.replies <- c.Counters.replies + 1
end
