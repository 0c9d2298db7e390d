(* Bounded exponential backoff for the busy-wait loops of the real
   backend, with per-domain state in domain-local storage.

   The BSS pathology this repairs: on an oversubscribed host (more
   spinners than cores — the extreme being every protocol run on a
   single-CPU box), [Domain.cpu_relax] never yields the OS thread, so a
   spinning domain holds its core for a full scheduler quantum
   (milliseconds) while the peer it is waiting for cannot run.  The
   repair is the paper's §2.1 busy-wait-vs-yield distinction: after a
   bounded spin the waiter must give the CPU away, which for OCaml
   domains means a real (bounded, exponentially growing) nanosleep —
   the portable spelling of sched_yield.

   Both roles get the same small spin budget: on one CPU a spinning
   domain is not preempted when its peer is woken, so every spin
   iteration past the handful that covers a multiprocessor's
   imminent-value window adds directly to the round-trip.  What is
   role-specific is the park length (see below): the server parks
   short because a request can land at any moment, while a client
   parks long enough to cover a whole server turnaround in a single
   park — each early wake preempts the very domain it is waiting for.
   The long client parks are also what stops oversubscribed BSS
   clients from starving each other: every client spends almost all
   of its waiting time parked in the kernel, not burning quanta.

   An episode is the run of failed waits since this domain last made
   progress (a successful enqueue or dequeue); progress resets the
   spin count and the sleep duration.

   All state and arithmetic are integer nanoseconds, and the park is a
   direct nanosleep stub taking a tagged int: the sleep path allocates
   nothing (a [Unix.sleepf] park would box the float duration and every
   [Float.min/max] bound on it), so backoff never perturbs the zero-
   allocation message plane it serves. *)

type t = {
  mutable spins : int; (* failed waits this episode *)
  mutable sleep_ns : int; (* next sleep duration, grows exponentially *)
  mutable server_side : bool;
      (* the wait in progress is the request channel's consumer *)
}

(* Budgets in cpu_relax iterations (~2-25 ns each).  On one CPU a
   spinning domain cannot be preempted by a woken peer until the next
   scheduler tick, so any spin longer than the peer's work adds
   directly to the round-trip; both sides therefore escalate to a real
   park quickly.  The small budget still covers the few-µs window where
   the awaited value is genuinely imminent on a multiprocessor. *)
let server_spin_budget = 256
let client_spin_budget = 256

(* Park lengths are role-specific, tuned to how long the awaited event
   actually takes (each domain also drops its Linux timer slack to
   1 ns — see [key] — so a park wakes at hrtimer precision, ~30 µs
   floor here, instead of the 50 µs default-slack tick):

   - the request-side consumer (the server) parks minimally: a request
     can land at any moment and its wake latency is the first half of
     every round-trip;
   - a producer / reply-side consumer parks long enough to cover one
     whole server turnaround (server wake + dequeue + reply) in a
     single park — waking early is worse than oversleeping, because
     each early wake preempts the very domain it is waiting for.

   Both still grow exponentially to their cap, which stays low: a park
   costs floor + requested, so a large cap buys no extra CPU relief but
   adds its full value to the peer's worst-case wake latency. *)
let server_min_sleep_ns = 1_000
let server_max_sleep_ns = 10_000
let client_min_sleep_ns = 20_000
let client_max_sleep_ns = 50_000

external set_timerslack_ns : int -> unit = "ulipc_set_timerslack_ns"

external nanosleep_ns : int -> unit = "ulipc_nanosleep_ns"
(* Not [@@noalloc]: the stub releases the runtime lock around the
   nanosleep (a sleeper must not stall other domains' GC), which the
   noalloc calling convention does not allow.  The call itself still
   allocates nothing — int argument, unit result. *)

external sched_yield : unit -> unit = "ulipc_sched_yield"

let key =
  Domain.DLS.new_key (fun () ->
      (* Timer slack is per-thread; ask for 1 ns the first time this
         domain backs off, so its parks wake at hrtimer precision
         (~30 µs here) instead of the 50 µs default-slack floor.
         No-op outside Linux. *)
      set_timerslack_ns 1;
      { spins = 0; sleep_ns = 0; server_side = false })

let get () = Domain.DLS.get key

let note_role t ~server_side = t.server_side <- server_side

(* One backoff step: cpu_relax within the episode's budget, then a
   bounded exponential sleep.  Returns [true] when the step slept. *)
let wait t =
  t.spins <- t.spins + 1;
  let budget =
    if t.server_side then server_spin_budget else client_spin_budget
  in
  if t.spins <= budget then begin
    Domain.cpu_relax ();
    false
  end
  else begin
    let lo, hi =
      if t.server_side then (server_min_sleep_ns, server_max_sleep_ns)
      else (client_min_sleep_ns, client_max_sleep_ns)
    in
    (* [sleep_ns = 0] means "fresh episode": start at the role's
       minimum; the clamp also handles a role change mid-episode. *)
    let d = min (max t.sleep_ns lo) hi in
    nanosleep_ns d;
    t.sleep_ns <- min (d * 2) hi;
    true
  end

let progress t =
  if t.spins > 0 then begin
    t.spins <- 0;
    t.sleep_ns <- 0
  end
