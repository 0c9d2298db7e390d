(* The time-bounded, preemption-aware grace spin of both real backends:
   the paper's BSLS spin-then-block rule (§5, Figure 9) with wall time
   as the bound.  It polls a caller-supplied function until the poll
   returns something other than [miss], or until the grace is over.

   Two callers use it.  [Real_substrate.await] and [Proc_substrate.await]
   poll their channel's ring with the awake flag still set, before the
   consumer's C.2 — the waiting a synchronous pair does on nearly every
   hop.  [Rsem.p]'s standalone default polls the count before parking,
   for semaphores used outside the protocol core.

   The bound is wall time, not an iteration count, because what it must
   outlast is the peer's park→wake: one kernel sleep/wake on a 2-CPU x86
   VM costs 5–13 µs.  A grace shorter than that (64 pauses is ~1.5 µs)
   makes a synchronous pair BISTABLE: once one side parks, its reply
   arrives a full wake latency later, so the peer's grace always runs
   out first and it parks too — every call then pays two kernel round
   trips.  [grace_ns] is 20 µs, about twice the slowest park→wake seen:
   the competitive spin-then-block bound, since a waiter never spends
   more than twice what parking would have cost it.

   Three properties keep the spin cheap where it cannot pay:

   - Descheduling ends the grace.  The clock is read once every
     [pauses_per_check] pauses (~0.4 µs); two reads more than
     [desched_gap_ns] apart mean this thread lost its CPU, i.e. runnable
     threads outnumber CPUs, and every further pause only delays the
     peer it is waiting for (Figure 11's positive feedback).  The guard
     observes oversubscription; no flag declares it.
   - The spinner offers its CPU every [yield_every_ns] (2 µs) with one
     sched_yield.  The guard cannot see the opposite case, where the
     peer sits runnable on THIS CPU and the spinner is never preempted
     within the grace.  Linux starts a new domain on its parent's CPU
     and may leave it there for a long time (up to ~1 s on the 2-vCPU
     VM), so a fresh pair often shares one CPU.  Without the yield every
     wait there burns the whole grace; with it the pair hands the CPU
     back and forth at ~1–2 µs per round trip.  A poll answered within
     2 µs never yields, so a busy CPU is not given away.
   - On a uniprocessor the grace is 0 ([for_cpus 1]): nothing can
     arrive while this thread spins, so [run] returns at once.

   The loop is top-level recursion over a poll function and its
   argument, not a closure: callers pass a top-level function (a static
   closure), so a wait allocates nothing on the zero-allocation message
   plane. *)

let grace_ns = 20_000
let desched_gap_ns = 3_000
let yield_every_ns = 2_000
let pauses_per_check = 16
let for_cpus cpus = if cpus <= 1 then 0 else grace_ns

(* Resolved once: recommended_domain_count consults the machine. *)
let default = for_cpus (Domain.recommended_domain_count ())

let stop_spinning ~deadline ~prev ~now =
  now >= deadline || now - prev > desched_gap_ns

(* [prev] is the previous clock read, [yield_at] the time of the next
   yield, and [pauses] the pauses left before the next clock read. *)
let rec loop poll x ~miss ~deadline ~prev ~yield_at pauses =
  let r = poll x in
  if r != miss then r
  else if pauses > 0 then begin
    Domain.cpu_relax ();
    loop poll x ~miss ~deadline ~prev ~yield_at (pauses - 1)
  end
  else begin
    let now = Ulipc_observe.Clock.now_ns () in
    if stop_spinning ~deadline ~prev ~now then miss
    else if now >= yield_at then begin
      Backoff.sched_yield ();
      loop poll x ~miss ~deadline ~prev:now ~yield_at:(now + yield_every_ns)
        pauses_per_check
    end
    else loop poll x ~miss ~deadline ~prev:now ~yield_at pauses_per_check
  end

let run ~grace poll x ~miss =
  if grace <= 0 then miss
  else begin
    let now = Ulipc_observe.Clock.now_ns () in
    loop poll x ~miss ~deadline:(now + grace) ~prev:now
      ~yield_at:(now + yield_every_ns) pauses_per_check
  end
