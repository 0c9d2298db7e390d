(* The time-bounded, preemption-aware grace spin of both real backends:
   the paper's BSLS spin-then-block rule (§5, Figure 9) with wall time
   as the bound.  It polls a caller-supplied function until the poll
   returns something other than [miss], or until the grace is over.

   Two callers use it.  [Real_substrate.await] and [Proc_substrate.await]
   poll their channel's ring with the awake flag still set, before the
   consumer's C.2 — the waiting a synchronous pair does on nearly every
   hop.  [Rsem.p]'s standalone default polls the count before parking,
   for semaphores used outside the protocol core.  The count-driven
   back-off ladder at the end of this file is the other wait discipline
   of both backends.

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

external sched_yield : unit -> unit = "ulipc_sched_yield"

external nanosleep_ns : int -> unit = "ulipc_nanosleep_ns"
(* Not [@@noalloc]: the stub releases the runtime lock around the
   nanosleep (a sleeper must not stall other domains' GC), which the
   noalloc calling convention does not allow.  The call itself still
   allocates nothing — int argument, unit result. *)

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
      sched_yield ();
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

(* The back-off ladder: what one failed wait of a retry loop does,
   given how many waits that loop has already failed.  It serves the
   paper's §2.1 busy-wait (BSS, and the producer of a full queue), whose
   pathology is an oversubscribed host: a pause never gives the CPU
   away, so a spinner holds its core for a whole scheduler quantum
   while the peer it waits for cannot run (7.48 ms per BSS round trip
   on one CPU, before any back-off).  So the ladder climbs:

   - pauses, for the first [pause_waits] failures on a multiprocessor,
     where the awaited value can be a few µs away, and for the first
     failure only on a uniprocessor: wait 0 is also every one-shot
     hint (BSWY's), and a pause there leaves giving the CPU away to
     the protocol's next step, a park (a yield there made the pinned
     BSWY round trip slower: EXPERIMENTS.md, "The wait loop keeps its
     own spin count");
   - sched_yield up to [sleep_after] failures, which hands a peer
     sharing this CPU the rest of the quantum and returns at once when
     no one else is runnable;
   - then a bounded park, doubling per failure from its first length
     to its cap.  Its length is fixed at the call site: the consumer
     of a request shard parks [short] (a request can land at any
     moment and its wake latency is half a round trip), every other
     waiter parks long enough to cover a server turnaround in one park,
     because each early wake preempts the very thread it waits for.
     The caps stay low: a park costs its timer floor plus its length,
     so a long cap buys no CPU relief and adds to the peer's wake
     latency.

   The count lives in the loop that waits, as a plain int from 0: a
   loop that exits has made progress, so the next wait starts again at
   the bottom and nothing is written on a success path. *)

type rung = Pause | Yield | Sleep

let pause_waits = 64
let sleep_after = 256
let short_park_ns = 1_000
let short_park_cap_ns = 10_000
let long_park_ns = 20_000
let long_park_cap_ns = 50_000

let rung ~multicore n =
  if n >= sleep_after then Sleep
  else if n = 0 || (multicore && n < pause_waits) then Pause
  else Yield

let park_ns ~short n =
  let doublings = min 6 (max 0 (n - sleep_after)) in
  if short then min short_park_cap_ns (short_park_ns lsl doublings)
  else min long_park_cap_ns (long_park_ns lsl doublings)

let multicore = default > 0

let backoff ~short n =
  match rung ~multicore n with
  | Pause ->
    Domain.cpu_relax ();
    false
  | Yield ->
    sched_yield ();
    false
  | Sleep ->
    nanosleep_ns (park_ns ~short n);
    true
