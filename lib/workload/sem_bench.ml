(* Wake-latency measurement for the waiting-array semaphore: park a
   population of waiters, deliver one directed credit at a time, and
   recover the V -> woken-waiter-runs latency distribution through the
   causal trace analysis — the pipeline that proves (or refutes) the
   claim the waiting array exists for: p99 wake latency stays flat as
   the parked population grows 2 -> 512.

   Waiters are systhreads, not domains: OCaml caps domains near the
   core-count scale (the sharded driver already stops at 96 client
   domains), while the 512-waiter point of the sweep needs five hundred
   concurrently parked entities.  Threads park and wake through the
   same futex slot words as domains and fork'd processes — what the
   sweep measures is the semaphore's wake discipline, not domain
   parallelism.

   Events are assembled from per-waiter stamp arrays rather than
   recorded through {!Ulipc_real.Trace_ring}: the ring is per-domain
   and unsynchronised by design, so hundreds of threads of one domain
   recording into it would race.  Each waiter owns two cells of
   pre-sized arrays (no sharing, no allocation during measurement); the
   granter owns two more per credit.  The assembled stream carries one
   actor per waiter with contiguous sequence numbers, so the full
   violation checker applies.

   Two disciplines make the causal pairing exact rather than merely
   plausible:

   - SERIAL PARKING.  The analysis pairs a Wake with the oldest pending
     Block by timestamp; the semaphore serves park tickets in claim
     order.  A park storm can claim tickets in a different order than
     the Block stamps were taken (stamp and ticket are two
     instructions), which the analysis would misread as a
     wake-without-dequeue.  Waiter [i] therefore stamps its Block only
     once [i] waiters are already committed ([Rsem.parked] = i), which
     pins stamp order to ticket order.
   - PACED GRANTS.  Each credit is posted only after the previous
     waiter's Dequeue stamp is published, so every sample is one
     complete signal -> schedule -> run handoff with no grant queueing
     behind the granter's own loop.  Bulk grants would measure the
     granter's loop length (linear in the population), burying exactly
     the per-wake flatness the sweep exists to show.

   Small populations repeat the whole park-and-drain round until
   [target_samples] latencies are collected, so the 2-waiter and
   512-waiter rows rest on comparable sample counts. *)

type result = {
  waiters : int;
  reps : int;  (** park-and-drain rounds run *)
  samples : float array;  (** per-wake latency, us, sorted ascending *)
  p50_us : float;
  p99_us : float;
  max_us : float;
  violations : int;  (** trace-invariant violations across all rounds *)
  broadcasts : int;
      (** grants that hit a generation-shared slot (0 when the array is
          sized to the population) *)
}

let nearest_rank sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else begin
    let rank = int_of_float (Float.ceil (q /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))
  end

(* Sleep-poll, never spin: a [Thread.yield] loop on a single CPU can
   keep winning the scheduler against the very thread it is waiting for
   (the sleeper's vruntime is behind after blocking), which showed up as
   millisecond wake-latency bursts that belong to the harness, not the
   semaphore.  [Thread.delay] releases both the runtime lock and the
   CPU, so the awaited thread runs at once; the poll granularity only
   delays the {e next} grant, never a measured stamp interval. *)
let await ~what pred =
  let deadline = Unix.gettimeofday () +. 60.0 in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Thread.delay 20e-6
  done;
  if not (pred ()) then
    failwith ("Sem_bench: timed out waiting for " ^ what ^ " (lost wake-up?)")

(* One park-and-drain round: returns (wake-latency samples, violation
   count, shared-slot broadcasts). *)
let round ~slots ~waiters:n =
  let s = Ulipc_real.Rsem.create ~spin:0 ~slots 0 in
  let block_ns = Array.make n 0 in
  let deq_ns = Array.make n 0 in
  let enq_ns = Array.make n 0 in
  let wake_ns = Array.make n 0 in
  let released = Atomic.make 0 in
  let threads =
    List.init n (fun i ->
        Thread.create
          (fun () ->
            await ~what:"park turn" (fun () -> Ulipc_real.Rsem.parked s = i);
            block_ns.(i) <- Ulipc_observe.Clock.now_ns ();
            Ulipc_real.Rsem.p s;
            deq_ns.(i) <- Ulipc_observe.Clock.now_ns ();
            Atomic.incr released)
          ())
  in
  await ~what:"all waiters parked" (fun () -> Ulipc_real.Rsem.parked s = n);
  for k = 0 to n - 1 do
    enq_ns.(k) <- Ulipc_observe.Clock.now_ns ();
    wake_ns.(k) <- Ulipc_observe.Clock.now_ns ();
    Ulipc_real.Rsem.v s;
    await ~what:"directed wake" (fun () -> Atomic.get released > k)
  done;
  List.iter Thread.join threads;
  (* Waiter [i] is actor [i + 1] (Block seq 0, Dequeue seq 1); the
     granter is actor 0 (Enqueue seq 2k, Wake seq 2k+1).  One channel. *)
  let us ns = float_of_int ns /. 1.0e3 in
  let events = ref [] in
  let push t_us actor seq kind =
    events :=
      { Ulipc_observe.Event.t_us; actor; seq; chan = 0; kind } :: !events
  in
  for i = 0 to n - 1 do
    push (us block_ns.(i)) (i + 1) 0 Ulipc_observe.Event.Block;
    push (us deq_ns.(i)) (i + 1) 1 Ulipc_observe.Event.Dequeue;
    push (us enq_ns.(i)) 0 (2 * i) Ulipc_observe.Event.Enqueue;
    push (us wake_ns.(i)) 0 ((2 * i) + 1) Ulipc_observe.Event.Wake
  done;
  let report = Ulipc_observe.Trace_analysis.analyse ~complete:true !events in
  let samples =
    List.map Ulipc_observe.Trace_analysis.pair_us
      report.Ulipc_observe.Trace_analysis.wake_pairs
  in
  ( samples,
    List.length report.Ulipc_observe.Trace_analysis.violations,
    Ulipc_real.Rsem.shared_slot_broadcasts s )

let wake_latency ?slots ?(target_samples = 256) ~waiters () =
  if waiters < 1 then invalid_arg "Sem_bench.wake_latency: waiters < 1";
  let slots = match slots with Some k -> k | None -> waiters in
  let reps = max 1 ((target_samples + waiters - 1) / waiters) in
  let samples = ref [] and violations = ref 0 and broadcasts = ref 0 in
  for _ = 1 to reps do
    let s, v, b = round ~slots ~waiters in
    samples := List.rev_append s !samples;
    violations := !violations + v;
    broadcasts := !broadcasts + b
  done;
  let samples = Array.of_list !samples in
  Array.sort Float.compare samples;
  {
    waiters;
    reps;
    samples;
    p50_us = nearest_rank samples 50.0;
    p99_us = nearest_rank samples 99.0;
    max_us =
      (if Array.length samples = 0 then nan
       else samples.(Array.length samples - 1));
    violations = !violations;
    broadcasts = !broadcasts;
  }
