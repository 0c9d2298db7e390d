(* The cross-PROCESS instantiation of Ulipc.Substrate.S: every word the
   peers synchronise on — ring indices and slots, awake flags, futex
   semaphore counts, payload slots — lives in one mmap'd MAP_SHARED
   arena ({!Parena}), and the peers are fork'd processes, not domains.

   The OCaml records below are carved by the parent BEFORE forking and
   inherited copy-on-write: they hold word OFFSETS into the arena (plus
   process-private scratch like the backoff streak), so each child's
   private copy addresses the same shared words.  Nothing here is valid
   to create post-fork.

   Mapping of the Substrate.S primitives:

   - queue        -> {!Pring} flat rings on arena words (MPSC request
                     ring, one SPSC reply ring per client);
   - awake flag   -> one arena word, 0/1, test-and-set via the stub's
                     atomic exchange;
   - semaphore    -> {!Fsem}: two userspace atomics uncontended,
                     FUTEX_WAIT/FUTEX_WAKE contended — the kernel
                     sleep/wake-up the paper's blocking protocols need,
                     without a kernel queue object;
   - await        -> the in-process {!Ulipc_real.Grace} spin over the
                     ring's dequeue, with the awake flag still set;
   - messages     -> {!Pslab} slot indices, no_msg = -1, as in-process.

   [await] is what keeps a synchronous pair out of the parking regime.
   Fsem's own grace is a short spin (64 pauses, ~1.5 µs) that cannot
   outlast a peer's futex wake, so before [await] a pair that parked
   once kept parking on most calls.  [await] waits on the message for
   up to 20 µs while producers still see the consumer awake and issue
   no V; Fsem is reached only by a consumer whose peer really is idle.

   The scheduling hints differ from Real_substrate in one deliberate
   way: the peer is a separate PROCESS, so on a machine where the peers
   outnumber the CPUs a pause-hint spin burns the whole timeslice the
   peer needs (nothing preempts a spinning process early).  [busy_wait]
   therefore escalates cpu_relax -> sched_yield -> bounded nanosleep on
   a per-process failure streak, reset on every successful queue
   operation; on a multiprocessor the first rungs are pure userspace
   and the blocking protocols still park in the futex, untouched.

   Counters and trace events are PROCESS-LOCAL (each process accumulates
   into its own copy-on-write record); the fork driver marshals them
   back over a pipe and merges, so the published totals cover every
   process without a single shared cache line of instrumentation. *)

type channel = {
  queue : queue;
  awake_w : int; (* arena word: 0/1 consumer-awake flag *)
  sem : Fsem.t;
  chan_id : int; (* -1 = request channel, n >= 0 = reply channel n *)
}

and queue = Q_mpsc of Pring.Mpsc.t | Q_spsc of Pring.Spsc.t

type t = {
  arena : Parena.t;
  request_ch : channel;
  replies : channel array;
  slab : Pslab.t;
  counters : Ulipc.Counters.t; (* process-local; merged by the driver *)
  trace : Ulipc_real.Trace_ring.t option; (* process-local too *)
  multicore : bool;
  mutable streak : int; (* consecutive fruitless waits, process-local *)
}

type msg = int

let no_msg = Pslab.nil

external nanosleep_ns : int -> unit = "ulipc_nanosleep_ns"
external set_timerslack_ns : int -> unit = "ulipc_set_timerslack_ns"

let make_channel a ~chan_id queue =
  let awake_w = Parena.alloc_line a ~words:Parena.cache_line_words in
  Parena.set a awake_w 1 (* consumers start awake, as in-process *);
  { queue; awake_w; sem = Fsem.create a; chan_id }

let create ?trace ?slots ?(extra_words = 0) ~capacity ~nclients () =
  if nclients <= 0 then
    invalid_arg "Proc_substrate.create: nclients must be positive";
  Ulipc_real.Ring_layout.check_capacity ~who:"Proc_substrate.create" capacity;
  let slots =
    match slots with Some n -> n | None -> (nclients + 1) * (capacity + 1)
  in
  (* Sizing, an upper bound on what the carve below takes, so the bump
     allocator cannot run dry mid-carve.  Every aligned allocation may
     first skip up to [line - 1] words of padding.
     - Per channel (the request channel and one reply channel per
       client): the ring's span, [Pring.span_words] = two index lines
       plus one (seq, value) pair per slot, [2 * ring + 16]; the awake
       line (8); the Fsem's two lines (16); three allocations' padding.
     - Per client, one more line for the caller: the fork driver
       carves each client's telemetry word after [create].
     - The slab: three counter lines and three [slots]-word arrays, six
       allocations' padding.
     - 1024 words of fixed headroom (the driver's barrier lines), plus
       whatever [extra_words] the caller asks for. *)
  let ring = Ulipc_real.Ring_layout.ceil_pow2 capacity in
  let line = Parena.cache_line_words in
  let channel_words =
    Pring.span_words ~ring + line + (2 * line) + (3 * (line - 1))
  in
  let slab_words = (3 * line) + (3 * slots) + (6 * (line - 1)) in
  let size_words =
    1024
    + ((nclients + 1) * channel_words)
    + (nclients * line)
    + slab_words + extra_words
  in
  let arena = Parena.create ~size_words () in
  (* Tight timerslack before forking: PR_SET_TIMERSLACK is inherited
     across fork, so one call here covers every child's nanosleep
     parks (see Backoff for the in-process rationale). *)
  set_timerslack_ns 1;
  let request_ch =
    make_channel arena ~chan_id:(-1)
      (Q_mpsc (Pring.Mpsc.create arena ~capacity))
  in
  let replies =
    Array.init nclients (fun i ->
        make_channel arena ~chan_id:i (Q_spsc (Pring.Spsc.create arena ~capacity)))
  in
  let slab = Pslab.create arena ~slots in
  {
    arena;
    request_ch;
    replies;
    slab;
    counters = Ulipc.Counters.create ();
    trace;
    multicore = Domain.recommended_domain_count () > 1;
    streak = 0;
  }

let arena t = t.arena
let slab t = t.slab
let trace t = t.trace
let nclients t = Array.length t.replies
let multicore t = t.multicore
let request t = t.request_ch

let reply_channel t n =
  if n < 0 || n >= Array.length t.replies then
    invalid_arg (Printf.sprintf "Proc_substrate.reply_channel: no channel %d" n);
  t.replies.(n)

let emit t ch kind =
  match t.trace with
  | None -> ()
  | Some sink -> Ulipc_real.Trace_ring.record sink kind ~chan:ch.chan_id

let emit_at t ch kind ~t_ns =
  match t.trace with
  | None -> ()
  | Some sink ->
    Ulipc_real.Trace_ring.record_at sink kind ~t_ns ~chan:ch.chan_id

(* Same stamping discipline as Real_substrate: producer events (Enqueue,
   Wake) carry a clock read taken BEFORE the operation, consumer events
   after — a producer descheduled between operation and clock read must
   not let the dequeue's stamp precede the enqueue's. *)
let pre_stamp t =
  match t.trace with None -> 0 | Some _ -> Ulipc_observe.Clock.now_ns ()

let progress t = t.streak <- 0

let enqueue t ch m =
  let t_ns = pre_stamp t in
  let ok =
    match ch.queue with
    | Q_mpsc q -> Pring.Mpsc.enqueue q m
    | Q_spsc q -> Pring.Spsc.enqueue q m
  in
  if ok then begin
    progress t;
    emit_at t ch Ulipc_observe.Event.Enqueue ~t_ns
  end;
  ok

(* The ring's dequeue alone: what [await] polls. *)
let raw_dequeue ch =
  match ch.queue with
  | Q_mpsc q -> Pring.Mpsc.dequeue q
  | Q_spsc q -> Pring.Spsc.dequeue q

let dequeued t ch =
  progress t;
  emit t ch Ulipc_observe.Event.Dequeue

let dequeue t ch =
  let m = raw_dequeue ch in
  if m != no_msg then dequeued t ch;
  m

let note_spin_exhausted t ch = emit t ch Ulipc_observe.Event.Spin_exhaust

(* The in-process [await], over the arena ring: repeated C.1 with the
   flag still set, never a flag or semaphore write. *)
let await t ch =
  if Ulipc_real.Grace.default = 0 then no_msg
  else begin
    let m =
      Ulipc_real.Grace.run ~grace:Ulipc_real.Grace.default raw_dequeue ch
        ~miss:no_msg
    in
    if m != no_msg then dequeued t ch else note_spin_exhausted t ch;
    m
  end

let queue_is_empty _ ch =
  match ch.queue with
  | Q_mpsc q -> Pring.Mpsc.is_empty q
  | Q_spsc q -> Pring.Spsc.is_empty q

let queue_length _ ch =
  match ch.queue with
  | Q_mpsc q -> Pring.Mpsc.length q
  | Q_spsc q -> Pring.Spsc.length q

(* Awake flag: one shared word, exchange for the producers' TAS.  The
   consumer's clear is an exchange too, not a release store: it must be
   a full barrier, or the C.3 dequeue load that follows can pass it
   (x86 TSO lets a load overtake an earlier store to another word).  A
   producer would then still see the consumer awake and skip its V
   while the consumer, having seen the queue empty, sleeps for good.
   The domains backend's clear is an always-writing CAS for the same
   reason. *)
let awake_test_and_set t ch = Parena.at_xchg t.arena ch.awake_w 1 <> 0
let awake_clear t ch = ignore (Parena.at_xchg t.arena ch.awake_w 0 : int)
let awake_set t ch = Parena.at_store t.arena ch.awake_w 1
let awake_read t ch = Parena.at_load t.arena ch.awake_w <> 0

let sem_p t ch =
  emit t ch Ulipc_observe.Event.Block;
  Fsem.p ch.sem

let sem_try_p t ch =
  let ok = Fsem.try_p ch.sem in
  (* Successful non-blocking P = the C.3' drain of a raced wake-up;
     recorded so the credit algebra balances (see Real_substrate). *)
  if ok then emit t ch Ulipc_observe.Event.Wake_drain;
  ok

let sem_v t ch =
  emit t ch Ulipc_observe.Event.Wake;
  Fsem.v ch.sem

(* Timed P for dead-peer detection: NO Block event on purpose — a timed
   wait that expires would leave an unmatched Block in the credit
   algebra, and the timed path is a liveness probe outside the traced
   protocol (the trace runs use the untimed receive). *)
let sem_p_timed _ ch ~timeout_ns = Fsem.p_timed ch.sem ~timeout_ns

let slept t =
  let c = t.counters in
  c.Ulipc.Counters.backoff_sleeps <- c.Ulipc.Counters.backoff_sleeps + 1

(* Escalating cross-process wait (see header).  The rungs:
     1..64     pause hint       (multicore only — on a uniprocessor a
                                 pause never lets the peer run)
     ..256     sched_yield      (hands the quantum to the runnable peer)
     beyond    nanosleep 1us -> 2us -> ... capped at 50us
   The streak is process-local and reset by any successful queue
   operation, so a healthy session keeps re-earning the cheap rungs. *)
let busy_wait t =
  let n = t.streak + 1 in
  t.streak <- n;
  if t.multicore && n <= 64 then Domain.cpu_relax ()
  else if n <= 256 then Parena.sched_yield ()
  else begin
    let shift = min 6 ((n - 257) / 64) in
    nanosleep_ns (min 50_000 (1_000 lsl shift));
    slept t
  end

(* One BSLS poll slice: a pause hint keeps arrival latency minimal on a
   multiprocessor; on a uniprocessor only a yield can make the producer
   runnable at all. *)
let poll t _ = if t.multicore then Domain.cpu_relax () else Parena.sched_yield ()
let yield _ = Parena.sched_yield ()

(* No directed-handoff syscall exists for sibling processes either; the
   yield is the §6 approximation, same as in-process. *)
let handoff_server t =
  emit t t.request_ch Ulipc_observe.Event.Handoff;
  Parena.sched_yield ()

let handoff_any t =
  emit t t.request_ch Ulipc_observe.Event.Handoff;
  Parena.sched_yield ()

(* Full queue: the consumer process is saturated — sleep long enough
   that it actually runs (a yield alone can starve it behind other
   producers on a loaded box). *)
let flow_sleep t =
  nanosleep_ns 20_000;
  slept t

let counters t = t.counters

let wake_residue t =
  let req = Fsem.value t.request_ch.sem in
  Array.fold_left (fun acc ch -> acc + Fsem.value ch.sem) req t.replies

(* Process-local harvest: parks/grants tallies live in the per-process
   copies of the Fsem records, so each process harvests its OWN traffic
   into its OWN counters before marshalling them home. *)
let harvest_sem_counters t =
  let parks = ref 0 and grants = ref 0 in
  let tally ch =
    parks := !parks + Fsem.parks ch.sem;
    grants := !grants + Fsem.grants ch.sem
  in
  tally t.request_ch;
  Array.iter tally t.replies;
  let c = t.counters in
  c.Ulipc.Counters.sem_parks <- !parks;
  c.Ulipc.Counters.sem_grants <- !grants
