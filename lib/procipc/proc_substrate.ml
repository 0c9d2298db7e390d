(* The cross-PROCESS instantiation of Ulipc.Substrate.S: every word the
   peers synchronise on — ring indices and cells, semaphore counts and
   waiting arrays, payload slots — lives in one mmap'd MAP_SHARED arena
   ({!Parena}), and the peers are fork'd processes, not domains.

   The OCaml records below are carved by the parent BEFORE forking and
   inherited copy-on-write: they hold word OFFSETS into the arena (plus
   process-private counters and trace), so each child's private copy
   addresses the same shared words.  Nothing here is valid
   to create post-fork.

   Mapping of the Substrate.S primitives:

   - queue        -> the in-process flat rings, carved from the arena
                     ({!Ulipc_real.Mpsc_ring} request ring, one
                     {!Ulipc_real.Spsc_ring} reply ring per client),
                     carrying one-word messages (client word 0);
   - semaphore    -> the in-process {!Ulipc_real.Rsem}, carved from
                     the arena with [~spin:0]: one userspace atomic
                     uncontended, FUTEX_WAIT/FUTEX_WAKE on a waiting-
                     array slot contended — the kernel sleep/wake-up
                     the paper's blocking protocols need, without a
                     kernel queue object;
   - awake flag   -> the flag bit of that semaphore's count word, with
                     the same always-writing CASes as in-process;
   - await        -> the in-process {!Ulipc_real.Grace} spin over the
                     ring's dequeue, with the awake flag still set;
   - messages     -> {!Pslab} slot indices, no_msg = -1, as in-process.

   [await] is what keeps a synchronous pair out of the parking regime:
   it waits on the message for up to 20 µs while producers still see
   the consumer awake and issue no V, so the semaphore is reached only
   by a consumer whose peer really is idle.

   The scheduling hints differ from Real_substrate in one deliberate
   way: the peer is a separate PROCESS, and nothing preempts a spinning
   process early, so [yield] and the hand-offs are sched_yield, and so
   is the BSLS [poll] on a uniprocessor.  [busy_wait] and
   [flow_sleep] climb the same {!Ulipc_real.Grace} back-off ladder as
   in-process, on the calling loop's own count of failed waits.

   Counters and trace events are PROCESS-LOCAL (each process accumulates
   into its own copy-on-write record); the fork driver marshals them
   back over a pipe and merges, so the published totals cover every
   process without a single shared cache line of instrumentation.  The
   semaphores' park and grant totals are shared words instead, so each
   channel's are harvested by one process only: its consumer. *)

module Spsc_ring = Ulipc_real.Spsc_ring
module Mpsc_ring = Ulipc_real.Mpsc_ring
module Rsem = Ulipc_real.Rsem

type channel = {
  queue : queue;
  sem : Rsem.t; (* its flag bit is the consumer's awake flag *)
  chan_id : int; (* -1 = request channel, n >= 0 = reply channel n *)
  mutable consumer : bool;
      (* process-local: this process has called [sem_p] here, so it is
         the channel's consumer and harvests its semaphore *)
}

and queue = Q_mpsc of Mpsc_ring.t | Q_spsc of Spsc_ring.t

type t = {
  arena : Parena.t;
  request_ch : channel;
  replies : channel array;
  slab : Pslab.t;
  counters : Ulipc.Counters.t; (* process-local; merged by the driver *)
  trace : Ulipc_real.Trace_ring.t option; (* process-local too *)
}

type msg = int

let no_msg = Pslab.nil

(* Consumers start awake, as in-process. *)
let make_channel a ~chan_id queue =
  let sem = Rsem.carve ~spin:0 a 0 in
  Rsem.flag_set sem;
  { queue; sem; chan_id; consumer = false }

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
       client): its semaphore and its ring, whose [arena_words] each
       include their own padding.
     - Per client, one more line for the caller: the fork driver
       carves each client's telemetry word after [create].
     - The slab: three counter lines and three [slots]-word arrays, six
       allocations' padding.
     - 1024 words of fixed headroom (the driver's barrier lines), plus
       whatever [extra_words] the caller asks for. *)
  let line = Parena.cache_line_words in
  let channel_words = Rsem.arena_words () in
  let slab_words = (3 * line) + (3 * slots) + (6 * (line - 1)) in
  let size_words =
    1024
    + ((nclients + 1) * channel_words)
    + Mpsc_ring.arena_words ~capacity
    + (nclients * Spsc_ring.arena_words ~capacity)
    + (nclients * line)
    + slab_words + extra_words
  in
  let arena = Parena.create ~size_words () in
  let request_ch =
    make_channel arena ~chan_id:(-1)
      (Q_mpsc (Mpsc_ring.carve arena ~capacity))
  in
  let replies =
    Array.init nclients (fun i ->
        make_channel arena ~chan_id:i (Q_spsc (Spsc_ring.carve arena ~capacity)))
  in
  let slab = Pslab.create arena ~slots in
  {
    arena;
    request_ch;
    replies;
    slab;
    counters = Ulipc.Counters.create ();
    trace;
  }

let arena t = t.arena
let slab t = t.slab
let trace t = t.trace
let nclients t = Array.length t.replies
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

let enqueue t ch m =
  let t_ns = pre_stamp t in
  let ok =
    match ch.queue with
    | Q_mpsc q -> Mpsc_ring.enqueue q m
    | Q_spsc q -> Spsc_ring.enqueue q m
  in
  if ok then emit_at t ch Ulipc_observe.Event.Enqueue ~t_ns;
  ok

(* The ring's dequeue alone: what [await] polls. *)
let raw_dequeue ch =
  match ch.queue with
  | Q_mpsc q -> Mpsc_ring.dequeue q
  | Q_spsc q -> Spsc_ring.dequeue q

let dequeued t ch = emit t ch Ulipc_observe.Event.Dequeue

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
  | Q_mpsc q -> Mpsc_ring.is_empty q
  | Q_spsc q -> Spsc_ring.is_empty q

let queue_length _ ch =
  match ch.queue with
  | Q_mpsc q -> Mpsc_ring.length q
  | Q_spsc q -> Spsc_ring.length q

(* The awake flag is the channel semaphore's flag bit, written with the
   same full-barrier CASes as in-process (see Rsem). *)
let awake_test_and_set _ ch = Rsem.flag_test_and_set ch.sem
let awake_clear _ ch = Rsem.flag_clear ch.sem
let awake_set _ ch = Rsem.flag_set ch.sem
let awake_read _ ch = Rsem.flag_get ch.sem

let sem_p t ch =
  emit t ch Ulipc_observe.Event.Block;
  ch.consumer <- true;
  Rsem.p ch.sem

let sem_try_p t ch =
  let ok = Rsem.try_p ch.sem in
  (* Successful non-blocking P = the C.3' drain of a raced wake-up;
     recorded so the credit algebra balances (see Real_substrate). *)
  if ok then emit t ch Ulipc_observe.Event.Wake_drain;
  ok

let sem_v t ch =
  emit t ch Ulipc_observe.Event.Wake;
  Rsem.v ch.sem

(* Timed P for dead-peer detection: NO Block event on purpose — a timed
   wait that expires would leave an unmatched Block in the credit
   algebra, and the timed path is a liveness probe outside the traced
   protocol (the trace runs use the untimed receive). *)
let sem_p_timed _ ch ~timeout_ns = Rsem.p_timed ch.sem ~timeout_ns

let slept t =
  let c = t.counters in
  c.Ulipc.Counters.backoff_sleeps <- c.Ulipc.Counters.backoff_sleeps + 1

let busy_wait t ~short n = if Ulipc_real.Grace.backoff ~short n then slept t

(* One BSLS poll slice: a pause hint keeps arrival latency minimal on a
   multiprocessor; on a uniprocessor only a yield can make the producer
   runnable at all. *)
let poll _ _ =
  if Ulipc_real.Grace.multicore then Domain.cpu_relax ()
  else Parena.sched_yield ()

let yield _ = Parena.sched_yield ()

(* No directed-handoff syscall exists for sibling processes either; the
   yield is the §6 approximation, same as in-process. *)
let handoff_server t =
  emit t t.request_ch Ulipc_observe.Event.Handoff;
  Parena.sched_yield ()

let handoff_any t =
  emit t t.request_ch Ulipc_observe.Event.Handoff;
  Parena.sched_yield ()

(* Full queue: the consumer process is saturated — the ladder's long
   parks let it actually run (yields alone can starve it behind other
   producers on a loaded box). *)
let flow_sleep t n = if Ulipc_real.Grace.backoff ~short:false n then slept t

let counters t = t.counters

let wake_residue t =
  let req = Rsem.value t.request_ch.sem in
  Array.fold_left (fun acc ch -> acc + Rsem.value ch.sem) req t.replies

(* The park and grant totals are shared words that every process sees,
   and the driver adds up the processes' counters.  Only a channel's
   consumer parks on its semaphore, and it marks the channel before its
   first P, so each process harvests the channels it consumes: every
   channel's totals land in exactly one process's counters. *)
let harvest_sem_counters t =
  let parks = ref 0 and grants = ref 0 in
  let tally ch =
    if ch.consumer then begin
      parks := !parks + Rsem.parks ch.sem;
      grants := !grants + Rsem.grants ch.sem
    end
  in
  tally t.request_ch;
  Array.iter tally t.replies;
  let c = t.counters in
  c.Ulipc.Counters.sem_parks <- !parks;
  c.Ulipc.Counters.sem_grants <- !grants
