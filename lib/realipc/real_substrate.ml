(* The real-hardware instantiation of Ulipc.Substrate.S, for peers
   that are OCaml 5 domains or fork'd processes alike: word rings for
   the queues, an {!Rsem} counting semaphore (atomic fast path, futex
   park on a waiting-array slot) whose count word also carries the
   consumer's awake flag as its low bit, and the {!Grace} back-off
   ladder or a one-shot pause or yield for every scheduling hint.  Every
   word the peers
   share — rings, semaphores, steal tokens, the slab's free list — is
   carved from one {!Word_arena} per session, a MAP_SHARED mapping, so
   a session created before a fork works between the processes exactly
   as between domains: the fork'd peers' copies of the records below
   hold offsets into the same words.  Folding the flag into the
   semaphore word puts a wake-up's four locked operations (producer
   test-and-set and V, consumer P and flag set) on one cache line.

   A consumer rarely pays them.  Its [await] polls the queue for up to
   the {!Grace} spin before C.2, with its flag still set: a producer's
   test-and-set then finds the flag set and issues no V, so a hop moves
   only the ring cell.  Only a consumer whose grace
   ran out clears its flag, and it parks at once: the channel
   semaphores are created with [~spin:0], because the grace has already
   been spent where it pays, on the message.

   The ring cell carries the message: two immediate words, the client
   number and one payload word.  A [msg] is an index into the session's
   REGISTER FILE, one two-word register per endpoint (each client, each
   server), each on cache lines no other endpoint's register shares.
   [enqueue] copies register [m] into the claimed cell; [dequeue] copies
   a ready cell into the consumer's own register (a channel knows whose
   that is: the owning client of a reply channel, the server of a
   request shard), publishes its index and returns that register.  A
   register is only ever written by its endpoint's own domain — the
   consumer side always, the producer side on the paths whose caller is
   the endpoint (a client's send, a server's in-place reply) — so it
   needs no synchronisation, no locked free-list operation per message,
   and no sharing at all: a fork'd endpoint's copy-on-write copy of the
   register file is exactly the state it needs.  Queue emptiness is the
   [no_msg] sentinel (-1), never an option — so the steady-state data
   path touches no heap: no message records, no option boxing, no
   queue nodes.  Paths whose caller is not an endpoint (a post, a reply
   from [receive]'s caller, the batch and steal spans) pass
   [(client, word)] pairs directly.

   The request plane is SHARDED: [nservers] request channels, each the
   inbox of one server domain, with clients mapped to a home shard by a
   static {!Shard_map} (round-robin by client id unless overridden).
   At [nservers = 1] this degenerates to exactly the old single-queue
   session.  Shard channels carry negative ids [-(k+1)] (so shard 0
   keeps the old [-1], and every consumer-side role test is just
   [chan_id < 0]); reply channels keep their client number.

   Cross-shard rebalancing hangs off the per-shard STEAL TOKENS, one
   arena word each: an idle server CAS-claims the token of a loaded
   sibling, and that sibling — the only consumer its Mpsc_ring permits
   — hands a span of its backlog over by draining and re-enqueueing
   onto the thief's ring.  The token is the whole substrate-side
   mechanism (the operations below); the orchestration lives in
   {!Rpc}.

   The queues exploit the session shape: each request shard has many
   producers and exactly one consumer (Mpsc_ring), and each reply
   channel has one consumer — the owning client.  At [nservers = 1] the
   reply producer is unique too (the server), so replies ride
   {!Spsc_ring}; with a server *pool* any server may answer a stolen
   request, so reply channels switch to {!Mpsc_ring} (still
   single-consumer).  All rings are lock-free and allocation-free per
   message.

   Instrumentation lives here, on the substrate side of the signature's
   counters seam, so the protocol core stays untouched: an optional
   Trace_ring sink records the unified Ulipc_observe.Event schema
   (enqueue/dequeue/block/wake/drain/handoff/spin-exhaust) with
   CLOCK_MONOTONIC timestamps into per-domain flat bounded rings.  With
   no sink attached the hot path pays one option match per operation.
   The counters and the trace rings are heap records, so fork'd peers
   each fill their own copy and a driver adds them up; the semaphores'
   park and grant totals are shared words instead, which is why
   [harvest_sem_counters] reports only the channels this process has
   consumed. *)

module Trace_ring = Ulipc_observe.Trace_ring

type queue = Q_spsc of Spsc_ring.t | Q_mpsc of Mpsc_ring.t

type channel = {
  queue : queue;
  sem : Rsem.t; (* its flag bit is the consumer's awake flag *)
  chan_id : int; (* -(k+1) = request shard k, n >= 0 = reply channel n *)
  regs : int array; (* the session's register file *)
  rx : int; (* the consumer's register: where a dequeue lands *)
  mutable consumer : bool;
      (* this process has P'd here, so it harvests the semaphore's
         totals: shared by domains, private to each fork'd process *)
}

type t = {
  arena : Word_arena.t;
  words : Word_arena.words; (* the arena's, for the token externals *)
  requests : channel array; (* one per server shard *)
  replies : channel array;
  shard_map : Shard_map.t;
  steal : int;
      (* arena offset of shard 0's steal token; shard [k]'s is [k] lines
         on.  -1 = free, else the shard id of the idle server asking
         this shard's owner for a span of its backlog *)
  slab : Slab.t; (* the boxed codec's side table *)
  regs : int array;
      (* the register file: register [m]'s (client, word) at
         [reg_pos m], [reg_pos (m + 1)] *)
  counters : Ulipc.Counters.t;
  trace : Trace_ring.t option;
}

type msg = int

let no_msg = -1 (* no register has a negative index *)

(* Register [m] is the word pair at [16m + 8]: 128 bytes apart, so two
   registers are always more than a cache line apart whatever the
   array's alignment, and the 8 leading and trailing words keep the
   first and the last off the lines of neighbouring heap blocks. *)
let reg_pos m = (m lsl 4) + 8

(* Consumers start awake.  No grace in the semaphore: [await] has spent
   it on the queue before the consumer gets to P. *)
let make_channel arena ~chan_id ~regs ~rx queue =
  let sem = Rsem.carve ~spin:0 arena 0 in
  Rsem.flag_set sem;
  { queue; sem; chan_id; regs; rx; consumer = false }

let line = Word_arena.cache_line_words

let create ?trace ?(nservers = 1) ?shard_assign ?slots ~capacity ~nclients ()
    =
  if nservers <= 0 then
    invalid_arg "Real_substrate.create: nservers must be positive";
  let shard_map =
    Shard_map.create ?assign:shard_assign ~nclients ~nshards:nservers ()
  in
  (* Default side-table sizing: every channel full of boxed payloads
     plus one in flight per endpoint can never exhaust it. *)
  let slots =
    match slots with
    | Some n -> n
    | None -> (nclients + nservers) * (capacity + 1)
  in
  (* Every ring, semaphore, steal token and slab word is carved from the
     session's one arena.  Mapping it refuses to start off x86-64
     ([Word_arena.create]). *)
  let reply_words =
    if nservers = 1 then Spsc_ring.arena_words ~capacity
    else Mpsc_ring.arena_words ~capacity
  in
  let arena =
    Word_arena.create
      ~size_words:
        ((nservers * Mpsc_ring.arena_words ~capacity)
        + (nclients * reply_words)
        + ((nservers + nclients) * Rsem.arena_words ())
        + (nservers * line) + line - 1
        + Slab.arena_words ~slots)
      ()
  in
  let request_queue () = Q_mpsc (Mpsc_ring.carve arena ~capacity) in
  (* A lone server is the unique producer of every reply channel, so the
     SPSC ring applies; a pool is not — a stolen request is answered by
     the thief, so reply channels get a second (… nth) producer and must
     ride the MPSC ring.  Still one consumer: the owning client. *)
  let reply_queue () =
    if nservers = 1 then Q_spsc (Spsc_ring.carve arena ~capacity)
    else Q_mpsc (Mpsc_ring.carve arena ~capacity)
  in
  (* One register per client (0 .. nclients-1), then one per server. *)
  let regs = Array.make (reg_pos (nclients + nservers)) 0 in
  let steal = Word_arena.alloc_line arena ~words:(nservers * line) in
  for k = 0 to nservers - 1 do
    Word_arena.set arena (steal + (k * line)) (-1)
  done;
  {
    arena;
    words = Word_arena.words arena;
    requests =
      Array.init nservers (fun k ->
          make_channel arena ~chan_id:(-(k + 1)) ~regs ~rx:(nclients + k)
            (request_queue ()));
    replies =
      Array.init nclients (fun i ->
          make_channel arena ~chan_id:i ~regs ~rx:i (reply_queue ()));
    shard_map;
    steal;
    slab = Slab.carve arena ~slots;
    regs;
    (* Both domains write the counters on every call.  Their field
       order keeps the client's fields off the server's lines; the
       padding keeps the record's last line off the next heap block.
       Without it the sync round trip swung ~20% with the heap's
       alignment (EXPERIMENTS.md, "The wait loop keeps its own spin
       count"). *)
    counters = Padding.copy_padded (Ulipc.Counters.create ());
    trace;
  }

let trace t = t.trace
let slab t = t.slab

(* Substrate.S names a single request channel, shard 0.  The protocol
   core never calls [S.request]: Rpc hands it each shard channel
   explicitly, and at [nservers = 1] shard 0 IS the session's one
   request queue. *)
let request t = t.requests.(0)
let nclients t = Array.length t.replies
let nshards t = Array.length t.requests
let shard_map t = t.shard_map
let shard_of_client t client = Shard_map.shard t.shard_map client

let request_shard t k =
  if k < 0 || k >= Array.length t.requests then
    invalid_arg (Printf.sprintf "Real_substrate.request_shard: no shard %d" k);
  t.requests.(k)

let reply_channel t n =
  if n < 0 || n >= Array.length t.replies then
    invalid_arg
      (Printf.sprintf "Real_substrate.reply_channel: no channel %d" n);
  t.replies.(n)

(* The register file.  The endpoint checks are the channel lookups'. *)
let client_register t c = (reply_channel t c).rx
let server_register t k = (request_shard t k).rx
let register_client t m = t.regs.(reg_pos m)
let register_word t m = t.regs.(reg_pos m + 1)

let set_register t m ~client ~word =
  let p = reg_pos m in
  t.regs.(p) <- client;
  t.regs.(p + 1) <- word

let queue_length = function
  | Q_spsc q -> Spsc_ring.length q
  | Q_mpsc q -> Mpsc_ring.length q

let request_depth t k = queue_length t.requests.(k).queue

(* Steal token: one CAS word per shard.  [steal_claim] is the thief's
   side (post my shard id on a loaded victim, exactly one thief at a
   time); [steal_take] is the victim's side (consume the token before
   servicing it, so a token is honoured at most once); [steal_retract]
   lets a thief withdraw a request its own ring has since made moot —
   CAS, not set, because the victim may be taking it concurrently.
   Either CAS failing is benign: the token was already consumed.  The
   tokens are arena words, so fork'd servers share them; they go through
   Word_arena's [external]s, which compile inline, because a pooled
   server reads its token on every receive. *)
let token t k =
  if k < 0 || k >= Array.length t.requests then
    invalid_arg (Printf.sprintf "Real_substrate: no shard %d" k);
  t.steal + (k * line)

let steal_claim t ~victim ~thief =
  Word_arena.cas t.words (token t victim) (-1) thief

let steal_take t ~shard =
  let tok = token t shard in
  let thief = Word_arena.get_word t.words tok in
  if thief >= 0 && Word_arena.cas t.words tok thief (-1) then thief else -1

let steal_retract t ~victim ~thief =
  ignore (Word_arena.cas t.words (token t victim) thief (-1) : bool)

let steal_pending t ~shard = Word_arena.get_word t.words (token t shard)

let emit t ch kind =
  match t.trace with
  | None -> ()
  | Some sink -> Trace_ring.record sink kind ~chan:ch.chan_id

let emit_at t ch kind ~t_ns =
  match t.trace with
  | None -> ()
  | Some sink -> Trace_ring.record_at sink kind ~t_ns ~chan:ch.chan_id

(* Producer-side events (Enqueue, Wake) are stamped *before* the
   operation and consumer-side Dequeues *after* it: a producer
   descheduled between its enqueue and a post-operation clock read would
   otherwise let the consumer's dequeue carry the earlier timestamp, and
   the merged stream would show the effect before its cause. *)
let pre_stamp t =
  match t.trace with None -> 0 | Some _ -> Ulipc_observe.Clock.now_ns ()

let enqueue_pair t ch ~client ~word =
  let t_ns = pre_stamp t in
  let ok =
    match ch.queue with
    | Q_spsc q -> Spsc_ring.enqueue_pair q ~client ~word
    | Q_mpsc q -> Mpsc_ring.enqueue_pair q ~client ~word
  in
  if ok then emit_at t ch Ulipc_observe.Event.Enqueue ~t_ns;
  ok

(* Copy register [m] into the cell. *)
let enqueue t ch m =
  let p = reg_pos m in
  enqueue_pair t ch ~client:t.regs.(p) ~word:t.regs.(p + 1)

(* The ring's dequeue alone, into the consumer's register: what [await]
   polls. *)
let raw_dequeue ch =
  let p = reg_pos ch.rx in
  let ok =
    match ch.queue with
    | Q_spsc q -> Spsc_ring.dequeue_into q ch.regs p
    | Q_mpsc q -> Mpsc_ring.dequeue_into q ch.regs p
  in
  if ok then ch.rx else no_msg

let dequeued t ch = emit t ch Ulipc_observe.Event.Dequeue

let dequeue t ch =
  let m = raw_dequeue ch in
  if m != no_msg then dequeued t ch;
  m

let note_spin_exhausted t ch = emit t ch Ulipc_observe.Event.Spin_exhaust

(* Wait on the message with the awake flag still set (see the header).
   Polls the ring only, never the flag or the semaphore, so a grace
   that runs out leaves C.2–C.5 exactly as the paper has them. *)
let await t ch =
  if Grace.default = 0 then no_msg
  else begin
    let m = Grace.run ~grace:Grace.default raw_dequeue ch ~miss:no_msg in
    if m != no_msg then dequeued t ch else note_spin_exhausted t ch;
    m
  end

(* Batch variants: one span claim on the queue and one trace event per
   message — behind a single test of the sink per span, so an untraced
   span makes no per-message call.
   Spans are (client, word) pair arrays in caller-owned scratch buffers
   (the rings' span layout), so a batch round-trip builds no lists. *)

let enqueue_many t ch span ~pos ~len =
  let t_ns = pre_stamp t in
  let k =
    match ch.queue with
    | Q_spsc q -> Spsc_ring.enqueue_batch q span ~pos ~len
    | Q_mpsc q -> Mpsc_ring.enqueue_batch q span ~pos ~len
  in
  (match t.trace with
  | None -> ()
  | Some sink ->
    for _ = 1 to k do
      Trace_ring.record_at sink Ulipc_observe.Event.Enqueue ~t_ns
        ~chan:ch.chan_id
    done);
  k

let dequeue_many t ch ~buf ~pos ~max =
  let k =
    match ch.queue with
    | Q_spsc q -> Spsc_ring.dequeue_batch q buf ~pos ~max
    | Q_mpsc q -> Mpsc_ring.dequeue_batch q buf ~pos ~max
  in
  (match t.trace with
  | None -> ()
  | Some sink ->
    for _ = 1 to k do
      Trace_ring.record sink Ulipc_observe.Event.Dequeue ~chan:ch.chan_id
    done);
  k

let queue_is_empty _ ch =
  match ch.queue with
  | Q_spsc q -> Spsc_ring.is_empty q
  | Q_mpsc q -> Mpsc_ring.is_empty q

(* The awake flag is the channel semaphore's flag bit.  The three
   writes are full barriers (see Rsem): the test-and-set orders P.1's
   enqueue before P.2's flag read, the clear orders C.2 before C.3's
   dequeue. *)
let awake_test_and_set _ ch = Rsem.flag_test_and_set ch.sem
let awake_clear _ ch = Rsem.flag_clear ch.sem
let awake_set _ ch = Rsem.flag_set ch.sem
let awake_read _ ch = Rsem.flag_get ch.sem

(* The consumer mark is written once, so later P's leave the record's
   line alone. *)
let sem_p t ch =
  emit t ch Ulipc_observe.Event.Block;
  if not ch.consumer then ch.consumer <- true;
  Rsem.p ch.sem

let sem_try_p t ch =
  let ok = Rsem.try_p ch.sem in
  (* A successful non-blocking P is the C.3' drain of a raced wake-up:
     record it so the analysis can balance the semaphore-credit algebra
     (every Wake must be consumed by a Block or a drain). *)
  if ok then emit t ch Ulipc_observe.Event.Wake_drain;
  ok

let sem_v t ch =
  emit t ch Ulipc_observe.Event.Wake;
  Rsem.v ch.sem

(* Timed P for dead-peer detection: NO Block event on purpose — a timed
   wait that expires would leave an unmatched Block in the credit
   algebra, and the timed path is a liveness probe outside the traced
   protocol (the trace runs use the untimed receive).  It never parks,
   so it needs no consumer mark. *)
let sem_p_timed _ ch ~timeout_ns = Rsem.p_timed ch.sem ~timeout_ns

(* Domains and fork'd processes are both kernel threads running in
   parallel, so the waiting/scheduling hints are the paper's
   multiprocessor busy-wait — but a pure pause-hint spin is pathological
   whenever peers outnumber CPUs (the BSS consumer burns its whole
   timeslice while the producer holds the only core).  [busy_wait] and
   [flow_sleep] therefore take the rung of the {!Grace} back-off ladder
   that the calling loop's count of failed waits has reached: pauses,
   then yields, then bounded parks so the peer actually gets the core.
   Each park is recorded in the substrate counters.

   The one-shot hints — [yield] and the hand-offs — depend on who the
   peers are, which the session learns from its arena's fork stamp
   ({!Word_arena.outlived_fork}).  Between domains they are a pause: a
   sched_yield there made the BSWY and HANDOFF round trips slower
   (EXPERIMENTS.md, "One real backend").  Once the session has outlived
   a fork its peers are processes, and they are a sched_yield: nothing
   preempts a spinning process early, so only a yield lets a peer
   sharing this CPU run.  No directed hand-off syscall exists between
   domains or processes; the hint is the §6 approximation.  A BSLS
   [poll] slice is a pause on a multiprocessor, where it keeps arrival
   latency minimal, and otherwise the one-shot hint, since between
   processes on a uniprocessor only a yield can make the producer
   runnable at all; BSLS accounts its own bounded spin. *)
let slept t =
  let c = t.counters in
  c.Ulipc.Counters.backoff_sleeps <- c.Ulipc.Counters.backoff_sleeps + 1

let busy_wait t ~short n = if Grace.backoff ~short n then slept t

let yield t =
  if Word_arena.outlived_fork t.arena then Grace.sched_yield ()
  else Domain.cpu_relax ()

let poll t _ = if Grace.multicore then Domain.cpu_relax () else yield t

let handoff_server t =
  emit t t.requests.(0) Ulipc_observe.Event.Handoff;
  yield t

let handoff_any t =
  emit t t.requests.(0) Ulipc_observe.Event.Handoff;
  yield t

let flow_sleep t n = if Grace.backoff ~short:false n then slept t
let counters t = t.counters

let wake_residue t =
  let req =
    Array.fold_left (fun acc ch -> acc + Rsem.value ch.sem) 0 t.requests
  in
  Array.fold_left (fun acc ch -> acc + Rsem.value ch.sem) req t.replies

(* Post-run harvest (the slab high-water pattern): total the
   waiting-array traffic of the channel semaphores this process consumes
   into the session counters.  Parks and grants are monotone per
   semaphore, so summing at quiescence is exact.  Only a channel's
   consumer parks on its semaphore, and it marks the channel before its
   first P, so an unmarked channel has no parks and no grants: between
   domains, where the marks are shared, this is the sum over every
   channel.  Between fork'd processes each harvests the channels it
   consumes, so the totals, which are shared words, land in exactly one
   process's counters when a driver adds them up. *)
let harvest_sem_counters t =
  let parks = ref 0 and grants = ref 0 in
  let tally ch =
    if ch.consumer then begin
      parks := !parks + Rsem.parks ch.sem;
      grants := !grants + Rsem.grants ch.sem
    end
  in
  Array.iter tally t.requests;
  Array.iter tally t.replies;
  let c = t.counters in
  c.Ulipc.Counters.sem_parks <- !parks;
  c.Ulipc.Counters.sem_grants <- !grants
