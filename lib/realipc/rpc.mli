(** The paper's Send/Receive/Reply protocols on real hardware, between
    OCaml 5 domains or between fork'd processes.

    The queue structure, the awake-flag discipline and the race repairs
    are {e literally} the simulated protocols — this module is
    [Ulipc.Protocol_core.Make] applied to the real substrate
    ({!Real_substrate}), with every entry point one core operation on the
    shard's or the client's channel, so the waiting-mode dispatch, the
    producer steps P.1–P.3 and the consumer sequence C.1–C.5 exist in the
    codebase exactly once.

    A session has [nservers] request shards (one per server domain,
    default 1 — then exactly the classic one-queue session) and one
    reply channel per client, the client→shard map being static
    round-robin affinity ({!Shard_map}).  Each shard has one consumer,
    its server, and each reply channel one producer, the client's home
    server: a client's requests and replies never leave its shard, so
    both keep the client's order, on a pool as on a single server.

    Requests and replies are arbitrary OCaml values, but each travels as
    one word in the ring cell next to the client number: a {!type-codec}
    turns a payload into that word and back.  With the word codec
    ({!int_codec}) a steady-state round-trip allocates {e nothing} on
    the minor heap — at any [nservers] — and
    touches no shared memory but the ring cells and the channel
    semaphore words.

    Every word the peers share lives in the session's
    {!Word_arena}, so a session created before [fork] serves fork'd
    peers exactly as it serves domains: one process per client and per
    server, each passing its own [~client] or [~server] number.  Only
    {!int_codec} crosses fork; a {!boxed_codec} payload is a heap
    pointer, and encoding or decoding one in a process where the
    session has outlived a fork raises [Invalid_argument].  Each
    process keeps its own {!counters}; add them up after the run. *)

type waiting = Ulipc.Protocol_core.waiting =
  | Spin  (** BSS: busy-wait with [Domain.cpu_relax], never block *)
  | Block  (** BSW: awake flag + counting semaphore, the Figure 5 sequence *)
  | Block_yield
      (** BSWY: BSW with a scheduling hint before blocking: a pause
          between domains, a [sched_yield] between fork'd processes. *)
  | Limited_spin of int
      (** BSLS: poll up to MAX_SPIN times, then run the Figure 5 sequence *)
  | Handoff
      (** §6 handoff variant: the waiting hint names the likely next
          runner.  No directed hand-off exists between domains or
          processes, so the hint is BSWY's. *)
  | Adaptive of int
      (** Adaptive BSLS: per-channel MAX_SPIN, adjusted from the observed
          spin-success rate and capped by the argument (see
          {!Ulipc.Protocol_core.Adaptive}). *)
(** The protocol core's waiting mode, re-exported so [Rpc.Block] etc.
    name it. *)

(** {1 Codecs}

    How a payload becomes the message's one payload word and back.  Each
    direction of a session uses exactly one codec, fixed at {!create}
    time — the [('req, 'rep)] type parameters are what make the
    [Obj]-based default safe, exactly as they did for the former dynamic
    [Univ] check. *)

type 'a codec

val boxed_codec : unit -> 'a codec
(** The default: the value is parked in the session's {!slab}, the boxed
    side table, and its slot index travels as the word; decoding reads
    it back and releases the slot.  Works for every type, at the cost of
    a lock-free slot allocation and release per message.  Fails a sender
    whose slab stays exhausted (see {!create}'s [slots]). *)

val int_codec : int codec
(** The identity: the int is the word.  Any int, negative ones
    included.  The zero-allocation round-trip codec; it never touches
    the slab. *)

type ('req, 'rep) t

val create :
  ?capacity:int ->
  ?trace:Ulipc_observe.Trace_ring.t ->
  ?slots:int ->
  ?req_codec:'req codec ->
  ?rep_codec:'rep codec ->
  ?nservers:int ->
  ?shard_assign:(int -> int) ->
  nclients:int ->
  waiting ->
  ('req, 'rep) t
(** [capacity] (default 64) bounds every queue.  [trace] attaches a
    {!Ulipc_observe.Trace_ring} sink recording timestamped
    enqueue/dequeue/block/wake/handoff events into per-domain bounded
    rings, drained after the run with {!Ulipc_observe.Trace_ring.events}.  [slots]
    sizes the boxed codec's side table (default
    [(nclients + nservers) * (capacity + 1)]: every channel full plus
    one payload in flight per endpoint, so it can never exhaust; an
    explicit undersized [slots] fails a boxed sender with a clear
    [Failure] ["Rpc: payload slab exhausted ..."] after bounded back-off
    rather than hanging).  [req_codec] / [rep_codec] (default
    {!boxed_codec}) encode the two directions' payloads.

    [nservers] (default 1) shards the request plane: server domain [k]
    must pass [~server:k] to {!receive}/{!serve}/{!receive_batch}, and
    clients are mapped to shards round-robin by client id unless
    [shard_assign] overrides the map.
    On a single-CPU host [Limited_spin]/[Adaptive] budgets are clamped
    to 0 ({!Ulipc.Protocol_core.validate}).
    @raise Invalid_argument if [nclients <= 0], [capacity <= 0],
    [nservers <= 0], if a [Limited_spin] or [Adaptive] budget is
    negative, or if [shard_assign] maps a client outside
    [0 .. nservers-1]. *)

val nclients : ('req, 'rep) t -> int

val nservers : ('req, 'rep) t -> int
(** Number of request shards / server domains the session was built
    for. *)

val shard_of_client : ('req, 'rep) t -> int -> int
(** The home shard of a client's requests (one array load). *)

val paired : ('req, 'rep) t -> int -> bool
(** Whether shard [k] has exactly one home client, whose calls then
    carry their request and their reply in one cache line
    ({!Real_substrate.paired}).  A property of the shard map, not a
    setting.
    @raise Invalid_argument on a bad shard number. *)

val trace : ('req, 'rep) t -> Ulipc_observe.Trace_ring.t option
(** The event-trace sink given at {!create} time, if any. *)

val slab : ('req, 'rep) t -> Slab.t
(** The session's boxed side table.  At quiescence every slot has been
    released, so [Slab.in_use_count] is 0; [Slab.high_water] tells how
    close the run came to the configured [slots] — and stays 0 when
    neither direction uses {!boxed_codec}. *)

val send : ('req, 'rep) t -> client:int -> 'req -> 'rep
(** Synchronous call from client [client] (0-based), via its home
    shard.  Clients must not share a client number concurrently: the
    call passes through the client's own register.
    @raise Invalid_argument on a bad client number. *)

val call : ('req, 'rep) t -> client:int -> 'req -> 'rep
(** Alias of {!send} — one message out, one message back. *)

val receive : ?server:int -> ('req, 'rep) t -> int * 'req
(** Server side: next request on shard [server] (default 0) as
    [(client, payload)].  Only shard [server]'s own server domain may
    call this — it is the MPSC ring's single consumer.  (The pair is
    the one allocation this entails; {!serve} avoids it.)
    @raise Invalid_argument on a bad server number. *)

val reply : ('req, 'rep) t -> client:int -> 'rep -> unit
(** Send a reply to client [client].  A client's reply ring has one
    producer at a time: only the server of the client's home shard,
    which received the request, may reply to it — a second replier
    would be a second producer on an SPSC ring. *)

val serve : ?server:int -> ('req, 'rep) t -> (client:int -> 'req -> 'rep) -> unit
(** One allocation-free server turn on shard [server] (default 0):
    receive a request into the server's register, apply [f], and send
    the reply {e from the same register}, rewritten in place — no
    [receive] tuple is built. *)

val receive_opt :
  ?server:int -> ('req, 'rep) t -> timeout_ns:int -> (int * 'req) option
(** {!receive} with the kernel wait bounded: [None] if no request
    arrives on shard [server] (default 0) within [timeout_ns] — the
    dead-peer guard of a server whose clients may die.  Waits on the
    shard's ring with the blocking sequence whatever the session's
    waiting mode.  Its wait polls ({!Rsem.p_timed}), so an arrival is
    noticed up to 50 µs late.
    @raise Invalid_argument on a bad server number. *)

val post : ?shard:int -> ('req, 'rep) t -> client:int -> 'req -> unit
(** Asynchronous send: enqueue on the client's home shard and wake that
    server, do not wait.  May be called from any domain.  [shard]
    targets another shard, for control messages that get no reply
    (shutdown fan-out posts one poison per server this way): the server
    of a shard that is not the client's home must not reply, since only
    the home server produces on the client's reply ring.
    @raise Invalid_argument on a bad client or shard number. *)

val collect : ('req, 'rep) t -> client:int -> 'rep
(** Wait for the next reply to this client (pairs with {!post}) — exactly
    the client half of {!send}, hints and spins included. *)

(** {1 Batched & pipelined fast path}

    Built on the substrate's span-claim batch operations
    ({!Real_substrate.enqueue_many} / {!Real_substrate.dequeue_many}):
    each hop of a burst is one span claim and at most one wake-up, with
    no per-message substrate call.  Producers encode into preallocated
    spans (a client's own, a server's, or — for {!reply_batch} — one
    per calling domain) and wake the consumer after every non-empty
    claim; consumers wait for the first message through the ordinary
    consumer sequence and sweep the rest with one claim.  With
    {!int_codec} a batch call allocates only the list it returns. *)

val post_batch : ('req, 'rep) t -> client:int -> 'req list -> unit
(** Enqueue the whole list on the client's home shard (blocking on flow
    control as {!post} does) with one span claim and at most one
    consumer wake-up per claim — normally exactly one for the whole
    batch.
    @raise Invalid_argument on a bad client number. *)

val collect_batch : ('req, 'rep) t -> client:int -> n:int -> 'rep list
(** Exactly [n] replies for this client, in order: wait for the next
    one as {!collect} does, then take every reply already behind it
    with one span claim, until [n] have arrived.
    @raise Invalid_argument if [n < 0] or on a bad client number. *)

val receive_batch : ?server:int -> ('req, 'rep) t -> max:int -> (int * 'req) list
(** Server side: wait for the next request on shard [server] (default 0)
    per the session's waiting mode, then drain up to [max - 1] further
    already-queued requests from the shard's ring with one span claim.  Always returns at least one
    request.
    @raise Invalid_argument if [max <= 0] or on a bad server number. *)

val reply_batch : ('req, 'rep) t -> (int * 'rep) list -> unit
(** Send every [(client, reply)] pair, as {!reply} does (each client's
    replies come from its home shard's server only); each run of
    consecutive same-client replies is encoded into the calling
    domain's reply span and pushed with one span claim and at most one
    wake-up (runs longer than the span go out in span-sized chunks).
    Per-client FIFO order follows list order.
    @raise Invalid_argument on a bad client number (earlier runs in the
    list will already have been sent). *)

val call_pipelined :
  ('req, 'rep) t -> client:int -> depth:int -> 'req list -> 'rep list
(** Synchronous calls with up to [depth] requests outstanding: a sliding
    window over span-claimed bursts and batch collection.  Returns the
    replies in request order ([depth = 1] degenerates to sequential
    {!send}s).  Replies are paired by position, which holds whenever the
    server answers each client's requests in the order it receives them:
    a client's requests and replies each ride one FIFO ring, on a pool
    as on a single server.
    @raise Invalid_argument if [depth <= 0] or on a bad client number. *)

val request_depth : ('req, 'rep) t -> int -> int
(** Conservative occupancy snapshot of shard [k]'s request queue (see
    {!Ulipc_real.Mpsc_ring.length}): never negative, may over-report
    against a racing consumer.  The telemetry sampler gauges per-shard
    queue depth with it, live.
    @raise Invalid_argument on a bad shard number. *)

val counters : ('req, 'rep) t -> Ulipc.Counters.t
(** The protocol-event counters the shared core maintains — the same
    fields the simulator reports (sends, receives, wake-ups, spin
    fall-throughs, race fixes, ...).  Incremented without atomicity from
    several domains: totals are exact only for fields written by a
    single domain, otherwise lower bounds.  A fork'd process counts into its own
    copy. *)

val wake_residue : ('req, 'rep) t -> int
(** Sum of all channel semaphore counts; surplus wake-ups left pending.
    For tests — the C.4 [Rsem.try_p] drain keeps this at 0 once all
    traffic has quiesced. *)

val harvest_sem_counters : ('req, 'rep) t -> unit
(** Fold the cumulative waiting-array parks and directed grants of
    every channel semaphore this process consumes into {!counters}
    ([sem_parks]/[sem_grants]); see
    {!Real_substrate.harvest_sem_counters}.  Call at quiescence (all
    peers done), like the slab high-water harvest.  Fork'd peers each
    harvest their own channels, so their counters add up to the
    session's totals. *)
