(** Real-hardware substrate for the protocol core, whose peers are
    OCaml 5 domains or fork'd processes.

    Lock-free word rings for the data path, {!Rsem} for the counting
    semaphores — each channel's awake flag is the flag bit of its
    semaphore's count word, so a wake-up touches one contended cache
    line — and the {!Grace} back-off ladder or a one-shot pause or
    yield for every scheduling hint.

    Every word the peers share (rings, semaphores, the slab's free
    list) is carved from one {!Word_arena} per session, a
    [MAP_SHARED] mapping.  A session created before [fork] therefore
    works between the fork'd processes exactly as between domains; what
    stays on the heap is either written by one endpoint only (the
    register file), immutable (the shard map), or per-process on
    purpose (counters, trace rings, consumer marks).

    The rings are shaped to the session: {!Mpsc_ring} for each request
    shard (many clients, one server) and {!Spsc_ring} for every reply
    channel (the client's home server is its one producer, the client
    its one consumer).  No locks, no per-message allocation, and one {!Word_arena} per
    session, which holds the channel semaphores' words too.  A shard
    with exactly one home client is {e paired} ({!paired}): its request
    ring and that client's reply ring share one cell region, on the two
    lanes of each line, so a synchronous call's request and reply
    travel in one cache line.

    A blocking consumer first waits on the message: [await] polls the
    channel's queue for up to the {!Grace} spin with its awake flag
    still set, so a producer that finds the flag set issues no V.  Only
    when that grace runs out does the consumer clear its flag; the
    channel semaphores are carved with [~spin:0] and park at once.

    The ring cell carries the message: two immediate words, the client
    number and one payload word.  A {!msg} is the index of a {e register}
    in the session's register file — one two-word register per client
    and per server, no two sharing a cache line.  {!enqueue} copies a
    register into the claimed cell; {!dequeue} copies a ready cell into
    the channel consumer's own register and returns it.  Only the
    endpoint's own domain may write its register, so the steady-state
    data path allocates nothing and takes no lock; a fork'd endpoint's
    copy of the register file is all it needs.  Producers that are
    not the endpoint ({!Rpc.post}, {!Rpc.reply}, the batch paths) pass [(client, word)] pairs directly ({!enqueue_pair},
    {!enqueue_many}).  The single
    [Ulipc.Protocol_core.Make (Real_substrate)] application in {!Rpc}
    still serves sessions of every request/reply type, via codecs that
    turn typed payloads into the payload word.

    The request plane is {e sharded}: [nservers] request channels, one
    per server domain, with clients statically mapped to a home shard by
    a {!Shard_map} (round-robin by client id unless overridden).  At
    [nservers = 1] this is exactly the old single-queue session.  No
    message ever moves between shards. *)

type t
type channel

type msg = int
(** A register index (see {!client_register}); {!Ulipc.Substrate.S.no_msg}
    is [-1]. *)

val create :
  ?trace:Ulipc_observe.Trace_ring.t ->
  ?nservers:int ->
  ?shard_assign:(int -> int) ->
  ?slots:int ->
  capacity:int ->
  nclients:int ->
  unit ->
  t
(** [nservers] request shard channels (default 1) plus [nclients] reply
    channels, each bounded by [capacity], a register file of
    [nclients + nservers] registers, a {!Slab} of [slots] boxed-payload
    slots (default [(nclients + nservers) * (capacity + 1)]), and a
    fresh {!Ulipc.Counters} sink.  [shard_assign] overrides
    the round-robin client→shard map (see {!Shard_map.create}).
    [trace] attaches an event-trace sink: every
    successful enqueue/dequeue, every semaphore block/wake and every
    handoff hint is recorded with a timestamp into the calling domain's
    bounded ring — instrumentation on the substrate side of the
    [Substrate.S] seam, like the counters, so the protocol core is
    untouched.  Shard [k]'s channel id is [-(k+1)] (shard 0 keeps the
    historical [-1]); reply channel [n] keeps id [n].
    Every shared word is carved from one {!Word_arena} mapped here;
    create the session before forking its peers.
    @raise Failure if the arena cannot be mapped, or on a build for any
    architecture but x86-64: the rings publish with plain stores, which
    are releases only under x86-TSO (see {!Ring_layout.require_tso}). *)

val trace : t -> Ulipc_observe.Trace_ring.t option
(** The sink given at {!create} time, for post-run draining. *)

val slab : t -> Slab.t
(** The boxed codec's side table, carved from the session arena. *)

val nclients : t -> int

val wake_residue : t -> int
(** Sum of all channel semaphore counts: surplus wake-ups left pending.
    With the test-and-set discipline and the non-blocking drain this is 0
    at quiescence. *)

val harvest_sem_counters : t -> unit
(** Total the waiting-array traffic (cumulative parks and directed
    grants) of every channel semaphore this process has P'd on into the
    session counters' [sem_parks] and [sem_grants] — call at
    quiescence, the slab high-water pattern.  Between domains that is
    every channel that has any traffic; between fork'd processes each
    process reports the channels it consumes, so adding the processes'
    counters counts each shared total once. *)

val sem_p_timed : t -> channel -> timeout_ns:int -> bool
(** {!Rsem.p_timed} on the channel's semaphore: the dead-peer guard of
    {!Rpc.receive_opt}.  Records no trace event. *)

(** {1 Register file}

    Register [m] holds one message, [(client, word)].  Client [c] owns
    register [client_register t c], server [k] owns
    [server_register t k]: a dequeue on reply channel [c] lands in the
    first, a dequeue on request shard [k] in the second.  A register is
    plain memory — only its owner's domain may touch it. *)

val client_register : t -> int -> msg
(** @raise Invalid_argument on a bad client number. *)

val server_register : t -> int -> msg
(** @raise Invalid_argument on a bad shard number. *)

val register_client : t -> msg -> int
val register_word : t -> msg -> int
val set_register : t -> msg -> client:int -> word:int -> unit

val enqueue_pair : t -> channel -> client:int -> word:int -> bool
(** {!enqueue} of a message given by its words rather than a register:
    for producers that own no register of their own. *)

(** {1 Sharded request plane} *)

val nshards : t -> int
(** Number of request shards — the [nservers] of {!create}. *)

val shard_map : t -> Shard_map.t

val shard_of_client : t -> int -> int
(** Home shard of a client's requests: one array load. *)

val paired : t -> int -> bool
(** Whether shard [k] is paired: it has exactly one home client, and
    its request ring and that client's reply ring were carved on the
    two lanes of one cell region, so cell [i] of both is in one line
    ({!Ring_layout}'s cell placement).  Read from the shard map, which
    {!create} fixed.
    @raise Invalid_argument on a bad shard number. *)

val request_shard : t -> int -> channel
(** Shard [k]'s request channel.  [request_shard t 0 == request t].
    @raise Invalid_argument on a bad shard number. *)

val request_depth : t -> int -> int
(** Occupancy snapshot of shard [k]'s request queue, for the telemetry
    sampler.  Conservative under concurrency (see {!Mpsc_ring.length}). *)

(** {1 Batch data path}

    Outside the [Substrate.S] seam (the protocol core stays untouched):
    the pipelined fast path in {!Rpc} uses these to move [k] messages
    per atomic span claim, followed by one wake-up.  Spans are
    caller-owned [(client, word)] pair arrays in the rings' layout
    ({!Spsc_ring.enqueue_batch}), so a batched round-trip builds no
    lists and touches no register. *)

val enqueue_many : t -> channel -> int array -> pos:int -> len:int -> int
(** Enqueue a prefix of the [len] messages of the span at [pos] with one
    span claim on the ring ({!Spsc_ring.enqueue_batch} /
    {!Mpsc_ring.enqueue_batch}); returns how
    many were accepted.  One trace event per message when a sink is
    attached; without one, the sink is tested once per span. *)

val dequeue_many : t -> channel -> buf:int array -> pos:int -> max:int -> int
(** Dequeue up to [max] messages into the span of [buf] at [pos] with
    one span claim; returns how many were taken (FIFO, possibly 0). *)

include
  Ulipc.Substrate.S
    with type t := t
     and type channel := channel
     and type msg := msg
