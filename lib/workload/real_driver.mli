(** The echo benchmark workload on real OCaml 5 domains.

    Counterpart of {!Driver} for the {!Ulipc_real.Rpc} backend: the same
    client-server echo exchange, but against the machine's actual domains
    and wall clock rather than the simulator.  Results come back as the
    same {!Metrics.t} (counter fields included) so simulated and real runs
    print through one code path. *)

val probe_warmup : int
(** Round-trips client 0 performs before the allocation probe to fault in
    lazily initialised state (trace buffers).  Probe traffic runs
    before the start barrier, so it is outside the measured interval but
    {e inside} an attached trace — a sink sees
    [2 * (probe_warmup + probe_ops)] extra enqueue/dequeue pairs at
    [depth = 1] (the probe is skipped for pipelined runs). *)

val probe_ops : int
(** Round-trips between the two [Gc.minor_words] readings whose per-op
    delta becomes the result's [minor_words_per_op]. *)

val run :
  ?machine:string ->
  ?trace:Ulipc_real.Trace_ring.t ->
  ?telemetry:Ulipc_observe.Telemetry.t ->
  ?depth:int ->
  ?nservers:int ->
  ?wake_residue_out:int ref ->
  nclients:int ->
  messages:int ->
  Ulipc_real.Rpc.waiting ->
  Metrics.t
(** [run ~nclients ~messages waiting] spawns a pool of [nservers] server
    domains (default 1) behind the sharded request plane and [nclients]
    logical clients, each performing [messages] echo calls; returns the
    wall-clock metrics.  [machine] labels the row (default ["domains"]);
    [trace] attaches a
    per-domain event-trace sink to the session (drained by the caller
    after the run).  When [trace] is omitted the driver attaches its own
    sink; either way the trace is analysed after the joins
    ({!Ulipc_observe.Trace_analysis}) and the recovered wake-up-latency
    p50/p99 fill the result's [wake_latency_p50_us]/[wake_latency_p99_us]
    (nan for protocols that never block, e.g. BSS).
    [wake_residue_out] receives {!Ulipc_real.Rpc.wake_residue} once every
    domain has been joined: credits posted but never consumed, 0 for a
    protocol that drains every raced wake-up.

    Logical clients are folded onto at most ~96 real domains (OCaml caps
    a process at 128): a domain hosting several clients posts one
    request per hosted client and collects all the replies before the
    next round, so each logical client still has exactly one call
    outstanding and the recorded round duration is its observed
    round-trip.  Servers are stopped by per-shard poison requests posted
    after the measured interval, since with stealing no pool member can
    count its share of the traffic in advance.

    [depth] (default 1) is the pipelining depth.  At 1 every call is a
    synchronous {!Ulipc_real.Rpc.send} and the server answers one request
    at a time.  Above 1 each client keeps up to [depth] requests
    outstanding ({!Ulipc_real.Rpc.call_pipelined}, issued in bursts of
    [depth]) and the server uses the batched receive/reply path — one
    span claim and at most one wake-up per batch.  The result's [depth]
    field records the value.  Pipelining pairs replies positionally, so
    [depth > 1] requires [nservers = 1].

    The measured interval excludes domain start-up and tear-down: clients
    park on a start barrier after spawning, the clock starts when the
    barrier releases, and it stops once every client has been joined
    (before the server join).  Every send (or pipelined burst) is
    individually timed, and [latency_us] in the result carries the merged
    round-trip histogram — per-message means for bursts — so
    {!Metrics.latency_percentile} works for real rows exactly as for
    simulated ones.  The result's [utilization] is measured: 1 minus the
    fraction of the interval each server spent waiting inside receive,
    clamped to [0, 1] per server — the pool mean, with the busiest
    server in [utilization_max].  The result's counters carry the slab's
    high-water mark ([slab_hwm]) and the steal-protocol totals.

    Every run is live-sampled: the driver registers a messages counter,
    a windowed latency histogram, per-shard ring-depth / slab / trace-drop
    gauges and a Counters delta batch on [telemetry] (default: a fresh
    private registry with a 10 ms interval), starts its background
    sampler with the barrier release and stops it after the post-join
    harvests.  The sampled timeline lands in the result's
    [Metrics.series]; pass your own [telemetry] — a fresh registry per
    run — to choose the interval or render frames live via [on_frame]
    (that is [ulipc_top]).
    @raise Invalid_argument if [depth <= 0], or if [depth > 1] with
    [nservers > 1]. *)
