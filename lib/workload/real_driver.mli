(** The echo benchmark workload on real hardware, with OCaml 5 domains
    or fork'd processes as peers.

    Counterpart of {!Driver} for the {!Ulipc_real.Rpc} backend: the same
    client-server echo exchange, but against the machine's actual CPUs
    and clock rather than the simulator.  Results come back as the same
    {!Metrics.t} (counter fields included) so simulated and real runs
    print through one code path.

    One function runs the workload for both kinds of peer: the session,
    the client loops, the server bodies, the probe, the timing and the
    analysis are shared, and the kind of peer changes only how a peer
    starts and how its report comes back.  Unix.fork refuses to run in a
    process that has ever spawned a domain, so a process must make its
    [~peers:Processes] runs before anything in it spawns a domain; the
    driver itself spawns none on that path. *)

type peers =
  | Domains  (** peers are domains of this process, joined at the end *)
  | Processes
      (** peers are fork'd children, each marshalling its report back
          over a pipe *)

val probe_warmup : int
(** Round-trips client 0 performs before the allocation probe to fault in
    lazily initialised state (trace buffers).  Probe traffic runs
    before the start barrier, so it is outside the measured interval but
    {e inside} the trace — the events see
    [2 * (probe_warmup + probe_ops)] extra enqueue/dequeue pairs at
    [depth = 1] (the probe is skipped for pipelined runs). *)

val probe_ops : int
(** Round-trips between the two [Gc.minor_words] readings whose per-op
    delta becomes the result's [minor_words_per_op]. *)

val run :
  ?machine:string ->
  ?traced:bool ->
  ?telemetry:Ulipc_observe.Telemetry.t ->
  ?depth:int ->
  ?nservers:int ->
  ?events_out:Ulipc_observe.Event.t list ref ->
  ?dropped_out:int ref ->
  ?wake_residue_out:int ref ->
  peers:peers ->
  nclients:int ->
  messages:int ->
  Ulipc_real.Rpc.waiting ->
  Metrics.t
(** [run ~peers ~nclients ~messages waiting] starts a pool of [nservers]
    server peers (default 1) behind the sharded request plane and
    [nclients] logical clients, each performing [messages] echo calls;
    returns the measured metrics.  [machine] labels the row (default
    ["domains"] or ["proc"]).

    Tracing is on unless [traced] is [false]: the driver attaches a
    {!Ulipc_real.Trace_ring} sized so that one peer's ring holds every
    event of the run (up to 2{^20} events per peer; a longer run keeps
    the newest and counts the rest as dropped).  The merged trace —
    fork'd peers' actors namespaced with their pid — is analysed
    ({!Ulipc_observe.Trace_analysis}) and the recovered wake-up-latency
    p50/p99 fill the result's [wake_latency_p50_us]/[wake_latency_p99_us]
    (nan for protocols that never block, e.g. BSS, and for untraced
    runs).  [events_out] receives the sorted events and [dropped_out]
    the ring-overflow drop count, the [~complete] input of
    {!Ulipc_observe.Trace_analysis.analyse}.  [wake_residue_out]
    receives {!Ulipc_real.Rpc.wake_residue} once every peer has been
    joined: credits posted but never consumed, 0 for a protocol that
    drains every raced wake-up.

    Logical clients are folded onto at most ~96 client peers (OCaml caps
    a process at 128 domains): a peer hosting several clients posts one
    request per hosted client and collects all the replies before the
    next round, so each logical client still has exactly one call
    outstanding and the recorded round duration is its observed
    round-trip.  Servers are stopped by per-shard poison requests the
    parent posts after the measured interval, since with stealing no
    pool member can count its share of the traffic in advance.

    [depth] (default 1) is the pipelining depth.  At 1 every call is a
    synchronous {!Ulipc_real.Rpc.send} and the server answers one request
    at a time.  Above 1 each client keeps up to [depth] requests
    outstanding ({!Ulipc_real.Rpc.call_pipelined}, issued in bursts of
    [depth]) and the server uses the batched receive/reply path — one
    span claim and at most one wake-up per batch.  The result's [depth]
    field records the value.  Pipelining pairs replies positionally, so
    [depth > 1] requires [nservers = 1].

    The measured interval excludes peer start-up and tear-down: client
    peers check in on a start barrier in a small shared control arena,
    the clock ({!Ulipc_observe.Clock}) starts when the barrier releases,
    and it stops at the latest client finish stamp.  Every send (or
    pipelined burst) is individually timed, and [latency_us] in the
    result carries the merged round-trip histogram — per-message means
    for bursts — so {!Metrics.latency_percentile} works for real rows
    exactly as for simulated ones.  The result's [utilization] is
    measured: 1 minus the fraction of the interval each server spent
    waiting inside receive, clamped to [0, 1] per server — the pool
    mean, with the busiest server in [utilization_max].  The result's
    counters carry the slab's high-water mark ([slab_hwm]) and the
    steal-protocol totals.

    Every run is live-sampled on [telemetry] (default: a fresh private
    registry with a 10 ms interval): a messages counter summed from the
    client peers' control-arena lines, a windowed latency histogram,
    per-shard ring-depth and slab gauges and a Counters delta batch.
    The parent ticks the registry inline while it waits for the client
    peers, and once more after the counters are harvested; the timeline
    lands in the result's [Metrics.series].  Fork'd peers count and
    record latency into their own copies, which reach the parent only
    with their reports: on processes the latency windows read empty and
    the closing frame carries the children's counter totals.  Pass your
    own [telemetry] — a fresh registry per run — to choose the interval
    or render frames live via [on_frame] (that is [ulipc_top]).

    A client peer that fails (a wrong echo, an exception, a fork'd
    child that dies) still ends the parent's wait; the servers are
    stopped as usual and [run] raises [Failure] naming the peer.  A
    server peer that ends while clients are still running (it can only
    have died) fails the run at once with ["server peer K failed: ..."],
    after every fork'd peer still running is SIGKILLed and reaped.
    @raise Invalid_argument if [depth <= 0], [messages <= 0], or
    [depth > 1] with [nservers > 1]. *)

val status_text : Unix.process_status -> string
(** How a failed fork'd peer ended, as [run]'s failure names it:
    ["exited with 2"], ["killed by SIGKILL"]; a signal OCaml has no
    name for keeps its POSIX number (["killed by signal 34"]). *)

type fd_transport = Fd_pipe | Fd_socket

val fd_transport_name : fd_transport -> string
(** ["pipe"] / ["socket"] — the transport strings of the bench rows. *)

val run_fd :
  ?machine:string ->
  transport:fd_transport ->
  nclients:int ->
  messages:int ->
  unit ->
  Metrics.t
(** The kernel-IPC baselines the shm rows race: the same echo workload
    between fork'd processes over per-client pipe pairs or Unix-domain
    socketpairs, 8-byte payloads, the server blocking in
    [read]/[select].  Reported under BSW (the kernel's blocking read
    {e is} a sleep/wake-up protocol); [machine] defaults to ["proc"].
    The fd baselines have no shared instrument plane and report an
    empty series. *)
