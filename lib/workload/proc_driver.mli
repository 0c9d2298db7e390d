(** The echo workload across fork'd PROCESSES: the paper's protocols
    over one {!Ulipc_real.Rpc} session created before the fork, raced
    against pipe
    and Unix-domain-socket baselines on the same machine.  See
    proc_driver.ml for the fork/barrier/report discipline. *)

val run :
  ?machine:string ->
  ?capacity:int ->
  ?depth:int ->
  ?traced:bool ->
  ?telemetry:Ulipc_observe.Telemetry.t ->
  ?events_out:Ulipc_observe.Event.t list ref ->
  ?dropped_out:int ref ->
  ?wake_residue_out:int ref ->
  nclients:int ->
  messages:int ->
  Ulipc_real.Rpc.waiting ->
  Metrics.t
(** Fork one server and [nclients] clients over a fresh arena session;
    each client issues [messages] echo calls ([depth] > 1 pipelines
    them in sliding windows).  Tracing is OFF by default (the fd
    baselines can't be traced, so traced shm rows would not be
    comparable); [traced:true] turns it on, and [events_out], which
    implies it, receives the merged pid-namespaced trace of every
    process, sorted — the cross-process feed for [bin/ulipc_trace].
    [dropped_out] receives the total ring-overflow drop count, the
    [~complete] input of {!Ulipc_observe.Trace_analysis.analyse}.
    [wake_residue_out] receives {!Ulipc_real.Rpc.wake_residue}
    once every child has reported: credits posted but never consumed.
    [machine] defaults to ["proc"].

    Shm runs are live-sampled across the fork boundary: every client
    publishes its message count in a word of the driver's control arena
    that it alone writes, and
    the parent — which must not spawn a sampler domain before its
    children have been reaped (OCaml forbids fork after domain spawn) —
    samples inline with [Telemetry.tick] from its report-collection
    select loop, reading the arena words plus request-ring-depth and
    slab-occupancy gauges.  The timeline lands in [Metrics.series];
    pass [telemetry] (a fresh registry per run) to set the interval or
    observe frames via [on_frame].  The fd baselines ({!run_fd}) have
    no shared instrument plane and report an empty series. *)

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
(** The kernel-IPC baselines: the same echo workload over per-client
    pipe pairs or Unix-domain socketpairs, 8-byte payloads, the server
    blocking in [read]/[select].  Reported under BSW (the kernel's
    blocking read {e is} a sleep/wake-up protocol), [machine] defaults
    to ["proc"]. *)
