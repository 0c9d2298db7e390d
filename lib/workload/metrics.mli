(** Results of one client-server benchmark run. *)

type t = {
  machine : string;
  protocol : Ulipc.Protocol_kind.t;
  nclients : int;
  nservers : int;
      (** server domains (request shards) the run used; the simulator and
          single-server real runs report 1 *)
  messages : int;  (** echo requests processed (excludes connects/disconnects) *)
  elapsed : Ulipc_engine.Sim_time.t;
      (** §2.2's measurement window: from the barrier release (first
          request) until the last client's disconnect is processed *)
  throughput_msg_per_ms : float;
  latency_us : Ulipc_observe.Histogram.t option;
      (** per-send round-trip latency in µs, when collection was enabled:
          a log-bucketed {!Ulipc_observe.Histogram}, the one report format both
          the simulator and the real-domains driver fill *)
  counters : Ulipc.Counters.t;
  server_usage : Ulipc_os.Syscall.usage;
  client_usage : Ulipc_os.Syscall.usage list;
  total_sim_time : Ulipc_engine.Sim_time.t;  (** whole-run simulated time *)
  sim_steps : int;  (** process steps executed by the simulator *)
  total_yields : int;
      (** yield/handoff system calls across all processes during the run *)
  utilization : float;
      (** machine utilization over the whole run, in [0, 1]; the cost
          busy-waiting pays.  Simulator runs report busy time / (ncpus ×
          elapsed); real runs report server service time (request in
          hand to reply enqueued) over wall clock — for a pool, the mean
          over all server domains *)
  utilization_max : float;
      (** the busiest single server's utilization; equals [utilization]
          when [nservers = 1].  The spread between the two is the
          imbalance of the static client→shard map *)
  depth : int;
      (** pipelining depth: requests a client keeps outstanding at once
          (1 = synchronous send/receive/reply) *)
  wake_latency_p50_us : float;
      (** wake-up latency (a producer's V to the dequeue it enabled)
          recovered by {!Ulipc_observe.Trace_analysis} from the run's
          event trace; [nan] when no trace was taken or no blocking
          wake-up occurred *)
  wake_latency_p99_us : float;
  minor_words_per_op : float;
      (** minor-heap words allocated per steady-state round-trip on the
          issuing client's domain ([Gc.minor_words] delta over a calibrated
          probe run, clamped at 0) — the zero-copy message plane's
          regression gate.  [nan] for simulator runs and whenever the
          probe was not taken. *)
  series : Ulipc_observe.Series.frame list;
      (** the run's sampled telemetry timeline, oldest frame first:
          per-window throughput/latency/counter deltas plus queue-depth
          and slab gauges (see {!Ulipc_observe.Telemetry}).  Empty for
          simulator runs and for runs measured without a telemetry
          plane. *)
}

val of_real :
  ?latency:Ulipc_observe.Histogram.t ->
  ?utilization:float ->
  ?utilization_max:float ->
  ?depth:int ->
  ?nservers:int ->
  ?wake_latency_p50_us:float ->
  ?wake_latency_p99_us:float ->
  ?minor_words_per_op:float ->
  ?series:Ulipc_observe.Series.frame list ->
  machine:string ->
  protocol:Ulipc.Protocol_kind.t ->
  nclients:int ->
  messages:int ->
  elapsed_s:float ->
  counters:Ulipc.Counters.t ->
  unit ->
  t
(** Package a wall-clock measurement from the real-domains backend into
    the same record the simulator produces, so both report through one
    set of printers.  [elapsed_s] is wall-clock seconds; [latency] is the
    merged per-call round-trip histogram (µs); [utilization] (default
    [nan]) is the server pool's mean measured busy fraction and
    [utilization_max] (default: [utilization]) the busiest server's;
    [depth] (default 1) the pipelining depth the clients ran at;
    [nservers] (default 1) the server-pool size.  Fields only a simulated
    kernel can account (usage, sim steps, yields) are zero. *)

val round_trip_us : t -> float
(** Mean round-trip latency implied by throughput and client count:
    [nclients × elapsed / messages], in µs.  Matches the paper's
    "119 µs round-trip at one client" style of reporting. *)

val latency_percentile : t -> float -> float option
(** [latency_percentile t p] from the collected histogram; [None] when
    latency was not collected (or holds no samples). *)

val latency_max : t -> float option
(** Exact maximum of the collected round-trip latencies, when present. *)

val yields_per_message : t -> float
(** Yield-class system calls (yield/handoff) per echo message, summed over
    all processes — the §2.2 instrumentation that exposed the 2.5-yields
    effect. *)

val server_vcsw_per_message : t -> float

val pp : Format.formatter -> t -> unit

val pp_row : Format.formatter -> t -> unit
(** One aligned table row: protocol, clients, throughput, latency — plus
    p50/p99/max round-trip columns when the latency histogram holds
    samples. *)
