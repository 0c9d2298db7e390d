(** The paper's benchmark driver (§2.2).

    Up to [nclients] client processes connect to a single-threaded server,
    barrier (the server answers all Connect requests at once when everyone
    has arrived), then barrage it with [messages_per_client] 24-byte echo
    requests; the server echoes the argument back.  Throughput is measured
    over real (simulated) elapsed time from the barrier release until the
    last client's disconnect is processed, exactly as the paper computes
    it. *)

type config = {
  machine : Ulipc_machines.Machine.t;
  kind : Ulipc.Protocol_kind.t;
  nclients : int;
  messages_per_client : int;
  capacity : int;  (** shared-queue / free-pool bound *)
  fixed_priority : bool;
      (** run every process in the non-degrading class (Figures 3, 8) *)
  server_work : Ulipc_engine.Sim_time.t;
      (** per-request processing beyond the echo (0 in the paper) *)
  client_think : Ulipc_engine.Sim_time.t;
      (** client-side computation between requests (0 in the paper) *)
  collect_latency : bool;
      (** measure per-send round-trips with clock reads (perturbs the run
          slightly, like real gettimeofday pairs would) *)
  events : Ulipc_observe.Trace_ring.t option;
      (** event ring handed to the kernel: the kernel records its
          switches, system calls and sleeps, and the substrate every
          queue transfer and semaphore interaction, with uncharged
          simulated-time stamps and pid actors; the driver fills the
          wake-latency percentiles of {!Metrics} from its analysis *)
  time_limit : Ulipc_engine.Sim_time.t option;
      (** abort horizon for deliberately broken protocol variants *)
  iface : Ulipc.Iface.t option;
      (** override the protocol implementation (ablations, extensions);
          [kind] still labels the run and selects [busy_wait] behaviour *)
  noise : Noise.config option;
      (** background daemons competing for the CPU; shut down when the
          last client disconnects *)
}

val config :
  ?capacity:int ->
  ?fixed_priority:bool ->
  ?server_work:Ulipc_engine.Sim_time.t ->
  ?client_think:Ulipc_engine.Sim_time.t ->
  ?collect_latency:bool ->
  ?events:Ulipc_observe.Trace_ring.t ->
  ?time_limit:Ulipc_engine.Sim_time.t ->
  ?iface:Ulipc.Iface.t ->
  ?noise:Noise.config ->
  machine:Ulipc_machines.Machine.t ->
  kind:Ulipc.Protocol_kind.t ->
  nclients:int ->
  messages_per_client:int ->
  unit ->
  config
(** Defaults: capacity 64, no fixed priority, no extra work or think time,
    no latency collection, no event ring, no time limit. *)

exception Hung of Ulipc_os.Kernel.run_result
(** Raised when the run does not complete (deadlock, time or step limit) —
    which is the observable failure mode of the broken protocol variants
    the ablation benchmarks exercise. *)

type outcome = {
  metrics : Metrics.t;
  kernel : Ulipc_os.Kernel.t;
  session : Ulipc.Session.t;
  server : Ulipc_os.Proc.t;
  clients : Ulipc_os.Proc.t list;
}

val run : config -> Metrics.t
(** Execute one benchmark.
    @raise Hung if the simulation does not run to completion.
    @raise Ulipc_os.Kernel.Proc_failure if an integrity check fails. *)

val run_outcome : config -> outcome
(** Like {!run}, additionally exposing the kernel, session and processes
    for post-run inspection (semaphore residue, per-process accounting). *)

val sweep : config -> clients:int list -> Metrics.t list
(** [sweep config ~clients] runs the benchmark at each client count. *)
