(** The simulated kernel.

    Drives processes over one or more CPUs under a scheduling policy,
    implements the system calls of {!Syscall}, and accounts every cost from
    the machine's {!Costs} model.  The simulation is a discrete-event loop:
    each process step (the code between two effects) executes atomically at
    a simulated instant, and all steps across all CPUs are serialised in
    global time order, so runs are exactly deterministic. *)

exception Proc_failure of string * exn
(** Raised by {!run} when a process body raised: carries the process name
    and the original exception. *)

type t

type run_result =
  | Completed  (** every process ran to completion *)
  | Deadlock of Proc.t list
      (** no event remains but these processes are still blocked *)
  | Time_limit  (** the [until] horizon was reached *)
  | Step_limit  (** the safety cap on executed steps was reached *)

val create :
  ?events:Ulipc_observe.Trace_ring.t ->
  ?max_steps:int ->
  ncpus:int ->
  policy:Policy.t ->
  costs:Costs.t ->
  unit ->
  t
(** A fresh kernel.  [max_steps] (default 200 million) bounds total process
    steps as a runaway-spin safety net.  With [events], the kernel records
    its spawns, exits, switches, preemptions, idle CPUs, system calls,
    sleeps and message deliveries ({!Ulipc_observe.Event}) with the pid
    as actor (0 for an idle CPU) and simulated nanoseconds as time —
    uncharged, so the run is the same with or without it. *)

val spawn : t -> name:string -> (unit -> unit) -> Proc.t
(** Create a ready process.  May be called before or during [run] (from
    outside process context). *)

val new_sem : t -> init:int -> Syscall.sem_id
(** A counting semaphore with the given initial count (≥ 0). *)

val new_msgq : t -> capacity:int -> Syscall.msq_id
(** A System-V-style message queue holding at most [capacity] messages. *)

val run : ?until:Ulipc_engine.Sim_time.t -> t -> run_result
(** Run until no events remain or a limit is hit.
    @raise Proc_failure if any process body raises. *)

val now : t -> Ulipc_engine.Sim_time.t

val current_pid : t -> int
(** Pid of the process currently being stepped (0 outside a step).  An
    uncharged instrumentation read — unlike [Usys.pid ()] it performs no
    syscall effect, so observers can attribute events to the running
    process without perturbing the simulation. *)

val events : t -> Ulipc_observe.Trace_ring.t option
(** The ring given at {!create}, which the substrate records into too. *)

val procs : t -> Proc.t list
(** All processes ever spawned, in spawn order. *)

val live_count : t -> int
val steps_executed : t -> int

val sem_value : t -> Syscall.sem_id -> int
(** Current count (kernel-side view); for tests. *)

val sem_waiters : t -> Syscall.sem_id -> int
(** Number of processes blocked on the semaphore; for tests. *)

val msgq_length : t -> Syscall.msq_id -> int
(** Messages currently queued; for tests. *)

val cpu_busy : t -> int -> Ulipc_engine.Sim_time.t
(** Accumulated busy time (process execution plus context-switch
    overhead) of the given CPU. *)

val utilization : t -> float
(** Machine utilization so far: total busy time over [ncpus × now];
    in [0, 1]. *)

val pp_result : Format.formatter -> run_result -> unit
