(** System call requests understood by the simulated kernel.

    The request type is a GADT so each call site gets a correctly typed
    reply without downcasts.  User code does not build requests directly;
    it uses the wrappers in {!Usys}. *)

type pid = int
type sem_id = int
type msq_id = int

type handoff_target =
  | To_pid of pid  (** hint: schedule this process next *)
  | To_self  (** same semantics as [yield] *)
  | To_any
      (** put the caller at the back and let the best ready process run,
          even one whose priority is currently worse than the caller's *)

type usage = {
  voluntary_switches : int;
      (** context switches where the process gave up the CPU (block,
          yield-that-switched) *)
  involuntary_switches : int;  (** preemptions *)
  cpu_time : Ulipc_engine.Sim_time.t;  (** total CPU consumed *)
  syscalls : int;  (** number of system calls performed *)
}

type _ t =
  | Yield : unit t
  | Handoff : handoff_target -> unit t
  | Sem_p : sem_id -> unit t
  | Sem_v : sem_id -> unit t
  | Sem_value : sem_id -> int t  (** non-standard; used by tests *)
  | Msg_snd : msq_id * int * Ulipc_engine.Univ.t -> unit t
      (** the [int] is the System-V [mtype] of the message, must be > 0 *)
  | Msg_rcv : msq_id * int -> Ulipc_engine.Univ.t t
      (** the [int] is a System-V [mtype] selector: 0 takes the head of the
          queue, [n > 0] takes the first message sent with type [n] *)
  | Sleep : Ulipc_engine.Sim_time.t -> unit t
  | Get_time : Ulipc_engine.Sim_time.t t
  | Get_usage : usage t
  | Set_fixed_priority : bool -> bool t
      (** request the non-degrading scheduling class; returns whether the
          running policy supports it *)
  | Get_pid : pid t

val code : 'a t -> int
(** Dense int code of the call (its arguments dropped), for event
    rings. *)

val name_of_code : int -> string
(** The call's name (["sem_p"], ["msgrcv"], ...) for a {!code}. *)
