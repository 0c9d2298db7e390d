(** A client-server IPC session (§2.1's server architecture).

    One request channel shared by all clients, one reply channel per
    client; requests carry the reply-channel number.  The session also
    owns the System V queues used by the kernel-mediated baseline and the
    instrumentation counters, so the same session object drives any
    protocol. *)

type t = {
  kernel : Ulipc_os.Kernel.t;
  costs : Ulipc_os.Costs.t;
  multiprocessor : bool;
      (** selects the [busy_wait] implementation: a spin delay loop on a
          multiprocessor, a [yield] system call on a uniprocessor (§2.1) *)
  kind : Protocol_kind.t;
  request : Channel.t;
  replies : Channel.t array;
  sysv_request : Ulipc_os.Syscall.msq_id;
  sysv_reply : Ulipc_os.Syscall.msq_id;
  inject : Message.t -> Ulipc_engine.Univ.t;
  project : Ulipc_engine.Univ.t -> Message.t option;
  mutable server_pid : Ulipc_os.Syscall.pid;
      (** pid the HANDOFF protocol hands off to; 0 until the server
          process registers with {!register_server} *)
  counters : Counters.t;
}

val create :
  kernel:Ulipc_os.Kernel.t ->
  costs:Ulipc_os.Costs.t ->
  multiprocessor:bool ->
  kind:Protocol_kind.t ->
  nclients:int ->
  capacity:int ->
  unit ->
  t
(** [capacity] bounds each shared queue (the free-pool size) and the
    System V queues alike.
    @raise Invalid_argument if [nclients <= 0], [capacity <= 0], or
    [kind] carries a negative budget ([BSLS] or [ADAPT]; see
    {!Protocol_core.validate}). *)

val register_server : t -> Ulipc_os.Syscall.pid -> unit
(** Called by the server process (or the driver) so clients can hand off
    to it. *)

val reply_channel : t -> int -> Channel.t
(** @raise Invalid_argument on an out-of-range channel number. *)

val nclients : t -> int

val sysv_reply_mtype : client:int -> int
(** The System V message type that routes a reply to the given client:
    mtypes must be positive, so this is [client + 1]. *)
