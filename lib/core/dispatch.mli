(** Protocol dispatch: the public Send/Receive/Reply entry points.

    Routes each operation by the session's {!Protocol_kind.t}: SYSV and
    CSEM to their own modules, every other kind to the shared protocol
    core ({!Protocol_core.Make} over the simulated substrate) on the
    session's request channel and the client's reply channel.  These
    functions must be called from inside simulated processes (see
    {!Ulipc_os.Kernel.spawn}). *)

val waiting : Protocol_kind.t -> Protocol_core.waiting
(** The waiting mode the simulator runs for a kind: {!Protocol_kind.to_waiting},
    except that [ADAPT n] runs as [Limited_spin n] (its controller reads
    the host clock).
    @raise Invalid_argument for [SYSV] and [CSEM]. *)

val send : Session.t -> client:int -> Message.t -> Message.t
(** Synchronous request from client [client]; returns the server's
    response.  Blocking behaviour depends on the protocol. *)

val receive : Session.t -> Message.t
(** Next request at the server. *)

val reply : Session.t -> client:int -> Message.t -> unit
(** Respond to client [client]. *)

(** {2 A fixed waiting mode}

    The same three operations with the mode given rather than read from
    the session — what {!Iface.of_kind} and {!Bsls_throttle} build on. *)

val send_with :
  Protocol_core.waiting -> Session.t -> client:int -> Message.t -> Message.t

val receive_with : Protocol_core.waiting -> Session.t -> Message.t

val reply_with :
  Protocol_core.waiting -> Session.t -> client:int -> Message.t -> unit
