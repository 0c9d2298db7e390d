(** The unified trace-event schema shared by both backends.

    One structured event type covers the whole sleep/wake-up seam: queue
    transfers (enqueue/dequeue), the scheduler interactions the paper's
    protocols are built from (block = semaphore P, wake = semaphore V,
    raced-wake drain), and the §5/§6 hints (spin exhaustion, handoff).
    On the simulator the same stream also carries the simulated
    kernel's events (spawns, exits, switches, preemptions, idle CPUs,
    system calls, sleeps and message-queue deliveries), so a trace
    shows what each protocol step cost in kernel work.
    The simulator substrate stamps events with simulated time and proc
    ids; the real backend stamps CLOCK_MONOTONIC and domain ids.  Both
    attach a per-actor sequence number so merged cross-actor streams
    order deterministically and per-actor program order is recoverable
    even under timestamp ties. *)

type kind =
  | Enqueue  (** a message was accepted by a channel's queue *)
  | Dequeue  (** a message was taken from a channel's queue *)
  | Block  (** a consumer entered the semaphore P of step C.4 *)
  | Wake  (** a producer issued the semaphore V of step P.3 *)
  | Wake_drain
      (** a consumer absorbed a raced wake-up's semaphore credit (the
          [sem_try_p] drain of step C.3') without ever sleeping *)
  | Handoff  (** a §6 handoff/yield scheduling hint was issued *)
  | Spin_exhaust
      (** a §5 limited spin burned its full budget and fell through to
          the blocking path *)
  (* The simulated kernel's own events, recorded beside the protocol's
     when the simulator runs with an event ring. *)
  | Spawn  (** a proc was created *)
  | Exit  (** a proc finished *)
  | Switch  (** a CPU switched to the actor; [chan] is the CPU *)
  | Preempt  (** the actor was preempted; [chan] is the CPU *)
  | Idle  (** a CPU found nothing to run (actor 0); [chan] is the CPU *)
  | Syscall  (** the actor entered a system call; [chan] is its code *)
  | Sleep
      (** the kernel blocked the actor inside a system call; [chan] is
          that call's code *)
  | Msgq_deliver
      (** the actor's message-queue call handed a message to a blocked
          receiver; [chan] is the receiver *)

val is_protocol : kind -> bool
(** The seven protocol kinds, as opposed to the simulated kernel's. *)

val kind_name : kind -> string

val kind_tag : kind -> int
(** Dense int code of a kind (0-based, stable), so allocation-free
    recorders can store kinds in flat int arrays. *)

val kind_of_tag : int -> kind
(** Inverse of {!kind_tag}.
    @raise Invalid_argument on an unknown code. *)

type t = {
  t_us : float;
      (** timestamp in µs: CLOCK_MONOTONIC on the real backend,
          simulated time on the simulator — comparable within one trace,
          never across backends *)
  actor : int;
      (** recording actor: [Domain.self] on the real backend, the
          simulated proc's pid on the simulator *)
  seq : int;  (** per-actor sequence number, starting at 0 *)
  chan : int;
      (** protocol kinds: -1 = shared request channel, n = reply
          channel n; kernel kinds: see {!kind} *)
  kind : kind;
}

val compare : t -> t -> int
(** Total order by [(t_us, actor, seq)] — the deterministic cross-actor
    merge order. *)

val namespace_actor : pid:int -> t -> t
(** Disambiguate actor ids across fork'd processes (each of which
    records as [Domain.self () = 0]): fold [pid] into the actor's high
    bits, keeping the domain id in the low 12.  Timestamps need no such
    treatment — CLOCK_MONOTONIC is per-boot and system-wide on Linux,
    so stamps taken in different processes are directly comparable
    (see {!Clock.now_us}). *)

val pp :
  ?actor_name:(int -> string) ->
  ?syscall_name:(int -> string) ->
  Format.formatter ->
  t ->
  unit
(** One line: time, actor, sequence number, kind and its argument.
    [actor_name] (default ["actor N"]) names actors, the receiver of a
    {!Msgq_deliver} included; [syscall_name] (default the code) names
    the call of a {!Syscall} or {!Sleep}. *)
