(** The sleep/wake-up protocols evaluated in the paper. *)

type t =
  | BSS  (** Both Sides Spin (Figure 1): pure busy-wait *)
  | BSW  (** Both Sides Wait (Figure 5): semaphores + awake flag *)
  | BSWY  (** Both Sides Wait and Yield (Figure 7): BSW + hand-off hints *)
  | BSLS of int
      (** Both Sides Limited Spin (Figure 9): BSWY + bounded polling; the
          argument is MAX_SPIN *)
  | ADAPT of int
      (** Adaptive BSLS: MAX_SPIN adjusted per channel from the observed
          spin-success rate, capped by the argument.  The controller
          reads the host's clock, so only the real backends run it
          ({!Protocol_core.Adaptive}); the simulator treats [ADAPT n] as
          [BSLS n] (the cap is the budget an always-rewarded spinner
          converges to) *)
  | SYSV  (** the kernel-mediated baseline: System V message queues *)
  | HANDOFF
      (** BSWY with the proposed [handoff] system call (§6) in place of
          the yield-based hints *)
  | CSEM
      (** counting-semaphore producer/consumer: a V on {e every} enqueue
          and a P before every dequeue.  Not in the paper's evaluation —
          it is the naive design whose per-message system calls the awake
          flag exists to avoid — but it is the only protocol here that is
          safe with {e multiple consumers} on one queue, so the
          multi-threaded-server architecture (§8 future work) uses it *)

val name : t -> string

val of_string : string -> (t, [> `Msg of string ]) result
(** The command-line spelling, case-insensitive: [bss], [bsw], [bswy],
    [bsls[:N]] (bare [bsls] is [BSLS 10]), [adapt[:N]] (bare [adapt] is
    [ADAPT 4096]), [sysv], [handoff], [csem].  [N] must be a
    non-negative integer.  The error names the accepted spellings; its
    shape is a command-line parser's ([Cmdliner.Arg.conv]). *)

val spellings : string
(** The accepted {!of_string} spellings, for usage messages. *)

val to_waiting : t -> Protocol_core.waiting option
(** The waiting mode of the shared protocol core that implements [t]:
    [BSS] is [Spin], [BSW] [Block], [BSWY] [Block_yield], [BSLS n]
    [Limited_spin n], [ADAPT cap] [Adaptive cap], [HANDOFF] [Handoff].
    [None] for [SYSV] and [CSEM], which are not waiting modes of that
    algorithm and exist only in the simulator. *)

val of_waiting : Protocol_core.waiting -> t
(** The inverse of {!to_waiting}: the name a real-backend row reports
    its mode under. *)

val all_basic : t list
(** [BSS; BSW; BSWY; BSLS 10; SYSV] — the protocol set most figures sweep. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
