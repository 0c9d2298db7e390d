(** Protocol instrumentation.

    Plain OCaml counters the protocol implementations bump as they run;
    they cost no simulated time.  The driver reads them to report the
    statistics quoted in the paper: how often a consumer actually blocked,
    how many wake-up system calls were issued, how many spin-loop
    iterations a BSLS client performed before its reply arrived (§4.2),
    and how often races were detected and repaired.

    The field order is a cache layout: fields a client bumps per message
    first, fields a server bumps per message last, 64 bytes of rarely
    written fields and pad words between, so the two sides of a real
    session never write one line. *)

type t = {
  mutable sends : int;  (** completed synchronous sends *)
  mutable client_blocks : int;  (** P calls that client consumers made *)
  mutable server_wakeups : int;
  mutable spin_iterations : int;  (** BSLS poll-loop iterations, client side *)
  mutable spin_fallthroughs : int;
      (** BSLS sends whose poll loop exhausted MAX_SPIN *)
  mutable queue_full_sleeps : int;  (** [sleep(1)] on a full queue *)
  mutable backoff_sleeps : int;
      (** busy-wait steps that escalated past the bounded spin budget to
          a real (bounded exponential) sleep — the real backend's yield;
          always 0 on the simulator *)
  pad0 : int;
      (** [pad0] .. [pad2]: pad words, always 0 and in no flattening;
          with the rarely written fields around them they keep 64 bytes
          between the client's fields and the server's *)
  pad1 : int;
  pad2 : int;
  mutable slab_hwm : int;
      (** payload-slab in-use high-water mark observed over the run;
          merged by [max], not by sum *)
  mutable sem_parks : int;
      (** semaphore slow-path entries: P's that claimed a waiting-array
          ticket and parked (real backend; harvested post-run from the
          per-channel semaphores) *)
  mutable sem_grants : int;
      (** credits V's delivered into waiting-array slots — directed
          wake-ups aimed at one parked waiter each; [sem_parks] minus
          [sem_grants] is the population still parked *)
  mutable receives : int;  (** completed server receives *)
  mutable replies : int;
  mutable server_blocks : int;
  mutable client_wakeups : int;  (** V calls aimed at sleeping clients *)
  mutable race_fix_p : int;
      (** P calls made only to drain a wake-up that raced with a successful
          second dequeue (Interleaving 3 repair) *)
  mutable server_spin_iterations : int;
  mutable server_spin_fallthroughs : int;
}

val create : unit -> t
val reset : t -> unit

val add : t -> t -> unit
(** [add dst src] accumulates [src] into [dst] ([slab_hwm] merges by
    [max] — it is a high-water mark, not a flow). *)

val snapshot : t -> t
(** A frozen copy.  Safe to take while writer domains are still bumping
    the source: int fields never tear, so every field of the copy is
    some recently written value (totals are as exact as the racy source
    itself).  Windowed telemetry deltas are one {!diff} of two
    snapshots. *)

val diff : t -> t -> t
(** [diff after before] is the field-wise flow [after - before], except
    [slab_hwm], which carries [after]'s value through: a high-water mark
    is monotone within a run, so the later observation is the window's
    high water.  With that convention
    [add before' (diff after before) = after] exactly whenever [after]
    was snapshotted later than [before] on the same counters
    ([before'] a copy of [before]). *)

val to_fields : t -> (string * int) list
(** Every field as a [(name, value)] pair, in declaration order — the
    flattening {!pp} prints and telemetry feeds to
    [Telemetry.ext_counters]. *)

val pp : Format.formatter -> t -> unit
(** Prints the {!to_fields} flattening as [name=value] pairs. *)
