(** Preallocated, domain-safe side table for boxed payloads: one
    [Obj.t] per slot, recycled through a lock-free Treiber free list.

    The in-process message plane carries every message as two
    immediate words in its ring cell ({!Ring_layout}); a payload that is
    not an immediate — the boxed codec of {!Rpc} — is parked here and
    travels as its slot index: the sender allocates a slot and stores
    the value, the receiver reads it back and releases the slot.  No
    step allocates on the OCaml heap.  {!Ulipc_procipc.Pslab} is the
    cross-process port of the same free list over arena words.

    Thread safety: {!try_alloc}/{!alloc}/{!release} are lock-free and
    safe from any number of domains (ABA-protected by a version-packed
    head).  {!get_box}/{!set_box} are unsynchronised plain array
    accesses — safe under the ownership discipline (exactly one domain
    owns a slot between alloc and release; queue transfer hands
    ownership over with release/acquire publication). *)

type t

val create : slots:int -> unit -> t
(** A slab of [slots] payload slots, all initially free.
    @raise Invalid_argument if [slots <= 0] or [slots >= 2^24]. *)

val slots : t -> int

val nil : int
(** [-1]: {!try_alloc}'s exhaustion sentinel; never a valid index. *)

val try_alloc : t -> int
(** Pop a free slot index, or {!nil} when the slab is exhausted.  The
    allocation-free hot-path variant of {!alloc}.  Exhaustion is the
    flow-control condition: every slot is in flight, so the caller backs
    off exactly as it would for a full queue. *)

val alloc : t -> int option
(** Like {!try_alloc}, with an option for test convenience ([None] when
    exhausted).  Allocates the [Some]. *)

val release : t -> int -> unit
(** Return a slot to the free list, clearing its boxed payload.
    @raise Invalid_argument if the index is out of range or the slot is
    not currently allocated (double release). *)

val in_use_count : t -> int
(** Slots currently allocated (one atomic load — a counter, not a scan);
    exact at quiescence, a snapshot under concurrency.  For tests and
    the exhaustion diagnostics in {!Rpc}. *)

val high_water : t -> int
(** The largest {!in_use_count} the slab has ever reached: how close the
    run came to exhaustion.  Reported in [Counters.slab_hwm] by the
    drivers so fleet-sized runs can verify their slab headroom. *)

(** {1 Payload} *)

val get_box : t -> int -> Obj.t
(** The slot's boxed payload.  Cleared to an immediate on {!release}
    so the slab never retains a retired payload.
    @raise Invalid_argument on an out-of-range index. *)

val set_box : t -> int -> Obj.t -> unit
