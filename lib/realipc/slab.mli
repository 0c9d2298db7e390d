(** Preallocated, peer-safe side table for boxed payloads: one [Obj.t]
    per slot, recycled through a lock-free Treiber free list on
    {!Word_arena} words.

    The message plane carries every message as two immediate words in
    its ring cell ({!Ring_layout}); a payload that is not an immediate —
    the boxed codec of {!Rpc} — is parked here and travels as its slot
    index: the sender allocates a slot and stores the value, the
    receiver reads it back and releases the slot.  No step allocates on
    the OCaml heap.

    The free list, the in-use marks and the counts are arena words, so
    a slab carved before a fork is one slab in every process (the layer
    ladder's [Ulipc_procipc.Pslab] is this module carved from a
    {!Ulipc_procipc.Parena}).  The boxed values are not: they live in
    this process's heap, and {!get_box}/{!set_box} refuse once the arena
    has outlived a fork.

    Thread safety: {!try_alloc}/{!alloc}/{!release} are lock-free and
    safe from any number of domains and processes (ABA-protected by a
    version-packed head).  {!get_box}/{!set_box} are unsynchronised
    plain array accesses — safe under the ownership discipline (exactly
    one domain owns a slot between alloc and release; queue transfer
    hands ownership over with release/acquire publication). *)

type t

val create : slots:int -> unit -> t
(** A slab of [slots] payload slots, all initially free, on an arena of
    its own.
    @raise Invalid_argument if [slots <= 0] or [slots >= 2^24]. *)

val carve : Word_arena.t -> slots:int -> t
(** {!create} on words carved from [a] ({!arena_words} of them at
    most).  Carve before forking: the children's copies of the record
    address the same shared words.
    @raise Invalid_argument as {!create} does, or when [a] is
    exhausted. *)

val arena_words : slots:int -> int
(** Arena words one {!carve} takes, alignment padding included. *)

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
(** Slots currently allocated (one acquire load of a shared word — a counter, not a scan);
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
    @raise Invalid_argument on an out-of-range index, or in a process
    where the slab's arena has outlived a fork
    ({!Word_arena.outlived_fork}): a value boxed in one address space
    means nothing in another. *)

val set_box : t -> int -> Obj.t -> unit
(** @raise Invalid_argument as {!get_box} does. *)
