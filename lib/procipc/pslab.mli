(** Shared payload slab over arena words: cross-process sibling of
    [Ulipc_real.Slab], int payloads only (an OCaml pointer cannot cross
    an address space).  Free list is a versioned Treiber stack — see
    pslab.ml for the ABA argument. *)

type t

val nil : int
(** [-1]: allocation-failure sentinel. *)

val create : Parena.t -> slots:int -> t
(** Carve [slots] slots pre-fork.
    @raise Invalid_argument if [slots <= 0] or the arena is full. *)

val slots : t -> int

val try_alloc : t -> int
(** A free slot index, or {!nil} when exhausted.  Safe from any
    process. *)

val release : t -> int -> unit
(** Return a slot to the free list.  Safe from any process.
    @raise Invalid_argument if the index is negative or not below
    {!slots}; the free list is left as it was. *)

val in_use_count : t -> int
val high_water : t -> int

(** {1 Per-slot payload words} (plain accesses; published by the ring
    enqueue of the slot index, exactly like the in-process slab) *)

val set_client : t -> int -> int -> unit
val get_client : t -> int -> int
val set_data : t -> int -> int -> unit
val get_data : t -> int -> int
