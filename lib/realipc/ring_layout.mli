(** Shared geometry for the flat bounded rings — in-process
    ([Spsc_ring]/[Mpsc_ring]) and cross-process ([Ulipc_procipc.Pring])
    alike: power-of-two slot counts, exact logical capacity, occupancy
    as a difference of unwrapped indices, one flat (seq, value) word
    pair per slot.

    All four rings follow one rule: a cell is the only line both sides
    write, the consumer writes only its own index, and a producer reads
    the consumer's index only when its snapshot says the ring is full.
    ring_layout.ml states the rule, the TSO memory-ordering argument
    behind it, and the snapshot-ordering rule for occupancy reads; each
    ring header refers there. *)

val require_tso : who:string -> unit
(** Returns only on a build for x86-64.  The rings publish their index
    and sequence words with plain stores, a release only under x86-TSO.
    Called by [Real_substrate.create] and [Ulipc_procipc.Parena.create].
    @raise Failure naming [who] and the requirement on any other
    architecture. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n] (and [>= 1]). *)

val check_capacity : who:string -> int -> unit
(** @raise Invalid_argument when the capacity is not positive. *)

val geometry : who:string -> capacity:int -> int * int * int
(** [(ring, mask, cap)]: slot count, index mask, exact logical
    capacity.  @raise Invalid_argument if [capacity <= 0]. *)
