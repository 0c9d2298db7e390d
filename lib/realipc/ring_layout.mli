(** Shared geometry for the flat bounded rings, [Spsc_ring] and
    [Mpsc_ring] — the one ring implementation both real backends carve
    from a [Word_arena]: power-of-two slot counts, exact logical
    capacity, occupancy as a difference of unwrapped indices, one flat
    four-word cell per slot, [(seq, client, word, spare)], carrying the
    whole message.

    Both rings follow one rule: a cell is the only line both sides
    write, the consumer copies every message word out before it writes
    its own index (and writes nothing else), and a producer reads the
    consumer's index only when its snapshot says the ring is full.
    ring_layout.ml states the rule, the TSO memory-ordering argument
    behind it, and the snapshot-ordering rule for occupancy reads; each
    ring header refers there. *)

val require_tso : who:string -> unit
(** Returns only on a build for x86-64.  The rings publish their index
    and sequence words with plain stores, a release only under x86-TSO.
    Called by [Word_arena.create], which maps every ring's words.
    @raise Failure naming [who] and the requirement on any other
    architecture. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n] (and [>= 1]). *)

val check_capacity : who:string -> int -> unit
(** @raise Invalid_argument when the capacity is not positive. *)

val check_span : who:string -> int array -> pos:int -> len:int -> unit
(** A batch span is [len] messages at message [pos] of a flat array of
    [(client, word)] pairs: message [i] at [2 * (pos + i)] and
    [2 * (pos + i) + 1].
    @raise Invalid_argument ["<who>: bad span"] if it does not fit. *)

val geometry : who:string -> capacity:int -> int * int * int
(** [(ring, mask, cap)]: slot count, index mask, exact logical
    capacity.  @raise Invalid_argument if [capacity <= 0]. *)
