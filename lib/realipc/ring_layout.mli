(** Shared geometry for the flat bounded rings, [Spsc_ring] and
    [Mpsc_ring] — the one ring implementation both real backends carve
    from a [Word_arena]: power-of-two slot counts, exact logical
    capacity, occupancy as a difference of unwrapped indices, one flat
    two-word cell per slot, [(tag, word)], carrying the whole message:
    the tag holds the client in its high bits and the cell's sequence
    number in its low 20.  A ring's cells sit two to a four-word lane,
    slots [s] and [s + 4] of each block of eight together; each line
    has two lanes, so that a second ring's cell [i] can share the line
    of the first ring's cell [i].

    Both rings follow one rule: a cell is the only line both sides
    write (on a paired region a call's request and reply cells share
    that line, in disjoint lanes), the consumer copies the message out
    before it writes its own index (and writes nothing else), and a
    producer reads the consumer's index only when its snapshot says the
    ring is full.  ring_layout.ml states the rule, the cell format and
    placement, the TSO memory-ordering argument behind them, and the
    snapshot-ordering rule for occupancy reads; each ring header refers
    there. *)

val require_tso : who:string -> unit
(** Returns only on a build for x86-64.  The rings publish their index
    and tag words with plain stores, a release only under x86-TSO.
    Called by [Word_arena.create], which maps every ring's words.
    @raise Failure naming [who] and the requirement on any other
    architecture. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n] (and [>= 1]). *)

val check_capacity : who:string -> int -> unit
(** @raise Invalid_argument when the capacity is not positive or above
    2^19 (the cell's 20-bit sequence number tells laps apart only up to
    there). *)

val check_span : who:string -> int array -> pos:int -> len:int -> unit
(** A batch span is [len] messages at message [pos] of a flat array of
    [(client, word)] pairs: message [i] at [2 * (pos + i)] and
    [2 * (pos + i) + 1].
    @raise Invalid_argument ["<who>: bad span"] if it does not fit. *)

(** {1 Cell placement}

    A ring's cells lie in a region of lines, each line two four-word
    lanes; slot [s]'s cell is at
    [cells + 4 * (s land -8) + 8 * (s land 3) + (s land 4) / 2], with
    [cells] the start of the ring's lane. *)

val second_lane : int
(** [4]: the word offset, within each line of a region, of its second
    lane; the first lane starts at word 0. *)

val region_words : capacity:int -> int
(** The words of a cell region for rings of [capacity]: one ring carved
    alone on its first lane, or two sharing it, one on each lane. *)

val geometry : who:string -> capacity:int -> int * int * int
(** [(ring, mask, cap)]: slot count, index mask, exact logical
    capacity.  @raise Invalid_argument as {!check_capacity}. *)
