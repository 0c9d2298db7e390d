(** Cache-line isolation for hot shared words.

    Hot shared words such as a slab's free-list head live in dedicated
    [Atomic.t] boxes.  Two one-word boxes
    allocated back to back share a 64-byte cache line, so a writer of
    one would invalidate the line the other lives on — the classic
    false-sharing ping-pong.  {!copy_padded} re-allocates such a box with enough
    trailing padding words that it occupies (at least) a full line on its
    own.  OCaml 5.2's [Atomic.make_contended] subsumes this; until then
    this is the portable spelling. *)

val words : int
(** Number of padding words appended ([15], i.e. 120 bytes on 64-bit). *)

val copy_padded : 'a -> 'a
(** [copy_padded v] returns a copy of the heap block [v] padded to span a
    cache line.  [v] must be a uniform scannable block read and written
    only through fixed field offsets — e.g. an ['a Atomic.t], an
    ['a ref] or a record — and must not yet be shared with another
    domain.  Use at structure
    creation time only. *)

