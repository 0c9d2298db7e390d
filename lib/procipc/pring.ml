(* The flat rings of the message plane, ported onto the shared arena:
   the same layouts as the in-process Spsc_ring and Mpsc_ring — one flat
   (seq, value) word pair per slot, under Ring_layout's one-shared-line
   rule — with every index and cell a word INSIDE the mmap'd region
   instead of an OCaml array cell.

   What changes when the array becomes MAP_SHARED words:

   - Cells and indices are plain Bigarray loads/stores
     ([Array1.unsafe_get/set] over [Bigarray.int] compile to bare movs
     natively).  The TSO publication argument is Ring_layout's, word
     for word: the value store precedes the seq store (store-store),
     the consumer's seq load precedes its value load (load-load) and
     its value load precedes its index publish (load-store), and x86-TSO
     reorders none of them.  That the peer is now another PROCESS is
     irrelevant — MAP_SHARED pages are the same physical cache lines in
     both address spaces, so the coherence argument carries over
     verbatim.  On a weakly-ordered target these accesses would have to
     become [Parena.at_load]/[at_store] (the C stubs' acquire/release
     forms); [Parena.create] refuses to run on one instead
     ([Ring_layout.require_tso]).

   - The MPSC producers' ticket CAS goes through [Parena.at_cas] — that
     one is a real lock;cmpxchg, exactly as [Atomic.compare_and_set]
     was, and remains the only synchronising instruction on the path.

   - The producers' snapshots of the consumer's index
     ([Spsc.cached_tail], [Mpsc.cached_head]) are ORDINARY OCAML MUTABLE
     FIELDS.  The record is copied copy-on-write at fork, so each
     process gets its own private snapshot — which is precisely what
     "producer-private" meant in-process (the in-process MPSC
     producers, being domains of one process, share a padded word
     instead).  They start at 0 (never ahead of any real index) and are
     refreshed from the shared word whenever they make the ring look
     full, so a stale snapshot only costs a re-read, never correctness.

   - Geometry (power-of-two slot count, exact logical cap, unwrapped
     indices) comes from the same [Ring_layout] the in-process rings
     use, so the two backends cannot drift.  The arena is zero-filled,
     and seq 0 is never ready (index [i] is ready at seq [i + 1]), so a
     fresh ring needs no initialisation.

   Like the in-process rings, values are non-negative immediates (slab
   slot indices); [-1] is the empty sentinel. *)

module A1 = Bigarray.Array1

let nil = -1

(* Word offsets within a ring's arena span.  Index words get a cache
   line each (the whole point of splitting producer and consumer
   lines); cells start on their own line. *)
let idx0_off = 0
let idx1_off = Parena.cache_line_words
let cells_off = 2 * Parena.cache_line_words

(* Words a ring of [ring] slots carves: the two index lines plus one
   (seq, value) pair per slot. *)
let span_words ~ring = cells_off + (2 * ring)

module Spsc = struct
  type t = {
    w : Parena.words;
    head_w : int; (* next write index; written by the producer only *)
    tail_w : int; (* next read index; written by the consumer only *)
    cells : int; (* word offset of cell 0's seq *)
    mask : int;
    cap : int;
    mutable cached_tail : int; (* producer-PROCESS snapshot of [tail] *)
  }

  let create a ~capacity =
    let ring, mask, cap =
      Ulipc_real.Ring_layout.geometry ~who:"Pring.Spsc.create" ~capacity
    in
    let base = Parena.alloc_line a ~words:(span_words ~ring) in
    {
      w = Parena.words a;
      head_w = base + idx0_off;
      tail_w = base + idx1_off;
      cells = base + cells_off;
      mask;
      cap;
      cached_tail = 0;
    }

  let capacity q = q.cap

  (* Producer side: value, then seq (the cell is ready), then the own
     [head] for is_empty/length. *)
  let enqueue q v =
    if v < 0 then invalid_arg "Pring.Spsc.enqueue: negative value";
    let head = A1.unsafe_get q.w q.head_w in
    let free =
      head - q.cached_tail < q.cap
      ||
      (q.cached_tail <- A1.unsafe_get q.w q.tail_w;
       head - q.cached_tail < q.cap)
    in
    if free then begin
      let c = q.cells + ((head land q.mask) lsl 1) in
      A1.unsafe_set q.w (c + 1) v;
      A1.unsafe_set q.w c (head + 1);
      A1.unsafe_set q.w q.head_w (head + 1);
      true
    end
    else false

  (* Consumer side: poll the cell, never [head]; publish only [tail]. *)
  let dequeue q =
    let tail = A1.unsafe_get q.w q.tail_w in
    let c = q.cells + ((tail land q.mask) lsl 1) in
    if A1.unsafe_get q.w c = tail + 1 then begin
      let v = A1.unsafe_get q.w (c + 1) in
      A1.unsafe_set q.w q.tail_w (tail + 1);
      v
    end
    else nil

  (* Snapshot ordering (Ring_layout rule): read the peer-advanced
     [tail] BEFORE own [head] so occupancy never goes negative — up to
     the instant Spsc_ring.length describes, when a taken message's
     [head] store is still in flight; hence the clamp. *)
  let is_empty q =
    let tail = A1.unsafe_get q.w q.tail_w in
    A1.unsafe_get q.w q.head_w - tail <= 0

  let length q =
    let tail = A1.unsafe_get q.w q.tail_w in
    let n = A1.unsafe_get q.w q.head_w - tail in
    if n > 0 then n else 0
end

module Mpsc = struct
  type t = {
    a : Parena.t; (* kept for the ticket CAS *)
    w : Parena.words;
    tail_w : int; (* producers' ticket counter (CAS) *)
    head_w : int; (* next read index; written by the consumer only *)
    cells : int; (* word offset of cell 0's seq *)
    mask : int;
    cap : int;
    mutable cached_head : int; (* producer-PROCESS snapshot of [head] *)
  }

  let create a ~capacity =
    let ring, mask, cap =
      Ulipc_real.Ring_layout.geometry ~who:"Pring.Mpsc.create" ~capacity
    in
    let base = Parena.alloc_line a ~words:(span_words ~ring) in
    {
      a;
      w = Parena.words a;
      tail_w = base + idx0_off;
      head_w = base + idx1_off;
      cells = base + cells_off;
      mask;
      cap;
      cached_head = 0;
    }

  let capacity q = q.cap

  (* Producers: room against the process's snapshot of [head], a fresh
     [head] only when the snapshot says full, then the ticket CAS — the
     one real atomic on the path.  The snapshot only under-counts free
     room, so a claim that passes it passes against the true [head]
     (see mpsc_ring.ml).  A won ticket owns its cell outright; the plain
     value store is published by the plain seq store (TSO). *)
  let rec raw_enqueue q v =
    let tail = Parena.at_load q.a q.tail_w in
    if
      tail - q.cached_head >= q.cap
      && (q.cached_head <- A1.unsafe_get q.w q.head_w;
          tail - q.cached_head >= q.cap)
    then false
    else if Parena.at_cas q.a q.tail_w ~expected:tail ~desired:(tail + 1)
    then begin
      let c = q.cells + ((tail land q.mask) lsl 1) in
      A1.unsafe_set q.w (c + 1) v;
      A1.unsafe_set q.w c (tail + 1);
      true
    end
    else raw_enqueue q v (* lost the ticket race; retry *)

  let enqueue q v =
    if v < 0 then invalid_arg "Pring.Mpsc.enqueue: negative value";
    raw_enqueue q v

  (* Single consumer: no CAS, and the cell is not written back. *)
  let dequeue q =
    let head = A1.unsafe_get q.w q.head_w in
    let c = q.cells + ((head land q.mask) lsl 1) in
    if A1.unsafe_get q.w c = head + 1 then begin
      let v = A1.unsafe_get q.w (c + 1) in
      A1.unsafe_set q.w q.head_w (head + 1);
      v
    end
    else nil

  (* Snapshot rule with the roles swapped (consumer advances head):
     read [head] BEFORE [tail]. *)
  let is_empty q =
    let head = A1.unsafe_get q.w q.head_w in
    Parena.at_load q.a q.tail_w - head <= 0

  let length q =
    let head = A1.unsafe_get q.w q.head_w in
    Parena.at_load q.a q.tail_w - head
end
