(* Bounded single-producer/single-consumer ring over a flat int array:
   the Lamport ring reshaped by the refinements Torquati's SPSC study
   (TR-10-20) shows matter on shared-cache multicores, under the
   one-shared-line rule of Ring_layout —

   - each slot is a (seq, value) word pair; the consumer polls the cell
     at [tail] for [seq = tail + 1] and never reads the producer's
     [head] or writes the cell back (a stale cell holds an older lap's
     seq and never reads as ready), so the slot line is the only line
     a hop moves;
   - head and tail live in separate cache-line-padded atomics, and the
     producer keeps a private snapshot of the consumer's index
     ([cached_tail]), re-reading the shared [tail] only when the
     snapshot says the ring looks full;
   - values are non-negative immediates (slab indices), so an enqueue
     is two plain unboxed stores and a dequeue returns the value itself
     with [-1] as the empty sentinel — no [Some] allocation, no write
     barrier, no GC pressure;
   - multipush ([enqueue_local]/[flush]): the producer batches up to
     [mp_k] values in a private buffer and publishes them as one span;
   - temporal slipping: [flush] writes the buffered span {e backward}
     (highest slot first), so the cell the consumer polls next is the
     last one made ready and the consumer walks a span the producer has
     already finished with (TR-10-20's mpush ordering).

   [head] is still published (last, after the cell) so [is_empty] and
   [length] — BSLS's polling hint and the telemetry gauge — can read
   occupancy; no dequeue path reads it.

   Indices increase monotonically and are reduced modulo the (power of
   two) slot count; at 2^63 operations wraparound is unreachable.  The
   logical capacity is the one requested, checked exactly, so a ring of
   capacity 3 rejects the 4th enqueue even though its array has 4 slots —
   the same flow-control boundary as Tl_queue.

   Cell and index stores are plain — [fenceless_set] below is the
   x86-TSO plain store standing in for Torquati's compiler-only WMB —
   because [Atomic.set]'s full fence alone costs more than the rest of
   the operation.  The ordering argument is Ring_layout's: value before
   seq (store-store), seq before value on the consumer side (load-load),
   value load before the tail publish (load-store); TSO reorders none,
   and the amd64 backend schedules no instructions across them.
   [Real_substrate.create] refuses to run on a weakly-ordered target
   ([Ring_layout.require_tso]). *)

type t = {
  cells : int array; (* 2 * ring words: (seq, value) per slot *)
  mask : int;
  cap : int;
  head : int Atomic.t; (* next write index; written by the producer only *)
  tail : int Atomic.t; (* next read index; written by the consumer only *)
  cached_tail : int ref; (* producer-private snapshot of [tail] *)
  mp_buf : int array; (* producer-private multipush buffer *)
  mp_n : int ref; (* producer-private, padded: it changes every
                     enqueue_local and must not share a line with the
                     record's shared fields *)
  mp_k : int;
}

let nil = -1

(* An [int Atomic.t] is a one-field mutable block at runtime, so the
   cast yields the plain immediate store/load.  Defined here rather
   than in a shared module on purpose: same-unit they are inlined to
   the bare mov, cross-module each one is a real call that costs more
   than the store it wraps (no flambda). *)
let fenceless_set (r : int Atomic.t) (v : int) = (Obj.magic r : int ref) := v
let fenceless_get (r : int Atomic.t) : int = !(Obj.magic r : int ref)


let create ~capacity () =
  let ring, mask, cap =
    Ring_layout.geometry ~who:"Spsc_ring.create" ~capacity
  in
  let mp_k = min 8 capacity in
  {
    (* seq 0 is never ready: index [i] is ready at seq [i + 1] >= 1. *)
    cells = Array.make (2 * ring) 0;
    mask;
    cap;
    head = Padding.copy_padded (Atomic.make 0);
    tail = Padding.copy_padded (Atomic.make 0);
    cached_tail = Padding.copy_padded (ref 0);
    mp_buf = Array.make mp_k 0;
    mp_n = Padding.copy_padded (ref 0);
    mp_k;
  }

let capacity q = q.cap

(* Fill the cell for index [idx]: value first, then the seq that makes
   it ready (store-store under TSO). *)
let fill q idx v =
  let c = (idx land q.mask) lsl 1 in
  Array.unsafe_set q.cells (c + 1) v;
  Array.unsafe_set q.cells c (idx + 1)

(* Room for [n] more values?  Reads the consumer's [tail] only when the
   private snapshot says no. *)
let has_room q head n =
  head + n - !(q.cached_tail) <= q.cap
  ||
  (q.cached_tail := fenceless_get q.tail;
   head + n - !(q.cached_tail) <= q.cap)

let raw_enqueue q v =
  let head = fenceless_get q.head in
  if has_room q head 1 then begin
    fill q head v;
    fenceless_set q.head (head + 1);
    true
  end
  else false

(* Multipush (TR-10-20): write the whole private buffer backward —
   highest index first — so the cell the consumer is polling becomes
   ready last and the rest of the span is already filled when it does
   (temporal slipping).  All or nothing: a span that does not fit stays
   buffered, [mp_k <= cap] guarantees it can always fit eventually. *)
let flush q =
  let n = !(q.mp_n) in
  n = 0
  ||
  let head = fenceless_get q.head in
  has_room q head n
  && begin
       for i = n - 1 downto 0 do
         fill q (head + i) (Array.unsafe_get q.mp_buf i)
       done;
       fenceless_set q.head (head + n);
       q.mp_n := 0;
       true
     end

let pending_local q = !(q.mp_n)

let enqueue_local q v =
  if v < 0 then invalid_arg "Spsc_ring.enqueue_local: negative value";
  let n = !(q.mp_n) in
  if n < q.mp_k then begin
    Array.unsafe_set q.mp_buf n v;
    q.mp_n := n + 1;
    if n + 1 = q.mp_k then ignore (flush q : bool);
    (* Even if that auto-flush found the ring full the value IS
       buffered; a later flush retries. *)
    true
  end
  else if flush q then begin
    Array.unsafe_set q.mp_buf 0 v;
    q.mp_n := 1;
    true
  end
  else false

(* A plain enqueue first flushes any multipush leftovers so FIFO order
   holds across mixed use; with an empty buffer (the common case — the
   branch reads a producer-private word) it is the bare path, written
   out inline: without flambda a call to [raw_enqueue] is a real
   cross-function call, and at ~5 ns for the whole pair each call is a
   measurable fraction of the budget. *)
let enqueue q v =
  if v < 0 then invalid_arg "Spsc_ring.enqueue: negative value";
  if !(q.mp_n) = 0 then begin
    let head = fenceless_get q.head in
    let free =
      head - !(q.cached_tail) < q.cap
      ||
      (q.cached_tail := fenceless_get q.tail;
       head - !(q.cached_tail) < q.cap)
    in
    if free then begin
      let c = (head land q.mask) lsl 1 in
      Array.unsafe_set q.cells (c + 1) v;
      Array.unsafe_set q.cells c (head + 1);
      fenceless_set q.head (head + 1);
      true
    end
    else false
  end
  else flush q && raw_enqueue q v

(* Consumer side: poll the cell, never [head].  The value load precedes
   the tail publish (load-store), and the cell is left as it is — the
   producer rewrites it only after observing the advanced tail. *)
let dequeue q =
  let tail = fenceless_get q.tail in
  let c = (tail land q.mask) lsl 1 in
  if Array.unsafe_get q.cells c = tail + 1 then begin
    let v = Array.unsafe_get q.cells (c + 1) in
    fenceless_set q.tail (tail + 1);
    v
  end
  else nil

(* Batch operations: claim a whole span of slots per index store, over
   caller-supplied arrays — O(1) span sizing (the list API this
   replaced paid a List.length traversal before the fill, then
   traversed again to fill).  Semantics are exactly n single ops: the
   accepted prefix obeys the same capacity boundary, FIFO order is
   preserved, and a batch never blocks. *)

let enqueue_batch q vs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length vs then
    invalid_arg "Spsc_ring.enqueue_batch: bad span";
  for i = pos to pos + len - 1 do
    if vs.(i) < 0 then invalid_arg "Spsc_ring.enqueue_batch: negative value"
  done;
  if len = 0 then 0
  else if !(q.mp_n) > 0 && not (flush q) then 0
  else begin
    let head = fenceless_get q.head in
    let free =
      let f = q.cap - (head - !(q.cached_tail)) in
      if f >= len then f
      else begin
        q.cached_tail := fenceless_get q.tail;
        q.cap - (head - !(q.cached_tail))
      end
    in
    let k = min len free in
    if k <= 0 then 0
    else begin
      (* Backward fill, same temporal-slipping order as [flush]. *)
      for i = k - 1 downto 0 do
        fill q (head + i) (Array.unsafe_get vs (pos + i))
      done;
      fenceless_set q.head (head + k);
      k
    end
  end

(* Take every ready cell from [tail] up to [max], stopping at the first
   that is not.  Top-level recursion, not a local [let rec]: a local
   loop would capture the ring and the buffer and be allocated on every
   batch (no flambda to lift it). *)
let rec take_batch q buf ~pos ~max ~tail i =
  if i >= max then i
  else begin
    let idx = tail + i in
    let c = (idx land q.mask) lsl 1 in
    if Array.unsafe_get q.cells c = idx + 1 then begin
      Array.unsafe_set buf (pos + i) (Array.unsafe_get q.cells (c + 1));
      take_batch q buf ~pos ~max ~tail (i + 1)
    end
    else i
  end

let dequeue_batch q buf ~pos ~max =
  if max < 0 then invalid_arg "Spsc_ring.dequeue_batch: negative max";
  if pos < 0 || pos + max > Array.length buf then
    invalid_arg "Spsc_ring.dequeue_batch: bad span";
  let tail = fenceless_get q.tail in
  let k = take_batch q buf ~pos ~max ~tail 0 in
  if k > 0 then fenceless_set q.tail (tail + k);
  k

(* Snapshot ordering invariant: read [tail] BEFORE [head].  Only the
   consumer advances [tail], so a tail read first can only be stale-low,
   and [head] read second can only have grown — a conservative
   occupancy (an over-estimate).  Reading [head] first races a consumer
   that drains messages enqueued after the head load: the stale head
   minus the fresh tail would report a spuriously empty ring.  One
   window remains: the producer publishes [head] after the cell, so the
   consumer can take a message and publish [tail] before the producer's
   [head] store is visible; the difference is then -1 while no
   unconsumed message is published, so [length] clamps at 0 and
   [is_empty] correctly says empty.  Unflushed multipush values are
   invisible here by design — they are not yet published. *)
let is_empty q =
  let tail = fenceless_get q.tail in
  fenceless_get q.head - tail <= 0

let length q =
  let tail = fenceless_get q.tail in
  let n = fenceless_get q.head - tail in
  if n > 0 then n else 0
