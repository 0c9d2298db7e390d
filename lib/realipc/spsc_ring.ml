(* Bounded single-producer/single-consumer ring over a flat int array:
   the Lamport ring with the refinements Torquati's SPSC study
   (TR-10-20) shows matter on shared-cache multicores —

   - head and tail live in separate cache-line-padded atomics, so the
     producer bumping [head] never invalidates the line the consumer's
     [tail] lives on;
   - each side keeps a private snapshot of the peer's index
     ([cached_tail]/[cached_head]) and re-reads the shared atomic only
     when the snapshot says the ring looks full/empty, so the common case
     of a half-full ring touches no shared line but the slot itself;
   - the slots are a flat [int array] carrying non-negative immediates
     (slab indices), so an enqueue is a plain unboxed store — no [Some]
     allocation, no write barrier, no GC pressure — and a dequeue
     returns the value itself with [-1] as the empty sentinel;
   - multipush ([enqueue_local]/[flush]): the producer batches up to
     [mp_k] values in a ring-resident private buffer and publishes them
     with ONE index store, without waiting for a caller-assembled batch;
   - temporal slipping: [flush] writes the buffered span {e backward}
     (highest slot first), so by the time the publish makes the span
     visible the producer has finished touching the slot cache lines
     and the consumer walks them without line ping-pong (TR-10-20's
     mpush ordering).

   Indices increase monotonically and are reduced modulo the (power of
   two) slot count; at 2^63 operations wraparound is unreachable.  The
   logical capacity is the one requested, checked exactly, so a ring of
   capacity 3 rejects the 4th enqueue even though its array has 4 slots —
   the same flow-control boundary as Tl_queue.

   Index publishes go through [fenceless_set] below — the x86-TSO
   plain store standing in for Torquati's compiler-only WMB — because
   [Atomic.set]'s full fence alone costs more than the rest of the
   operation.  The ordering argument: each index has a single writer;
   the slot stores precede the head publish (store-store) and the slot
   load precedes the tail publish (load-store), and TSO reorders
   neither; the amd64 backend schedules no instructions across them.
   On a weakly-ordered target (ARM) these would have to revert to
   [Atomic.set]/[Atomic.get] — a plain store is not a release there —
   so [Real_substrate.create] refuses to run on one
   ([Ring_layout.require_tso]). *)

type t = {
  slots : int array;
  mask : int;
  cap : int;
  head : int Atomic.t; (* next write index; written by the producer only *)
  tail : int Atomic.t; (* next read index; written by the consumer only *)
  cached_tail : int ref; (* producer-private snapshot of [tail] *)
  cached_head : int ref; (* consumer-private snapshot of [head] *)
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
    slots = Array.make ring 0;
    mask;
    cap;
    head = Padding.copy_padded (Atomic.make 0);
    tail = Padding.copy_padded (Atomic.make 0);
    cached_tail = Padding.copy_padded (ref 0);
    cached_head = Padding.copy_padded (ref 0);
    mp_buf = Array.make mp_k 0;
    mp_n = Padding.copy_padded (ref 0);
    mp_k;
  }

let capacity q = q.cap

(* Producer side.  The slot store is a plain unboxed mutation published
   by the store on [head]: a consumer that observes the new head also
   observes the slot contents (store-store order under TSO — see the
   fenceless publication note in the header). *)
let raw_enqueue q v =
  let head = fenceless_get q.head in
  let free =
    head - !(q.cached_tail) < q.cap
    ||
    (q.cached_tail := fenceless_get q.tail;
     head - !(q.cached_tail) < q.cap)
  in
  if free then begin
    Array.unsafe_set q.slots (head land q.mask) v;
    fenceless_set q.head (head + 1);
    true
  end
  else false

(* Multipush (TR-10-20): publish the whole private buffer with one
   index store, writing the span backward — highest index first — so
   the producer is done with every slot cache line before the publish
   lets the consumer walk them forward (temporal slipping).  All or
   nothing: a span that does not fit stays buffered, [mp_k <= cap]
   guarantees it can always fit eventually. *)
let flush q =
  let n = !(q.mp_n) in
  n = 0
  ||
  let head = fenceless_get q.head in
  let free =
    head + n - !(q.cached_tail) <= q.cap
    ||
    (q.cached_tail := fenceless_get q.tail;
     head + n - !(q.cached_tail) <= q.cap)
  in
  free
  && begin
       for i = n - 1 downto 0 do
         Array.unsafe_set q.slots
           ((head + i) land q.mask)
           (Array.unsafe_get q.mp_buf i)
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
   branch reads a producer-private word) it is the bare Lamport path,
   written out inline: without flambda a call to [raw_enqueue] is a real
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
      Array.unsafe_set q.slots (head land q.mask) v;
      fenceless_set q.head (head + 1);
      true
    end
    else false
  end
  else flush q && raw_enqueue q v

(* Consumer side.  Consumed slots are not cleared: the values are
   immediates, so a stale slot retains nothing and the producer only
   rewrites it after observing the advanced tail. *)
let dequeue q =
  let tail = fenceless_get q.tail in
  let avail =
    !(q.cached_head) - tail > 0
    ||
    (q.cached_head := fenceless_get q.head;
     !(q.cached_head) - tail > 0)
  in
  if avail then begin
    let v = Array.unsafe_get q.slots (tail land q.mask) in
    fenceless_set q.tail (tail + 1);
    v
  end
  else nil

(* Batch operations: claim a whole span of slots per atomic index
   store, over caller-supplied arrays — O(1) span sizing (the list API
   this replaces paid a List.length traversal before the fill, then
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
        Array.unsafe_set q.slots
          ((head + i) land q.mask)
          (Array.unsafe_get vs (pos + i))
      done;
      fenceless_set q.head (head + k);
      k
    end
  end

let dequeue_batch q buf ~pos ~max =
  if max < 0 then invalid_arg "Spsc_ring.dequeue_batch: negative max";
  if pos < 0 || pos + max > Array.length buf then
    invalid_arg "Spsc_ring.dequeue_batch: bad span";
  if max = 0 then 0
  else begin
    let tail = fenceless_get q.tail in
    let avail =
      let a = !(q.cached_head) - tail in
      if a >= max then a
      else begin
        q.cached_head := fenceless_get q.head;
        !(q.cached_head) - tail
      end
    in
    let k = min max avail in
    if k <= 0 then 0
    else begin
      for i = 0 to k - 1 do
        Array.unsafe_set buf (pos + i)
          (Array.unsafe_get q.slots ((tail + i) land q.mask))
      done;
      fenceless_set q.tail (tail + k);
      k
    end
  end

(* Snapshot ordering invariant: read [tail] BEFORE [head].  Only the
   consumer advances [tail], so a tail read first can only be stale-low,
   and [head] read second can only have grown — the difference is a
   conservative occupancy (an over-estimate) and can never go negative.
   Reading [head] first races a consumer that drains messages enqueued
   after the head load: the stale head minus the fresh tail transiently
   reports a negative length / a spuriously empty ring.  Unflushed
   multipush values are invisible here by design — they are not yet
   published. *)
let is_empty q =
  let tail = fenceless_get q.tail in
  fenceless_get q.head - tail <= 0

let length q =
  let tail = fenceless_get q.tail in
  fenceless_get q.head - tail
