(* Bounded multi-producer/single-consumer ring: Vyukov's bounded queue
   specialised to one consumer, over one flat array.  Producers claim a
   slot by CAS-ing the tail ticket; each slot carries a sequence number
   that says which lap of the ring it is ready for, so a
   claimed-but-unfilled slot is distinguishable from a filled one
   without any lock:

     seq = index            the slot is free for the producer holding
                            ticket [index];
     seq = index + 1        the slot holds the message for ticket
                            [index], ready for the consumer;
     seq = index + ring     the consumer has emptied it; free for the
                            producer holding ticket [index + ring].

   The consumer owns [head] outright (single consumer), so dequeue does
   no CAS at all: check the head slot's sequence, take the value, bump
   the sequence a full lap, bump head.

   Cell layout: slot [i] is the word pair [cells.(2i)] (its sequence)
   and [cells.(2i+1)] (its value, a non-negative immediate — a slab
   index on the message plane).  A message's sequence and value are
   adjacent words, so the producer's fill and the consumer's take move
   one cache line between them, not a line of a separate sequence
   array plus a line of a value array.  (A pair straddles a line
   boundary only when the array's data starts off a 16-byte boundary,
   and then one pair in four.)  No ['a option] box, no per-slot Atomic
   block, no write barrier, no allocation; dequeue returns [-1] when
   empty.

   Sequence loads and stores are plain, under x86-TSO (the argument is
   spelled out in spsc_ring.ml): a producer stores the value, then the
   sequence (store-store); the consumer loads the sequence, then the
   value (load-load), then stores the recycled sequence (load-store) —
   TSO reorders none of these, and the amd64 backend schedules no
   instructions across them.  The producers' ticket CAS stays a real
   CAS: it is the synchronisation.  On a weakly-ordered target these
   accesses would have to become acquire/release atomics;
   [Real_substrate.create] refuses to run there instead
   ([Ring_layout.require_tso]).

   Flow control is exact against the logical [cap].  When [cap] equals
   the (power-of-two) slot count the sequence check is already exact: a
   producer finding its slot still at the previous lap (seq < tail)
   reports full, and it never reads [head] — the consumer's line stays
   with the consumer.  Only when [cap] is smaller than the slot count
   does a producer first check [tail - head >= cap] and report full
   without claiming a ticket.  Under concurrency [enqueue] may
   transiently report full while a consumer is mid-dequeue — callers
   retry (flow_enqueue/spin_enqueue), exactly as they already do for a
   genuinely full queue.

   A producer that is descheduled between winning the CAS and publishing
   its sequence leaves a "hole": the consumer cannot pass it, so later
   messages wait behind it.  The sleep/wake-up protocols tolerate this —
   every producer issues its wake-up only after its own enqueue completes,
   so the hole's owner is the one that wakes the consumer it stalled. *)

type t = {
  cells : int array; (* 2 * ring words: (seq, value) per slot *)
  mask : int;
  ring : int;
  cap : int;
  tail : int Atomic.t; (* producers' ticket counter (CAS) *)
  head : int Atomic.t; (* next read index; written by the consumer only *)
}

let nil = -1

(* Plain store/load into an atomic's cell — the x86-TSO spelling of
   spsc_ring.ml, for the consumer's [head].  Same-unit so they inline to
   the bare mov.  On a weakly-ordered target revert to
   [Atomic.set]/[Atomic.get]. *)
let fenceless_set (r : int Atomic.t) (v : int) = (Obj.magic r : int ref) := v
let fenceless_get (r : int Atomic.t) : int = !(Obj.magic r : int ref)

let create ~capacity () =
  let ring, mask, cap =
    Ring_layout.geometry ~who:"Mpsc_ring.create" ~capacity
  in
  let cells = Array.make (2 * ring) 0 in
  for i = 0 to ring - 1 do
    cells.(2 * i) <- i
  done;
  {
    cells;
    mask;
    ring;
    cap;
    tail = Padding.copy_padded (Atomic.make 0);
    head = Padding.copy_padded (Atomic.make 0);
  }

let capacity q = q.cap

(* Index of ticket [idx]'s sequence word; its value is the next word. *)
let cell q idx = (idx land q.mask) lsl 1

let rec raw_enqueue q v =
  let tail = Atomic.get q.tail in
  if q.cap < q.ring && tail - fenceless_get q.head >= q.cap then false
  else begin
    let c = cell q tail in
    let seq = Array.unsafe_get q.cells c in
    if seq = tail then
      if Atomic.compare_and_set q.tail tail (tail + 1) then begin
        (* Ticket won: the slot is ours alone.  The plain value store is
           published by the sequence store that follows it. *)
        Array.unsafe_set q.cells (c + 1) v;
        Array.unsafe_set q.cells c (tail + 1);
        true
      end
      else raw_enqueue q v (* lost the ticket race; retry *)
    else if seq - tail < 0 then
      (* Still occupied from the previous lap: full.  The exact check
         when [cap = ring]; unreachable after the [head] check
         otherwise. *)
      false
    else raw_enqueue q v (* another producer advanced tail; reload *)
  end

let enqueue q v =
  if v < 0 then invalid_arg "Mpsc_ring.enqueue: negative value";
  raw_enqueue q v

(* Single consumer: no competition for [head].  The sequence is bumped a
   full lap *before* head so that a producer passing the exact capacity
   check always finds the slot recycled (see the ordering argument in
   enqueue's full check). *)
let dequeue q =
  let head = fenceless_get q.head in
  let c = cell q head in
  if Array.unsafe_get q.cells c = head + 1 then begin
    let v = Array.unsafe_get q.cells (c + 1) in
    Array.unsafe_set q.cells c (head + q.ring);
    fenceless_set q.head (head + 1);
    v
  end
  else nil

(* Batch enqueue: claim a span of [k] tickets with ONE tail CAS, then
   fill and publish the slots in ascending index order so the consumer
   can drain the batch progressively.  The span length is a parameter
   (the list API this replaces paid a List.length traversal to learn it
   before the claim CAS, then traversed again to fill).  The claim is
   safe for the same reason the single-op claim is:
   [k <= cap - (tail - head)] and [cap <= ring] together guarantee every
   claimed slot's previous lap was already consumed (its sequence
   recycled before [head] passed it), so no per-slot sequence check is
   needed before the CAS.  A producer descheduled mid-fill leaves a
   [k]-slot hole, tolerated exactly as the single-op hole is: the
   batch's wake-up is only issued after the whole fill completes. *)
(* Top-level recursion, not a local [let rec]: a local claim loop would
   capture the queue and the span and be allocated on every batch (no
   flambda to lift it). *)
let rec claim_batch q vs ~pos ~len =
  if len = 0 then 0
  else begin
    let tail = Atomic.get q.tail in
    let head = fenceless_get q.head in
    let free = q.cap - (tail - head) in
    let k = min len free in
    if k <= 0 then 0
    else if Atomic.compare_and_set q.tail tail (tail + k) then begin
      for i = 0 to k - 1 do
        let idx = tail + i in
        let c = cell q idx in
        Array.unsafe_set q.cells (c + 1) (Array.unsafe_get vs (pos + i));
        Array.unsafe_set q.cells c (idx + 1)
      done;
      k
    end
    else claim_batch q vs ~pos ~len (* lost the ticket race; reload *)
  end

let enqueue_batch q vs ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length vs then
    invalid_arg "Mpsc_ring.enqueue_batch: bad span";
  for i = pos to pos + len - 1 do
    if vs.(i) < 0 then invalid_arg "Mpsc_ring.enqueue_batch: negative value"
  done;
  claim_batch q vs ~pos ~len

(* Batch dequeue (single consumer): take every ready slot from [head]
   up to [max] into the caller's buffer, recycle each sequence a full
   lap as it is emptied, and publish [head] ONCE at the end — after all
   the recycles, preserving the seq-before-head ordering the producers'
   capacity check relies on. *)
let rec take_batch q buf ~pos ~max ~head i =
  if i >= max then i
  else begin
    let idx = head + i in
    let c = cell q idx in
    if Array.unsafe_get q.cells c = idx + 1 then begin
      Array.unsafe_set buf (pos + i) (Array.unsafe_get q.cells (c + 1));
      Array.unsafe_set q.cells c (idx + q.ring);
      take_batch q buf ~pos ~max ~head (i + 1)
    end
    else i
  end

let dequeue_batch q buf ~pos ~max =
  if max < 0 then invalid_arg "Mpsc_ring.dequeue_batch: negative max";
  if pos < 0 || pos + max > Array.length buf then
    invalid_arg "Mpsc_ring.dequeue_batch: bad span";
  let head = fenceless_get q.head in
  let k = take_batch q buf ~pos ~max ~head 0 in
  if k > 0 then fenceless_set q.head (head + k);
  k

(* Same snapshot ordering invariant as Spsc_ring, with the roles
   swapped: here the occupancy is [tail - head] and the single consumer
   advances [head], so read [head] BEFORE [tail].  A stale head can only
   under-count consumption and a later tail can only have grown, keeping
   the difference a conservative, never-negative occupancy. *)
let is_empty q =
  let head = Atomic.get q.head in
  Atomic.get q.tail - head <= 0

let length q =
  let head = Atomic.get q.head in
  Atomic.get q.tail - head
