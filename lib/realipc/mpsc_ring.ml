(* Bounded multi-producer/single-consumer ring over one flat array,
   under the one-shared-line rule of Ring_layout.  Producers claim a
   slot by CAS-ing the tail ticket; each slot carries a sequence word
   that says whether it holds the message for the current lap, so a
   claimed-but-unfilled slot is distinguishable from a filled one
   without any lock.  Two states:

     seq = index + 1        the slot holds the message for ticket
                            [index], ready for the consumer;
     anything else          not ready: a claimed-but-unfilled slot (it
                            still holds an older lap's seq) or a fresh
                            one (seq 0).

   The consumer owns [head] outright (single consumer), so dequeue does
   no CAS and never writes the cell: check the head slot's sequence,
   take the value, bump head.  It does not recycle the sequence a lap
   ahead (Vyukov's third state, [seq = index + ring]): that store would
   dirty the cell line for the next producer to re-fetch, and TSO would
   have to commit it before anything the consumer writes after it (the
   server's reply) becomes visible.

   Flow control.  Producers check room against [head_snap], a padded
   snapshot of [head] that they share, and re-read [head] only when the
   snapshot says the ring is full; only then do they take the ticket
   CAS.  [head] is monotonic and the snapshot only ever holds a value
   [head] once had, so a stale (or racing producers' out-of-order)
   snapshot can only under-count free room, and a claim that passes the
   check against it is a claim that passes against the true [head]:
   never more than [cap] messages in flight, for [cap = ring] and
   [cap < ring] alike.  The same bound is what makes the cell free: a
   ticket [t] is claimed only after [head] passed [t - ring], i.e. after
   the consumer has loaded that lap's value (Ring_layout's ordering
   argument).  Under concurrency [enqueue] may transiently report full
   while a consumer is mid-dequeue — callers retry
   (flow_enqueue/spin_enqueue), exactly as they already do for a
   genuinely full queue.

   Cell layout: slot [i] is the word pair [cells.(2i)] (its sequence)
   and [cells.(2i+1)] (its value, a non-negative immediate — a slab
   index on the message plane).  A message's sequence and value are
   adjacent words, so a hop moves one line between producer and
   consumer, not a line of a separate sequence array plus a line of a
   value array.  OCaml array data starts one word after the block
   header, so on the common (line-aligned header) layout one pair in
   four straddles a line boundary.  Padding each cell to its own line
   was measured and rejected: 0 of 6 alternating pairs won on
   sync-domains (round trip 1.09 -> 1.25 us, EXPERIMENTS.md "One shared
   line per hop").  No ['a option] box, no per-slot Atomic block, no
   write barrier, no allocation; dequeue returns [-1] when empty.

   Sequence loads and stores are plain, under x86-TSO (Ring_layout's
   argument): a producer stores the value, then the sequence
   (store-store); the consumer loads the sequence, then the value
   (load-load), then stores [head] (load-store).  The producers' ticket
   CAS stays a real CAS: it is the synchronisation.
   [Real_substrate.create] refuses to run on a weakly-ordered target
   ([Ring_layout.require_tso]).

   A producer that is descheduled between winning the CAS and publishing
   its sequence leaves a "hole": the consumer cannot pass it, so later
   messages wait behind it.  The sleep/wake-up protocols tolerate this —
   every producer issues its wake-up only after its own enqueue completes,
   so the hole's owner is the one that wakes the consumer it stalled. *)

type t = {
  cells : int array; (* 2 * ring words: (seq, value) per slot *)
  mask : int;
  cap : int;
  tail : int Atomic.t; (* producers' ticket counter (CAS) *)
  head : int Atomic.t; (* next read index; written by the consumer only *)
  head_snap : int ref; (* producers' shared snapshot of [head], padded *)
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
  {
    (* seq 0 is never ready: ticket [i] is ready at seq [i + 1] >= 1. *)
    cells = Array.make (2 * ring) 0;
    mask;
    cap;
    tail = Padding.copy_padded (Atomic.make 0);
    head = Padding.copy_padded (Atomic.make 0);
    head_snap = Padding.copy_padded (ref 0);
  }

let capacity q = q.cap

(* The snapshot said full: free room for a claim at ticket [tail]
   against a fresh [head].  The snapshot is stored only when it moves
   forward, so producers retrying against a genuinely full ring do not
   bounce its line between them. *)
let refreshed_room q tail =
  let head = fenceless_get q.head in
  if head > !(q.head_snap) then q.head_snap := head;
  q.cap - (tail - head)

let rec raw_enqueue q v =
  let tail = Atomic.get q.tail in
  if tail - !(q.head_snap) >= q.cap && refreshed_room q tail <= 0 then false
  else if Atomic.compare_and_set q.tail tail (tail + 1) then begin
    (* Ticket won: the slot is ours alone.  The plain value store is
       published by the sequence store that follows it. *)
    let c = (tail land q.mask) lsl 1 in
    Array.unsafe_set q.cells (c + 1) v;
    Array.unsafe_set q.cells c (tail + 1);
    true
  end
  else raw_enqueue q v (* lost the ticket race; retry *)

let enqueue q v =
  if v < 0 then invalid_arg "Mpsc_ring.enqueue: negative value";
  raw_enqueue q v

(* Single consumer: poll the cell, take the value, publish [head].  The
   cell is not written back. *)
let dequeue q =
  let head = fenceless_get q.head in
  let c = (head land q.mask) lsl 1 in
  if Array.unsafe_get q.cells c = head + 1 then begin
    let v = Array.unsafe_get q.cells (c + 1) in
    fenceless_set q.head (head + 1);
    v
  end
  else nil

(* Batch enqueue: claim a span of [k] tickets with ONE tail CAS, then
   fill and publish the slots in ascending index order so the consumer
   can drain the batch progressively.  The span length is a parameter
   (the list API this replaced paid a List.length traversal to learn it
   before the claim CAS, then traversed again to fill).  The claim is
   safe for the same reason the single-op claim is: [k <= free] bounds
   every claimed ticket by the true [head] (see the header).  A
   producer descheduled mid-fill leaves a [k]-slot hole, tolerated
   exactly as the single-op hole is: the batch's wake-up is only issued
   after the whole fill completes. *)
(* Top-level recursion, not a local [let rec]: a local claim loop would
   capture the queue and the span and be allocated on every batch (no
   flambda to lift it). *)
let rec claim_batch q vs ~pos ~len =
  if len = 0 then 0
  else begin
    let tail = Atomic.get q.tail in
    let f = q.cap - (tail - !(q.head_snap)) in
    let k = min len (if f >= len then f else refreshed_room q tail) in
    if k <= 0 then 0
    else if Atomic.compare_and_set q.tail tail (tail + k) then begin
      for i = 0 to k - 1 do
        let idx = tail + i in
        let c = (idx land q.mask) lsl 1 in
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
   up to [max] into the caller's buffer and publish [head] ONCE at the
   end, after every value load. *)
let rec take_batch q buf ~pos ~max ~head i =
  if i >= max then i
  else begin
    let idx = head + i in
    let c = (idx land q.mask) lsl 1 in
    if Array.unsafe_get q.cells c = idx + 1 then begin
      Array.unsafe_set buf (pos + i) (Array.unsafe_get q.cells (c + 1));
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
