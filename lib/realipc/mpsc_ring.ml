(* Bounded multi-producer/single-consumer ring over shared arena words,
   under the one-shared-line rule of Ring_layout.  Producers claim a
   slot by CAS-ing the tail ticket; each slot's tag carries a sequence
   number (Ring_layout's cell format) that says whether it holds the
   message for the current lap, so a claimed-but-unfilled slot is
   distinguishable from a filled one without any lock.  Two states:

     seq = index + 1        the slot holds the message for ticket
                            [index], ready for the consumer (mod 2^20);
     anything else          not ready: a claimed-but-unfilled slot (it
                            still holds an older lap's seq) or a fresh
                            one (seq 0).

   The consumer owns [head] outright (single consumer), so dequeue does
   no CAS and never writes the cell: check the head slot's sequence,
   copy the message out, bump head.  It does not recycle the sequence a
   lap ahead (Vyukov's third state, [seq = index + ring]): that store would
   dirty the cell line for the next producer to re-fetch, and TSO would
   have to commit it before anything the consumer writes after it (the
   server's reply) becomes visible.

   Flow control.  Producers check room against [head_snap], a snapshot
   of [head] that they share, and re-read [head] only when the snapshot
   says the ring is full; only then do they take the ticket CAS.
   [head] is monotonic and the snapshot only ever holds a value [head]
   once had, so a stale (or racing producers' out-of-order) snapshot
   can only under-count free room, and a claim that passes the check
   against it is a claim that passes against the true [head]: never
   more than [cap] messages in flight, for [cap = ring] and
   [cap < ring] alike.  The same bound is what makes the cell free: a
   ticket [t] is claimed only after [head] passed [t - ring], i.e.
   after the consumer has loaded that lap's words (Ring_layout's
   ordering argument).  Under concurrency [enqueue] may transiently
   report full while a consumer is mid-dequeue — callers retry
   (flow_enqueue/spin_enqueue), exactly as they already do for a
   genuinely full queue.

   Layout.  Every index, the snapshot and every cell is a word of a
   Word_arena, so producers may be domains or fork'd processes alike:
   the record holds only the mapping and word offsets.  From line-aligned
   bases:

     line 0       [tail] (the ticket), [head_snap]   the producers' line
     line 1       [head]                             the consumer's line

   and the cells, (tag, word), two to a four-word lane of each line of
   a cell region (Ring_layout's placement): the first lane of a region
   of the ring's own when it is carved alone ([carve]), or one lane of
   a region it shares with a second ring ([carve_lane]).

   A message's sequence and payload share one cell, so a hop moves one
   line between producer and consumer, not a line of a separate
   sequence array plus a line of a payload slab; with the cells
   line-aligned, none straddles two.  The snapshot shares the ticket's
   line: a producer reads both on every claim and writes the snapshot
   only just before its CAS writes that line anyway.  No ['a option] box, no write barrier, no allocation.
   Readiness is the sequence's alone, so a payload word may be any int.

   Every access but the ticket claim is a plain Bigarray load or store,
   under x86-TSO (Ring_layout's argument): a producer stores the
   word, then the tag (store-store); the consumer loads the tag, then
   the word (load-load), then stores [head]
   (load-store).  Producers read [tail] with a plain load too; only the
   ticket CAS is a locked instruction ([Word_arena.cas], a [@@noalloc]
   stub): it is the synchronisation.  [Word_arena.create] refuses to
   run on a weakly-ordered target ([Ring_layout.require_tso]).

   A producer that is descheduled between winning the CAS and publishing
   its sequence leaves a "hole": the consumer cannot pass it, so later
   messages wait behind it.  The sleep/wake-up protocols tolerate this —
   every producer issues its wake-up only after its own enqueue completes,
   so the hole's owner is the one that wakes the consumer it stalled. *)

module A1 = Bigarray.Array1

type t = {
  w : Word_arena.words;
  tail : int; (* producers' ticket counter (CAS) *)
  head_snap : int; (* producers' shared snapshot of [head] *)
  head : int; (* next read index; written by the consumer only *)
  cells : int; (* its lane of a cell region: slot [s] at [cell q s] *)
  mask : int;
  cap : int;
}

let nil = -1
let line = Word_arena.cache_line_words
let head_off = line
let cells_off = 2 * line

(* The ring's two index lines; its cells are a lane of a region the
   caller carved. *)
let lane_arena_words = cells_off + line - 1

(* The arena is zero-filled, and seq 0 is never ready: ticket [i] is
   ready at seq [(i + 1) mod 2^20], which is not 0 on a first lap. *)
let carve_lane a ~capacity ~cells =
  let _, mask, cap =
    Ring_layout.geometry ~who:"Mpsc_ring.carve_lane" ~capacity
  in
  let base = Word_arena.alloc_line a ~words:cells_off in
  {
    w = Word_arena.words a;
    tail = base;
    head_snap = base + 1;
    head = base + head_off;
    cells;
    mask;
    cap;
  }

(* A ring carved alone: a region of its own, then the ring on its first
   lane.  The region is whole lines, so the index lines need no
   padding. *)
let arena_words ~capacity =
  Ring_layout.region_words ~capacity + line - 1 + cells_off

let carve a ~capacity =
  Ring_layout.check_capacity ~who:"Mpsc_ring.carve" capacity;
  let cells =
    Word_arena.alloc_line a ~words:(Ring_layout.region_words ~capacity)
  in
  carve_lane a ~capacity ~cells

let create ~capacity () =
  Ring_layout.check_capacity ~who:"Mpsc_ring.create" capacity;
  carve (Word_arena.create ~size_words:(arena_words ~capacity) ()) ~capacity

let capacity q = q.cap

let[@inline] cell q idx = Ring_layout.cell ~cells:q.cells ~mask:q.mask idx

(* The snapshot said full: free room for a claim at ticket [tail]
   against a fresh [head].  The snapshot is stored only when it moves
   forward, so producers retrying against a genuinely full ring do not
   bounce its line between them. *)
let refreshed_room q tail =
  let head = A1.unsafe_get q.w q.head in
  if head > A1.unsafe_get q.w q.head_snap then
    A1.unsafe_set q.w q.head_snap head;
  q.cap - (tail - head)

(* Fill the cell for ticket [idx], which the caller has claimed: the
   word first, then the tag that publishes it. *)
let fill q idx client word =
  let c = cell q idx in
  A1.unsafe_set q.w (c + 1) word;
  A1.unsafe_set q.w c (Ring_layout.stamp idx client)

let rec enqueue_pair q ~client ~word =
  let tail = A1.unsafe_get q.w q.tail in
  if tail - A1.unsafe_get q.w q.head_snap >= q.cap && refreshed_room q tail <= 0
  then false
  else if Word_arena.cas q.w q.tail tail (tail + 1) then begin
    (* Ticket won: the slot is ours alone. *)
    fill q tail client word;
    true
  end
  else enqueue_pair q ~client ~word (* lost the ticket race; retry *)

(* Single consumer: poll the cell, copy the message out, publish
   [head].  The cell is not written back. *)
let dequeue_into q dst pos =
  let w = q.w in
  let head = A1.unsafe_get w q.head in
  let c = cell q head in
  let tag = A1.unsafe_get w c in
  if Ring_layout.ready tag head then begin
    dst.(pos) <- tag asr 20;
    dst.(pos + 1) <- A1.unsafe_get w (c + 1);
    A1.unsafe_set w q.head (head + 1);
    true
  end
  else false

(* The one-word pair: client word 0, and [nil] marks emptiness because
   no accepted value is negative. *)
let enqueue q v =
  if v < 0 then invalid_arg "Mpsc_ring.enqueue: negative value";
  enqueue_pair q ~client:0 ~word:v

let dequeue q =
  let w = q.w in
  let head = A1.unsafe_get w q.head in
  let c = cell q head in
  if Ring_layout.ready (A1.unsafe_get w c) head then begin
    let v = A1.unsafe_get w (c + 1) in
    A1.unsafe_set w q.head (head + 1);
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
let rec claim_batch q span ~pos ~len =
  if len = 0 then 0
  else begin
    let tail = A1.unsafe_get q.w q.tail in
    let f = q.cap - (tail - A1.unsafe_get q.w q.head_snap) in
    let k = min len (if f >= len then f else refreshed_room q tail) in
    if k <= 0 then 0
    else if Word_arena.cas q.w q.tail tail (tail + k) then begin
      for i = 0 to k - 1 do
        let s = 2 * (pos + i) in
        fill q (tail + i) (Array.unsafe_get span s)
          (Array.unsafe_get span (s + 1))
      done;
      k
    end
    else claim_batch q span ~pos ~len (* lost the ticket race; reload *)
  end

let enqueue_batch q span ~pos ~len =
  Ring_layout.check_span ~who:"Mpsc_ring.enqueue_batch" span ~pos ~len;
  claim_batch q span ~pos ~len

(* Batch dequeue (single consumer): take every ready slot from [head]
   up to [max] into the caller's span and publish [head] ONCE at the
   end, after every word load. *)
let rec take_batch q buf ~pos ~max ~head i =
  if i >= max then i
  else begin
    let idx = head + i in
    let c = cell q idx in
    let tag = A1.unsafe_get q.w c in
    if Ring_layout.ready tag idx then begin
      let s = 2 * (pos + i) in
      Array.unsafe_set buf s (tag asr 20);
      Array.unsafe_set buf (s + 1) (A1.unsafe_get q.w (c + 1));
      take_batch q buf ~pos ~max ~head (i + 1)
    end
    else i
  end

let dequeue_batch q buf ~pos ~max =
  if max < 0 then invalid_arg "Mpsc_ring.dequeue_batch: negative max";
  Ring_layout.check_span ~who:"Mpsc_ring.dequeue_batch" buf ~pos ~len:max;
  let head = A1.unsafe_get q.w q.head in
  let k = take_batch q buf ~pos ~max ~head 0 in
  if k > 0 then A1.unsafe_set q.w q.head (head + k);
  k

(* Same snapshot ordering invariant as Spsc_ring, with the roles
   swapped: here the occupancy is [tail - head] and the single consumer
   advances [head], so read [head] BEFORE [tail].  A stale head can only
   under-count consumption and a later tail can only have grown, keeping
   the difference a conservative, never-negative occupancy. *)
let is_empty q =
  let head = A1.unsafe_get q.w q.head in
  A1.unsafe_get q.w q.tail - head <= 0

let length q =
  let head = A1.unsafe_get q.w q.head in
  A1.unsafe_get q.w q.tail - head
