(* Bounded single-producer/single-consumer ring over shared arena words:
   the Lamport ring reshaped by the refinements Torquati's SPSC study
   (TR-10-20) shows matter on shared-cache multicores, under the
   one-shared-line rule of Ring_layout —

   - each slot is a two-word cell (tag, word) that carries the message
     itself, the client in the tag's high bits; the consumer polls the
     cell at [tail] for the seq [tail + 1] in the tag's low bits,
     copies the client and the word out, and never reads the
     producer's [head] or writes the cell back (a stale cell holds an
     older lap's seq and never reads as ready), so the slot line is the
     only line a hop moves;
   - head and tail sit on separate cache lines, and the producer keeps
     a snapshot of the consumer's index ([cached_tail], on the line of
     its [head]), re-reading the shared [tail] only when the snapshot
     says the ring looks full;
   - the message words are immediates, so an enqueue is two plain
     word stores and a dequeue copies two words into a caller-owned
     array — no [Some] allocation, no write barrier, no GC pressure;
     readiness rides on the seq alone, so a word may be any int;
   - temporal slipping: [enqueue_batch] writes a span {e backward}
     (highest slot first), so the cell the consumer polls next is the
     last one made ready and the consumer walks a span the producer has
     already finished with (TR-10-20's mpush ordering).

   Every index, snapshot and cell is a word of a Word_arena, so the
   ring works unchanged between domains and between fork'd processes:
   the record holds only the mapping and word offsets, and nothing a
   peer must see lives in the OCaml heap.  Layout, from line-aligned
   bases:

     line 0       [head], [cached_tail]   producer-owned
     line 1       [tail]                  consumer-owned

   and the cells, two to a four-word lane of each line of a cell region
   (Ring_layout's placement): the first lane of a region of the ring's
   own when it is carved alone ([carve]), or one lane of a region it
   shares with a second ring ([carve_lane]).

   [head] is still published (last, after the cell) so [is_empty] and
   [length] — BSLS's polling hint and the telemetry gauge — can read
   occupancy; no dequeue path reads it.

   Indices increase monotonically and are reduced modulo the (power of
   two) slot count; at 2^63 operations wraparound is unreachable.  The
   logical capacity is the one requested, checked exactly, so a ring of
   capacity 3 rejects the 4th enqueue even though it has 4 slots — the
   same flow-control boundary as Mpsc_ring.

   Every access is a plain Bigarray load or store (a bare mov natively),
   standing in for Torquati's compiler-only WMB: a fenced store alone
   costs more than the rest of the operation.  The ordering argument is
   Ring_layout's: word before tag (store-store), tag before word on
   the consumer side (load-load), word load before the tail publish
   (load-store); TSO reorders none, and the amd64 backend schedules no
   instructions across them.  [Word_arena.create] refuses to run on a
   weakly-ordered target ([Ring_layout.require_tso]). *)

module A1 = Bigarray.Array1

type t = {
  w : Word_arena.words;
  head : int; (* next write index; written by the producer only *)
  cached_tail : int; (* the producer's snapshot of [tail] *)
  tail : int; (* next read index; written by the consumer only *)
  cells : int; (* its lane of a cell region: slot [s] at [cell q s] *)
  mask : int;
  cap : int;
}

let nil = -1
let line = Word_arena.cache_line_words
let tail_off = line
let cells_off = 2 * line

(* The ring's two index lines; its cells are a lane of a region the
   caller carved. *)
let lane_arena_words = cells_off + line - 1

(* The arena is zero-filled, and seq 0 is never ready: index [i] is
   ready at seq [(i + 1) mod 2^20], which is not 0 on a first lap. *)
let carve_lane a ~capacity ~cells =
  let _, mask, cap =
    Ring_layout.geometry ~who:"Spsc_ring.carve_lane" ~capacity
  in
  let base = Word_arena.alloc_line a ~words:cells_off in
  {
    w = Word_arena.words a;
    head = base;
    cached_tail = base + 1;
    tail = base + tail_off;
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
  Ring_layout.check_capacity ~who:"Spsc_ring.carve" capacity;
  let cells =
    Word_arena.alloc_line a ~words:(Ring_layout.region_words ~capacity)
  in
  carve_lane a ~capacity ~cells

let create ~capacity () =
  Ring_layout.check_capacity ~who:"Spsc_ring.create" capacity;
  carve (Word_arena.create ~size_words:(arena_words ~capacity) ()) ~capacity

let capacity q = q.cap

(* Ring_layout's cell placement and cell format, written out here (and
   in the sibling ring) so that they compile inline: the word offset of
   the cell for index [idx]; the tag a producer stores last, [client] in
   the high bits and the seq, [(idx + 1) mod 2^20], in the low 20; and
   the consumer's readiness test of a tag for index [idx]. *)
let[@inline] cell q idx =
  let s = idx land q.mask in
  q.cells + ((s land -8) lsl 2) + ((s land 3) lsl 3)
  + ((s land 4) lsr 1)

let seq_mask = 0xFFFFF
let[@inline] stamp idx client = (client lsl 20) lor ((idx + 1) land seq_mask)
let[@inline] ready tag idx = (tag - idx - 1) land seq_mask = 0

(* Fill the cell for index [idx]: the word first, then the tag that
   makes it ready (store-store under TSO). *)
let fill q idx client word =
  let c = cell q idx in
  A1.unsafe_set q.w (c + 1) word;
  A1.unsafe_set q.w c (stamp idx client)

(* The bare path written out inline: without flambda a call to [fill]
   is a real cross-function call, and at ~5 ns for the whole pair each
   call is a measurable fraction of the budget. *)
let enqueue_pair q ~client ~word =
  let w = q.w in
  let head = A1.unsafe_get w q.head in
  let free =
    head - A1.unsafe_get w q.cached_tail < q.cap
    ||
    (A1.unsafe_set w q.cached_tail (A1.unsafe_get w q.tail);
     head - A1.unsafe_get w q.cached_tail < q.cap)
  in
  if free then begin
    let c = cell q head in
    A1.unsafe_set w (c + 1) word;
    A1.unsafe_set w c (stamp head client);
    A1.unsafe_set w q.head (head + 1);
    true
  end
  else false

(* Consumer side: poll the cell, never [head].  Both loads precede the
   tail publish (load-store), and the cell is left as it is — the
   producer rewrites it only after observing the advanced tail. *)
let dequeue_into q dst pos =
  let w = q.w in
  let tail = A1.unsafe_get w q.tail in
  let c = cell q tail in
  let tag = A1.unsafe_get w c in
  if ready tag tail then begin
    dst.(pos) <- tag asr 20;
    dst.(pos + 1) <- A1.unsafe_get w (c + 1);
    A1.unsafe_set w q.tail (tail + 1);
    true
  end
  else false

(* The one-word pair, for callers with a single non-negative value per
   message: the client word is 0, and [nil] can mark emptiness because
   no accepted value is negative. *)
let enqueue q v =
  if v < 0 then invalid_arg "Spsc_ring.enqueue: negative value";
  enqueue_pair q ~client:0 ~word:v

let dequeue q =
  let w = q.w in
  let tail = A1.unsafe_get w q.tail in
  let c = cell q tail in
  if ready (A1.unsafe_get w c) tail then begin
    let v = A1.unsafe_get w (c + 1) in
    A1.unsafe_set w q.tail (tail + 1);
    v
  end
  else nil

(* Batch operations: claim a whole span of slots per index store, over
   caller-supplied arrays of (client, word) pairs — O(1) span sizing.
   Semantics are exactly n single ops: the accepted prefix obeys the
   same capacity boundary, FIFO order is preserved, and a batch never
   blocks. *)

let enqueue_batch q span ~pos ~len =
  Ring_layout.check_span ~who:"Spsc_ring.enqueue_batch" span ~pos ~len;
  if len = 0 then 0
  else begin
    let head = A1.unsafe_get q.w q.head in
    let free =
      let f = q.cap - (head - A1.unsafe_get q.w q.cached_tail) in
      if f >= len then f
      else begin
        A1.unsafe_set q.w q.cached_tail (A1.unsafe_get q.w q.tail);
        q.cap - (head - A1.unsafe_get q.w q.cached_tail)
      end
    in
    let k = min len free in
    if k <= 0 then 0
    else begin
      (* Backward fill (temporal slipping): the cell the consumer polls
         next becomes ready last. *)
      for i = k - 1 downto 0 do
        let s = 2 * (pos + i) in
        fill q (head + i) (Array.unsafe_get span s)
          (Array.unsafe_get span (s + 1))
      done;
      A1.unsafe_set q.w q.head (head + k);
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
    let c = cell q idx in
    let tag = A1.unsafe_get q.w c in
    if ready tag idx then begin
      let s = 2 * (pos + i) in
      Array.unsafe_set buf s (tag asr 20);
      Array.unsafe_set buf (s + 1) (A1.unsafe_get q.w (c + 1));
      take_batch q buf ~pos ~max ~tail (i + 1)
    end
    else i
  end

let dequeue_batch q buf ~pos ~max =
  if max < 0 then invalid_arg "Spsc_ring.dequeue_batch: negative max";
  Ring_layout.check_span ~who:"Spsc_ring.dequeue_batch" buf ~pos ~len:max;
  let tail = A1.unsafe_get q.w q.tail in
  let k = take_batch q buf ~pos ~max ~tail 0 in
  if k > 0 then A1.unsafe_set q.w q.tail (tail + k);
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
   [is_empty] correctly says empty. *)
let is_empty q =
  let tail = A1.unsafe_get q.w q.tail in
  A1.unsafe_get q.w q.head - tail <= 0

let length q =
  let tail = A1.unsafe_get q.w q.tail in
  let n = A1.unsafe_get q.w q.head - tail in
  if n > 0 then n else 0
