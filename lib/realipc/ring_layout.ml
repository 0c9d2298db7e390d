(* Shared geometry and access rule for the flat bounded rings.

   Every ring in the message plane — the in-process Spsc_ring/Mpsc_ring
   over OCaml arrays and the cross-process Ulipc_procipc.Pring over
   mmap'd arena words — uses the same layout discipline: a power-of-two
   slot count masked into indices that grow without wrapping, an exact
   logical capacity that may be smaller than the slot count, occupancy
   read as the difference of two monotonically increasing indices, and
   one flat (seq, value) word pair per slot.  This module is that
   discipline's one home, so the two backends cannot drift.

   One-shared-line rule.  A cell is the only line both sides write, the
   consumer writes only its own index, and a producer reads the
   consumer's index only when its private snapshot of it says the ring
   is full:

   - the producer stores the value, then [seq = index + 1] (the cell is
     ready), then, on the SPSC rings, its own [head];
   - the consumer polls the cell at its index for [seq = index + 1],
     loads the value, and publishes only its own index — it never
     writes the cell back;
   - a stale cell never reads as ready: a cell last used for index
     [i - ring] holds [seq = i - ring + 1], and a fresh one holds 0.

   So a hop moves the one cell line from producer to consumer; the
   consumer's index line moves only when a producer's snapshot runs out
   of room (once per [cap] messages at a steady one-in-flight pace), and
   the SPSC [head] only for occupancy readers ([is_empty]/[length]).

   Memory-ordering argument (every ring header refers here).  A producer
   reuses a cell only after it has seen the consumer's index past it.
   The consumer loads the value before it stores its index (load ->
   store), and the producer stores the value before the seq (store ->
   store); the consumer's seq load precedes its value load (load ->
   load).  x86-TSO reorders none of these, so the reader of a ready seq
   sees that lap's value, and a reused cell's new value can never reach
   a consumer load of the old one.  Every ring publishes with plain
   stores, a release only under TSO: [require_tso] enforces it, and the
   session constructors of both backends call it.  Only the MPSC
   producers' ticket claim is a real CAS.

   Snapshot ordering rule for occupancy: [tail - head] read by a
   non-owner must load the index the PEER advances first — a stale
   own-index under-counts conservatively, never negatively.  A
   producer's snapshot of the consumer's index is stale-low in the same
   way, so it can only under-count free room. *)

external require_tso : who:string -> unit = "ulipc_require_tso"

let ceil_pow2 n =
  let rec go acc = if acc >= n then acc else go (acc * 2) in
  go 1

let check_capacity ~who capacity =
  if capacity <= 0 then
    invalid_arg (who ^ ": capacity must be positive")

(* Ring/mask/cap triple every ring constructor derives. *)
let geometry ~who ~capacity =
  check_capacity ~who capacity;
  let ring = ceil_pow2 capacity in
  (ring, ring - 1, capacity)
