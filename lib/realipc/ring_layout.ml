(* Shared geometry and access rule for the flat bounded rings.

   The message plane has one ring implementation, Spsc_ring and
   Mpsc_ring, and both real backends use it: the domains backend and the
   fork'd backend carve their rings from a session's Word_arena, whose
   words are the same whether the peer is a domain or a process.  The
   layout discipline is this module's: a power-of-two slot count masked
   into indices that grow without wrapping, an exact logical capacity
   that may be smaller than the slot count, occupancy read as the
   difference of two monotonically increasing indices, and one flat
   four-word cell per slot, (seq, client, word, spare).  A cell carries
   the whole message — the client number and one payload word, copied in
   by the producer and out by the consumer — so no payload lives
   anywhere else.  Callers with one value per message (the layer
   ladder, the ring tests) send it as the word with client 0.

   One-shared-line rule.  A cell is the only line both sides write, the
   consumer writes only its own index, and a producer reads the
   consumer's index only when its private snapshot of it says the ring
   is full:

   - the producer stores every message word, then [seq = index + 1]
     (the cell is ready), then, on the SPSC rings, its own [head];
   - the consumer polls the cell at its index for [seq = index + 1],
     copies every message word out, and only then publishes its own
     index — it never writes the cell back;
   - a stale cell never reads as ready: a cell last used for index
     [i - ring] holds [seq = i - ring + 1], and a fresh one holds 0.

   So a hop moves the one cell line from producer to consumer; the
   consumer's index line moves only when a producer's snapshot runs out
   of room (once per [cap] messages at a steady one-in-flight pace), and
   the SPSC [head] only for occupancy readers ([is_empty]/[length]).

   Memory-ordering argument (every ring header refers here).  A producer
   reuses a cell only after it has seen the consumer's index past it.
   The consumer loads every message word before it stores its index
   (load -> store), and the producer stores every word before the seq
   (store -> store); the consumer's seq load precedes its word loads
   (load -> load).  x86-TSO reorders none of these, so the reader of a
   ready seq sees that lap's words — all of them — and a reused cell's
   new words can never reach a consumer load of the old message: a
   message can neither arrive torn between two laps nor half-written.
   Readiness is the seq alone, so a message word may hold any value.
   Every ring publishes with plain stores, a release only under TSO:
   [require_tso] enforces it, and [Word_arena.create], which maps every
   ring's words, calls it.  Only the MPSC producers' ticket claim is a
   real CAS.

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

(* A span of [len] messages at [pos] in a flat array of (client, word)
   pairs — the batch layout of the in-process rings. *)
let check_span ~who span ~pos ~len =
  if pos < 0 || len < 0 || 2 * (pos + len) > Array.length span then
    invalid_arg (who ^ ": bad span")

(* Ring/mask/cap triple every ring constructor derives. *)
let geometry ~who ~capacity =
  check_capacity ~who capacity;
  let ring = ceil_pow2 capacity in
  (ring, ring - 1, capacity)
