(* Shared geometry and access rule for the flat bounded rings.

   The message plane has one ring implementation, Spsc_ring and
   Mpsc_ring, and both real backends use it: the domains backend and the
   fork'd backend carve their rings from a session's Word_arena, whose
   words are the same whether the peer is a domain or a process.  The
   layout discipline is this module's: a power-of-two slot count masked
   into indices that grow without wrapping, an exact logical capacity
   that may be smaller than the slot count, occupancy read as the
   difference of two monotonically increasing indices, and one flat
   two-word cell per slot, (tag, word).  A cell carries the whole
   message — the client number and one payload word, copied in by the
   producer and out by the consumer — so no payload lives anywhere
   else.  Callers with one value per message (the layer ladder, the
   ring tests) send it as the word with client 0.

   Cell format.  The tag holds the client in its high bits and the
   SEQ in its low 20: [tag = (client lsl 20) lor ((index + 1) mod 2^20)],
   so a client number is any int in [-2^42, 2^42) and comes back
   unchanged ([tag asr 20]).  Twenty bits tell a cell's lap from the
   one before it for a ring of at most 2^19 slots ([check_capacity]).

   Cell placement.  A ring's cells lie in a REGION of lines, each line
   two four-word LANES (words 0-3 and [second_lane], words 4-7).  Slots
   go in blocks of eight over four lines: slot [s] is in line [s mod 4]
   of its block, and slots [s] and [s + 4] share that line's lane, at
   its words 0 and 2:

     [cells + 4 * (s land -8) + 8 * (s land 3) + (s land 4) / 2]

   A ring carved alone takes a region of its own and its first lane;
   two rings can share one region, one on each lane, and then cell [i]
   of both sits in one line.  A session gives every client one region,
   its request lane on the first lane and its reply ring on the
   second: a synchronous call's request and its reply then travel in
   one line, and a burst of 8 calls still spans 4 lines each way.

   One-shared-line rule.  A cell is the only line both sides write, the
   consumer writes only its own index, and a producer reads the
   consumer's index only when its private snapshot of it says the ring
   is full.  On a client's region a call's request and reply share that
   one line: the client writes the request lane and the server the
   reply lane of it, so both sides write the line, in disjoint words —
   each lane keeps every rule below on its own, and a hop still moves
   only that line:

   - the producer stores the message word, then the tag, whose seq
     [index + 1] makes the cell ready, then, on the SPSC rings, its own
     [head];
   - the consumer polls the cell at its index for that seq, copies the
     client and the word out, and only then publishes its own index —
     it never writes the cell back;
   - a stale cell never reads as ready: a cell last used for index
     [i - ring] holds seq [i - ring + 1] (mod 2^20, not [i + 1] while
     [ring < 2^20]), and a fresh one holds 0, never a seq a first lap
     waits for.

   So a hop moves the one cell line from producer to consumer (on a
   client's region a synchronous call's two hops move the same line
   there and back, where dense rings move a request line and a reply
   line); the consumer's index line moves only when a producer's
   snapshot runs out of room (once per [cap] messages at a steady
   one-in-flight pace), and the SPSC [head] only for occupancy readers
   ([is_empty]/[length]).

   Memory-ordering argument (every ring header refers here).  A producer
   reuses a cell only after it has seen the consumer's index past it.
   The consumer loads the word before it stores its index (load ->
   store), and the producer stores the word before the tag (store ->
   store); the consumer's tag load precedes its word load (load ->
   load).  x86-TSO reorders none of these, so the reader of a ready tag
   sees that lap's client (in the tag itself) and word, and a reused
   cell's new word can never reach a consumer load of the old message:
   a message can neither arrive torn between two laps nor half-written.
   Readiness is the seq alone, so the word may hold any value.  The
   lanes of a client's region are disjoint words, so neither ring's
   stores or loads touch the other's, and the argument holds for each
   lane as it does for a ring alone.
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

(* The seq is [(index + 1) mod 2^20]: a ring of at most 2^19 slots
   never confuses a cell's lap with the one before it. *)
let max_capacity = 1 lsl 19

let check_capacity ~who capacity =
  if capacity <= 0 then invalid_arg (who ^ ": capacity must be positive");
  if capacity > max_capacity then
    invalid_arg
      (Printf.sprintf "%s: capacity must be at most %d" who max_capacity)

(* A span of [len] messages at [pos] in a flat array of (client, word)
   pairs — the batch layout of the in-process rings. *)
let check_span ~who span ~pos ~len =
  if pos < 0 || len < 0 || 2 * (pos + len) > Array.length span then
    invalid_arg (who ^ ": bad span")

let second_lane = 4

(* Cell placement and cell format (see the header), inlined into the
   rings' hot paths. *)
let[@inline] cell ~cells ~mask idx =
  let s = idx land mask in
  cells + ((s land -8) lsl 2) + ((s land 3) lsl 3) + ((s land 4) lsr 1)

let seq_mask = 0xFFFFF
let[@inline] stamp idx client = (client lsl 20) lor ((idx + 1) land seq_mask)
let[@inline] ready tag idx = (tag - idx - 1) land seq_mask = 0

(* A block of eight slots takes four lines; a smaller ring still puts
   each slot on a line of its own. *)
let region_words ~capacity =
  let ring = ceil_pow2 capacity in
  if ring >= 8 then 4 * ring else 8 * ring

(* Ring/mask/cap triple every ring constructor derives. *)
let geometry ~who ~capacity =
  check_capacity ~who capacity;
  let ring = ceil_pow2 capacity in
  (ring, ring - 1, capacity)
