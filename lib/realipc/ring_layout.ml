(* Shared geometry for the flat bounded rings.

   Every ring in the message plane — the in-process Spsc_ring/Mpsc_ring
   over OCaml arrays and the cross-process Ulipc_procipc.Pring over
   mmap'd arena words — uses the same layout discipline: a power-of-two
   slot count masked into indices that grow without wrapping, an exact
   logical capacity that may be smaller than the slot count, and
   occupancy read as the difference of two monotonically increasing
   indices.  This module is that discipline's one home, so the two
   backends cannot drift.

   Snapshot ordering rule (restated from the ring implementations, which
   each apply it with their own reader role): occupancy [tail - head]
   read by a non-owner must load the index the PEER advances first —
   a stale own-index under-counts conservatively, never negatively.

   Memory-model rule: every ring publishes with plain stores, correct
   only under x86-TSO.  [require_tso] enforces it; the session
   constructors of both backends call it. *)

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
