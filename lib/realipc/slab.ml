(* The boxed side table of the message plane: the free-pool idea of
   §2.1 ("fixed sized messages to permit efficient free-pool
   management") built from one atomic word, usable from any number of
   domains or fork'd processes, allocation-free per operation.

   Messages themselves ride the ring cells as two immediate words (see
   Ring_layout); a slot here holds only what cannot be a word: one
   arbitrary boxed value ([box]), for sessions whose codec boxes their
   payloads.  The sender allocates a slot, stores the value and sends
   the slot index as the message word; the receiver reads the value
   back and releases the slot.

   Every word peers share — the free-list head, the [next] links, the
   in-use marks, the live count and the high-water mark — is a
   Word_arena word, reached through Word_arena's functions (on the hot
   path its [external]s over the raw words), so a slab carved before a
   fork is one free list in every process.  Only the
   [box] column is OCaml heap: a boxed value means nothing in another
   address space, so [get_box]/[set_box] refuse once the arena has
   outlived a fork.

   Free list.  A Treiber stack threaded through [next], with the head
   packed as (version, index) in one word: 24 low bits of index, the
   rest version.  Every successful CAS — alloc or release — bumps the
   version, so the classic Treiber ABA (read head (v,i) and next[i]=j;
   meanwhile i is popped, j recycled elsewhere, i pushed back; the
   stale CAS to j would corrupt the list) can never succeed: the head
   word never repeats a value.  39 version bits wrap after ~5.5e11
   operations; a wrap is harmful only if a peer stalls across
   *exactly* that many operations and then wins its CAS, which we
   accept the way every packed-version Treiber stack does.

   Ownership.  alloc transfers the slot to the caller; passing the
   index through a queue transfers it to the consumer; release returns
   it.  The in-use marks track the transfer endpoints so a double
   release (or a release of a never-allocated slot) is rejected — exact
   under the single-owner discipline, best-effort if two peers misuse
   one index concurrently.  Release also clears [box] so a retired
   payload is not kept alive by the slab. *)

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let enc_nil = idx_mask
let nil = -1
let line = Word_arena.cache_line_words

type t = {
  arena : Word_arena.t;
  w : Word_arena.words; (* the arena's, for the hot path's externals *)
  head : int; (* packed (version, index); the contended word *)
  live : int; (* slots currently allocated, exact *)
  hwm : int; (* high-water mark of [live], CAS-maxed *)
  next : int; (* free-list links, encoded like the head's index *)
  in_use : int; (* 1 while the slot is allocated *)
  box : Obj.t array; (* process-local *)
  n : int;
}

(* Three counter lines and two [slots]-word arrays, each allocation
   after the first skipping at most [line - 1] words of padding. *)
let arena_words ~slots = (3 * line) + (2 * slots) + (5 * (line - 1))

let check ~slots =
  if slots <= 0 then invalid_arg "Slab.create: slots must be positive";
  if slots >= idx_mask then
    invalid_arg "Slab.create: too many slots for the packed free-list head"

let carve a ~slots =
  check ~slots;
  let head = Word_arena.alloc_line a ~words:line in
  let live = Word_arena.alloc_line a ~words:line in
  let hwm = Word_arena.alloc_line a ~words:line in
  let next = Word_arena.alloc_line a ~words:slots in
  let in_use = Word_arena.alloc_line a ~words:slots in
  (* Thread the free list 0 -> 1 -> ... -> slots-1 -> nil; the head is
     version 0, index 0, and every mark starts clear. *)
  for i = 0 to slots - 1 do
    Word_arena.set a (next + i) (if i = slots - 1 then enc_nil else i + 1)
  done;
  {
    arena = a;
    w = Word_arena.words a;
    head;
    live;
    hwm;
    next;
    in_use;
    box = Array.make slots (Obj.repr 0);
    n = slots;
  }

let create ~slots () =
  check ~slots;
  carve (Word_arena.create ~size_words:(arena_words ~slots) ()) ~slots

let slots t = t.n

(* CAS-max, racing with concurrent allocs: losing a race only matters if
   the winner published a *larger* value, in which case ours is moot.
   The common steady-state case — [v <= hwm] — is one read, no CAS. *)
let rec note_hwm t v =
  let h = Word_arena.get_word t.w t.hwm in
  if v > h && not (Word_arena.cas t.w t.hwm h v) then note_hwm t v

let rec try_alloc t =
  let w = t.w in
  let h = Word_arena.get_word w t.head in
  let i = h land idx_mask in
  if i = enc_nil then nil
  else
    let nxt = Word_arena.get_word w (t.next + i) in
    (* [nxt] may be stale if another peer recycled slot [i] since the
       head read — the version bump below makes the CAS fail then. *)
    let h' = ((h lsr idx_bits) + 1) lsl idx_bits lor nxt in
    if Word_arena.cas w t.head h h' then begin
      Word_arena.set_word w (t.in_use + i) 1;
      note_hwm t (1 + Word_arena.fetch_add w t.live 1);
      i
    end
    else try_alloc t

let alloc t =
  let i = try_alloc t in
  if i = nil then None else Some i

(* Top-level recursion, not a local [let rec]: a local closure would
   capture [t] and [i] and be allocated on every release — this build
   has no flambda to lift it. *)
let rec push_free t i =
  let w = t.w in
  let h = Word_arena.get_word w t.head in
  Word_arena.set_word w (t.next + i) (h land idx_mask);
  let h' = ((h lsr idx_bits) + 1) lsl idx_bits lor i in
  if not (Word_arena.cas w t.head h h') then push_free t i

let release t i =
  if i < 0 || i >= t.n then invalid_arg "Slab.release: index out of range";
  let w = t.w in
  if Word_arena.get_word w (t.in_use + i) = 0 then
    invalid_arg "Slab.release: slot is not allocated";
  (* Clear ownership and the boxed payload BEFORE the push publishes the
     slot: once the CAS lands another peer may allocate [i]
     immediately, and a late store here would corrupt its slot. *)
  Word_arena.set_word w (t.in_use + i) 0;
  t.box.(i) <- Obj.repr 0;
  ignore (Word_arena.fetch_add w t.live (-1) : int);
  push_free t i

let in_use_count t = Word_arena.at_load t.arena t.live
let high_water t = Word_arena.at_load t.arena t.hwm

(* The payload: one bounds-checked array cell of this process's heap,
   which a fork'd peer's copy does not share. *)
let check_local t =
  if Word_arena.outlived_fork t.arena then
    invalid_arg
      "Slab: a boxed payload cannot cross fork (use Rpc.int_codec between \
       processes)"

let get_box t i =
  check_local t;
  t.box.(i)

let set_box t i (v : Obj.t) =
  check_local t;
  t.box.(i) <- v
