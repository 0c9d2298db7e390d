(* The boxed side table of the in-process message plane: the free-pool
   idea of §2.1 ("fixed sized messages to permit efficient free-pool
   management") built from one atomic word, usable from any number of
   domains, allocation-free per operation.  Its cross-process port is
   Ulipc_procipc.Pslab, the same design over arena words.

   Messages themselves ride the ring cells as two immediate words (see
   Ring_layout); a slot here holds only what cannot be a word: one
   arbitrary boxed value ([box]), for sessions whose codec boxes their
   payloads.  The sender allocates a slot, stores the value and sends
   the slot index as the message word; the receiver reads the value
   back and releases the slot.

   Free list.  A Treiber stack threaded through [next], with the head
   packed as (version, index) in one int: 24 low bits of index, the
   rest version.  Every successful CAS — alloc or release — bumps the
   version, so the classic Treiber ABA (read head (v,i) and next[i]=j;
   meanwhile i is popped, j recycled elsewhere, i pushed back; the
   stale CAS to j would corrupt the list) can never succeed: the head
   word never repeats a value.  39 version bits wrap after ~5.5e11
   operations; a wrap is harmful only if a domain stalls across
   *exactly* that many operations and then wins its CAS, which we
   accept the way every packed-version Treiber stack does.

   Ownership.  alloc transfers the slot to the caller; passing the
   index through a queue transfers it to the consumer; release returns
   it.  [in_use] tracks the transfer endpoints so a double release (or
   a release of a never-allocated slot) is rejected — exact under the
   single-owner discipline, best-effort if two domains misuse one
   index concurrently.  Release also clears [box] so a retired payload
   is not kept alive by the slab. *)

let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let enc_nil = idx_mask
let nil = -1

type t = {
  head : int Atomic.t; (* packed (version, index); the only shared word *)
  live : int Atomic.t; (* slots currently allocated, exact *)
  hwm : int Atomic.t; (* high-water mark of [live], CAS-maxed *)
  next : int array; (* free-list links, encoded like the head's index *)
  in_use : bool array;
  box : Obj.t array;
  n : int;
}

let create ~slots () =
  if slots <= 0 then invalid_arg "Slab.create: slots must be positive";
  if slots >= idx_mask then
    invalid_arg "Slab.create: too many slots for the packed free-list head";
  {
    head = Padding.copy_padded (Atomic.make 0) (* version 0, index 0 *);
    live = Padding.copy_padded (Atomic.make 0);
    hwm = Padding.copy_padded (Atomic.make 0);
    next = Array.init slots (fun i -> if i = slots - 1 then enc_nil else i + 1);
    in_use = Array.make slots false;
    box = Array.make slots (Obj.repr 0);
    n = slots;
  }

let slots t = t.n

(* CAS-max, racing with concurrent allocs: losing a race only matters if
   the winner published a *larger* value, in which case ours is moot.
   The common steady-state case — [v <= hwm] — is one read, no CAS. *)
let rec note_hwm t v =
  let h = Atomic.get t.hwm in
  if v > h && not (Atomic.compare_and_set t.hwm h v) then note_hwm t v

let rec try_alloc t =
  let h = Atomic.get t.head in
  let i = h land idx_mask in
  if i = enc_nil then nil
  else
    let nxt = Array.unsafe_get t.next i in
    (* [nxt] may be stale if another domain recycled slot [i] since the
       head read — the version bump below makes the CAS fail then. *)
    let h' = ((h lsr idx_bits) + 1) lsl idx_bits lor nxt in
    if Atomic.compare_and_set t.head h h' then begin
      t.in_use.(i) <- true;
      note_hwm t (1 + Atomic.fetch_and_add t.live 1);
      i
    end
    else try_alloc t

let alloc t =
  let i = try_alloc t in
  if i = nil then None else Some i

(* Top-level recursion, not a local [let rec]: a local closure would
   capture [t] and [i] and be allocated on every release — this build
   has no flambda to lift it, and release is on the zero-allocation
   round-trip path. *)
let rec push_free t i =
  let h = Atomic.get t.head in
  t.next.(i) <- h land idx_mask;
  let h' = ((h lsr idx_bits) + 1) lsl idx_bits lor i in
  if not (Atomic.compare_and_set t.head h h') then push_free t i

let release t i =
  if i < 0 || i >= t.n then invalid_arg "Slab.release: index out of range";
  if not t.in_use.(i) then invalid_arg "Slab.release: slot is not allocated";
  (* Clear ownership and the boxed payload BEFORE the push publishes the
     slot: once the CAS lands another domain may allocate [i]
     immediately, and a late store here would corrupt its slot. *)
  t.in_use.(i) <- false;
  t.box.(i) <- Obj.repr 0;
  ignore (Atomic.fetch_and_add t.live (-1) : int);
  push_free t i

let in_use_count t = Atomic.get t.live
let high_water t = Atomic.get t.hwm

(* The payload: one bounds-checked array cell.  The store pays a write
   barrier — the one thing a cross-process substrate could not offer. *)
let get_box t i = t.box.(i)
let set_box t i (v : Obj.t) = t.box.(i) <- v
