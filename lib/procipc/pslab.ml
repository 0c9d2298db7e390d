(* Shared payload slab: the cross-process sibling of the in-process
   Slab, restricted to what can actually cross an address space — per
   slot one CLIENT word and one DATA word (an immediate payload).  The
   in-process slab's [box] column (arbitrary OCaml values via Obj.repr)
   has no cross-process analogue: an OCaml pointer is meaningless in
   the peer, so the proc plane is int-payload only, like the paper's
   register-sized messages.

   Allocation is a Treiber free list threaded through per-slot NEXT
   words, with the head word packed as

     head = version * (nslots + 1) + (index + 1)      (0 = empty)

   so a CAS that pops the list also bumps a version and the classic
   lock-free-stack ABA (slot freed and re-pushed between a popper's
   head load and its CAS, leaving the popper to install a stale next)
   cannot produce a head that compares equal.  63-bit words give the
   version field > 2^40 laps even on large slabs — unreachable.

   try_alloc/release are the only cross-process-concurrent entry
   points; in_use and the high-water mark are maintained with
   fetch-add / CAS-max on their own shared words so the post-run report
   reflects all processes. *)

type t = {
  a : Parena.t;
  w : Parena.words;
  head_w : int; (* packed versioned free-list head *)
  in_use_w : int;
  hwm_w : int;
  next0 : int; (* per-slot free-list link (slot index or -1) *)
  client0 : int;
  data0 : int;
  nslots : int;
}

let nil = -1

let create a ~slots:nslots =
  if nslots <= 0 then invalid_arg "Pslab.create: slots must be positive";
  let head_w = Parena.alloc_line a ~words:Parena.cache_line_words in
  let in_use_w = Parena.alloc_line a ~words:Parena.cache_line_words in
  let hwm_w = Parena.alloc_line a ~words:Parena.cache_line_words in
  let next0 = Parena.alloc_line a ~words:nslots in
  let client0 = Parena.alloc_line a ~words:nslots in
  let data0 = Parena.alloc_line a ~words:nslots in
  (* Thread the free list 0 -> 1 -> ... -> nslots-1 -> nil and point
     the (version 0) head at slot 0. *)
  for i = 0 to nslots - 2 do
    Parena.set a (next0 + i) (i + 1)
  done;
  Parena.set a (next0 + nslots - 1) nil;
  Parena.set a head_w 1 (* version 0, index 0 *);
  { a; w = Parena.words a; head_w; in_use_w; hwm_w; next0; client0; data0;
    nslots }

let slots t = t.nslots

let rec bump_high_water t seen =
  let hwm = Parena.at_load t.a t.hwm_w in
  if seen > hwm
     && not (Parena.at_cas t.a t.hwm_w ~expected:hwm ~desired:seen)
  then bump_high_water t seen

let rec try_alloc t =
  let h = Parena.at_load t.a t.head_w in
  let m = t.nslots + 1 in
  let idx = (h mod m) - 1 in
  if idx < 0 then nil
  else begin
    let next = Parena.get t.a (t.next0 + idx) in
    let desired = (((h / m) + 1) * m) + next + 1 in
    if Parena.at_cas t.a t.head_w ~expected:h ~desired then begin
      let now = Parena.at_fetch_add t.a t.in_use_w 1 + 1 in
      bump_high_water t now;
      idx
    end
    else try_alloc t
  end

let rec push_free t i =
  let h = Parena.at_load t.a t.head_w in
  let m = t.nslots + 1 in
  Parena.set t.a (t.next0 + i) ((h mod m) - 1);
  let desired = (((h / m) + 1) * m) + i + 1 in
  if Parena.at_cas t.a t.head_w ~expected:h ~desired then
    ignore (Parena.at_fetch_add t.a t.in_use_w (-1) : int)
  else push_free t i

(* The bound check keeps a bad index from writing a free-list link into
   whatever arena word sits at [next0 + i] and from entering the list. *)
let release t i =
  if i < 0 || i >= t.nslots then invalid_arg "Pslab.release: index out of range";
  push_free t i

let in_use_count t = Parena.at_load t.a t.in_use_w
let high_water t = Parena.at_load t.a t.hwm_w

module A1 = Bigarray.Array1

(* Payload accessors: plain word traffic, published (like a ring slot)
   by the enqueue of the slot index that follows the fill. *)
let set_client t i c = A1.unsafe_set t.w (t.client0 + i) c
let get_client t i = A1.unsafe_get t.w (t.client0 + i)
let set_data t i v = A1.unsafe_set t.w (t.data0 + i) v
let get_data t i = A1.unsafe_get t.w (t.data0 + i)
