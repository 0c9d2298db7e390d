(* The flat rings of the message plane, ported onto the shared arena:
   the same layouts as the in-process Spsc_ring (Lamport with cached
   peer snapshots) and Mpsc_ring (Vyukov bounded queue, single
   consumer), with every index and slot a word INSIDE the mmap'd
   region instead of an OCaml array cell.

   What changes when the array becomes MAP_SHARED words:

   - Indices are plain Bigarray loads/stores ([Array1.unsafe_get/set]
     over [Bigarray.int] compile to bare movs natively).  The TSO
     publication argument is identical to the in-process rings' Obj.magic
     fenceless stores: each index has a single writer, the slot store
     precedes the index publish (store-store), the slot load precedes
     the consume-side publish (load-store), and x86-TSO reorders
     neither.  That the peer is now another PROCESS is irrelevant —
     MAP_SHARED pages are the same physical cache lines in both address
     spaces, so the coherence argument carries over verbatim.  On a
     weakly-ordered target the index accesses would have to become
     [Parena.at_load]/[at_store] (the C stubs' acquire/release forms);
     [Parena.create] refuses to run on one instead
     ([Ring_layout.require_tso]).

   - The MPSC producers' ticket CAS goes through [Parena.at_cas] — that
     one is a real lock;cmpxchg, exactly as [Atomic.compare_and_set]
     was, and remains the only synchronising instruction on the path.

   - The SPSC per-side peer snapshots ([cached_head]/[cached_tail])
     stay ORDINARY OCAML MUTABLE FIELDS.  The record is copied
     copy-on-write at fork, so each process gets its own private
     snapshot — which is precisely what "producer-private"/
     "consumer-private" meant in-process.  They start at 0 (never ahead
     of any real index) and are refreshed from the shared word whenever
     they make the ring look full/empty, so a stale snapshot only costs
     a re-read, never correctness.

   - Geometry (power-of-two slot count, exact logical cap, unwrapped
     indices) comes from the same [Ring_layout] the in-process rings
     use, so the two backends cannot drift.

   Like the in-process rings, values are non-negative immediates (slab
   slot indices); [-1] is the empty sentinel. *)

module A1 = Bigarray.Array1

let nil = -1

(* Word offsets within a ring's arena span.  Index words get a cache
   line each (the whole point of splitting producer and consumer
   lines); slots start on their own line. *)
let idx0_off = 0
let idx1_off = Parena.cache_line_words
let slots_off = 2 * Parena.cache_line_words
let header_words = slots_off

module Spsc = struct
  type t = {
    w : Parena.words;
    head_w : int; (* next write index; written by the producer only *)
    tail_w : int; (* next read index; written by the consumer only *)
    slots : int; (* word offset of slot 0 *)
    mask : int;
    cap : int;
    mutable cached_tail : int; (* producer-PROCESS snapshot of [tail] *)
    mutable cached_head : int; (* consumer-PROCESS snapshot of [head] *)
  }

  let create a ~capacity =
    let ring, mask, cap =
      Ulipc_real.Ring_layout.geometry ~who:"Pring.Spsc.create" ~capacity
    in
    let base = Parena.alloc_line a ~words:(header_words + ring) in
    {
      w = Parena.words a;
      head_w = base + idx0_off;
      tail_w = base + idx1_off;
      slots = base + slots_off;
      mask;
      cap;
      cached_tail = 0;
      cached_head = 0;
    }

  let capacity q = q.cap

  (* Producer side: plain slot store published by the plain head store
     (TSO store-store; see header). *)
  let enqueue q v =
    if v < 0 then invalid_arg "Pring.Spsc.enqueue: negative value";
    let head = A1.unsafe_get q.w q.head_w in
    let free =
      head - q.cached_tail < q.cap
      ||
      (q.cached_tail <- A1.unsafe_get q.w q.tail_w;
       head - q.cached_tail < q.cap)
    in
    if free then begin
      A1.unsafe_set q.w (q.slots + (head land q.mask)) v;
      A1.unsafe_set q.w q.head_w (head + 1);
      true
    end
    else false

  (* Consumer side: slot load precedes the tail publish (load-store). *)
  let dequeue q =
    let tail = A1.unsafe_get q.w q.tail_w in
    let avail =
      q.cached_head - tail > 0
      ||
      (q.cached_head <- A1.unsafe_get q.w q.head_w;
       q.cached_head - tail > 0)
    in
    if avail then begin
      let v = A1.unsafe_get q.w (q.slots + (tail land q.mask)) in
      A1.unsafe_set q.w q.tail_w (tail + 1);
      v
    end
    else nil

  (* Snapshot ordering (Ring_layout rule): read the peer-advanced
     [tail] BEFORE own [head] so occupancy never goes negative. *)
  let is_empty q =
    let tail = A1.unsafe_get q.w q.tail_w in
    A1.unsafe_get q.w q.head_w - tail <= 0

  let length q =
    let tail = A1.unsafe_get q.w q.tail_w in
    A1.unsafe_get q.w q.head_w - tail
end

module Mpsc = struct
  type t = {
    a : Parena.t; (* kept for the ticket CAS *)
    w : Parena.words;
    tail_w : int; (* producers' ticket counter (CAS) *)
    head_w : int; (* next read index; written by the consumer only *)
    seqs : int; (* word offset of slot sequence 0 *)
    values : int; (* word offset of slot value 0 *)
    mask : int;
    ring : int;
    cap : int;
  }

  let create a ~capacity =
    let ring, mask, cap =
      Ulipc_real.Ring_layout.geometry ~who:"Pring.Mpsc.create" ~capacity
    in
    let base = Parena.alloc_line a ~words:(header_words + (2 * ring)) in
    let seqs = base + slots_off in
    (* Vyukov lap encoding: seq = i marks slot [i] free for ticket [i]
       (see mpsc_ring.ml for the full state table). *)
    for i = 0 to ring - 1 do
      Parena.set a (seqs + i) i
    done;
    {
      a;
      w = Parena.words a;
      tail_w = base + idx0_off;
      head_w = base + idx1_off;
      seqs;
      values = seqs + ring;
      mask;
      ring;
      cap;
    }

  let capacity q = q.cap

  (* Producers: exact capacity check, then the ticket CAS — the one
     real atomic on the path.  A won ticket owns its slot outright; the
     plain value store is published by the plain sequence bump (TSO). *)
  let rec raw_enqueue q v =
    let tail = Parena.at_load q.a q.tail_w in
    if tail - A1.unsafe_get q.w q.head_w >= q.cap then false
    else begin
      let i = tail land q.mask in
      let seq = A1.unsafe_get q.w (q.seqs + i) in
      if seq = tail then
        if Parena.at_cas q.a q.tail_w ~expected:tail ~desired:(tail + 1)
        then begin
          A1.unsafe_set q.w (q.values + i) v;
          A1.unsafe_set q.w (q.seqs + i) (tail + 1);
          true
        end
        else raw_enqueue q v (* lost the ticket race; retry *)
      else if seq - tail < 0 then
        false (* previous lap still occupied (Vyukov fallback) *)
      else raw_enqueue q v (* another producer advanced tail; reload *)
    end

  let enqueue q v =
    if v < 0 then invalid_arg "Pring.Mpsc.enqueue: negative value";
    raw_enqueue q v

  (* Single consumer: no CAS.  The sequence recycles a full lap BEFORE
     head advances, preserving the ordering the producers' capacity
     check relies on. *)
  let dequeue q =
    let head = A1.unsafe_get q.w q.head_w in
    let i = head land q.mask in
    if A1.unsafe_get q.w (q.seqs + i) = head + 1 then begin
      let v = A1.unsafe_get q.w (q.values + i) in
      A1.unsafe_set q.w (q.seqs + i) (head + q.ring);
      A1.unsafe_set q.w q.head_w (head + 1);
      v
    end
    else nil

  (* Snapshot rule with the roles swapped (consumer advances head):
     read [head] BEFORE [tail]. *)
  let is_empty q =
    let head = A1.unsafe_get q.w q.head_w in
    Parena.at_load q.a q.tail_w - head <= 0

  let length q =
    let head = A1.unsafe_get q.w q.head_w in
    Parena.at_load q.a q.tail_w - head
end
