(* Counting semaphore on arena words, with an atomic fast path (a
   "benaphore": the count holds the semaphore value when non-negative
   and minus the number of waiters when negative, so the uncontended V
   and P are one atomic read-modify-write each and never enter the
   kernel — the property the paper's argument needs, since every
   block/wake otherwise re-imports the kernel-crossing cost the
   user-level queues removed) and a futex-backed waiting array.

   Every word lives in a Word_arena, each on a cache line of its own:

     w + 0      the count word, 2*count + flag
     w + 8      p_ticket, the FIFO park-ticket dispenser
     w + 16     v_ticket, the FIFO grant-ticket dispenser
     w + 24     parked, the committed-waiter census
     w + 32 + 8j  slot j: grants (its futex word), parks, broadcasts

   The record holds the mapping, offsets into it and constants, never
   state, so one semaphore serves domains and fork'd processes alike: a
   fork'd peer's copy of the record addresses the same shared words.

   The count shares its word with one FLAG bit: [word = 2*count + flag].
   The flag is the awake flag of the channel consumer that Ps on this
   semaphore (neither substrate keeps a flag of its own), so the four
   locked read-modify-writes of a BSW hop — the producer's test-and-set
   and V, the consumer's P and flag set — land on one cache line, and
   each side pays one line transfer per hop instead of two.  A V adds 2,
   a P takes 2 away, and [asr 1] decodes the count (arithmetic shift, so
   a negative count decodes too); [value] never shows the flag.

   Every flag write — [flag_test_and_set], [flag_clear], [flag_set] —
   is a CAS that writes the word even when the bit already has the
   wanted value.  The locked instruction is a full barrier, and the
   protocol needs two: the producer's enqueue store (P.1) must be
   visible before its test-and-set reads the flag (P.2), and the
   consumer's clear (C.2) before its second dequeue reads the queue
   (C.3).  x86 lets a load pass an earlier store to another word, so a
   test-and-set that returned early on a plain load of an already-set
   bit — or a clear that was a plain store — would let one side read a
   stale word while its own store sat in its store buffer: the producer
   reads "awake" and skips its V, the consumer finds the queue empty
   and parks with no V on its way.  A flag write whose CAS loses to a
   concurrent V or P re-reads the word and retries; a P whose CAS loses
   to a flag write does the same.

   Slow path: a WAITING ARRAY (Dice & Kogan, "Semaphores Augmented with
   a Waiting Array") whose slots are futex words — a park is a sleep on
   an address, the shape of the sleep.c hash of sleepers in SNIPPETS.md.
   A P that drives the count negative claims a ticket from [p_ticket]
   (one fetch-and-add) and parks on the ticket's slot, [ticket mod
   slots].  A V that observes a negative count claims the matching grant
   ticket from [v_ticket], adds one to that slot's grant word and issues
   FUTEX_WAKE on it.  The waiter holding ticket [k] sleeps until the
   slot's grants reach [k/slots + 1] — one for every earlier generation
   that parked there, plus its own — in FUTEX_WAIT on the grant word
   with the value it last read, so a grant that lands between its read
   and its wait changes the word and the kernel returns at once.  The V
   path takes no lock and each wake is directed at one slot.  Ticket
   order makes the semaphore starvation-free: grant [g] can only
   release the waiter holding park ticket [g], the oldest committed
   waiter not yet served (the claim/release shape of Chalmers &
   Pedersen's fair protocol).  A grant wakes every sleeper on its slot:
   while the parked population fits the array that is one waiter, and
   beyond it generations share slots, the wrong ones re-check and sleep
   again, and the grant is counted as a shared-slot broadcast.

   Before parking, a P that finds no credit may spin for a TIME-BOUNDED
   grace, polling [try_p] through {!Grace.run}: 20 µs on a
   multiprocessor by default, cut short when the spinning thread is
   descheduled (see grace.ml).  The uncontended path is untouched: P
   tries the count first, and the clock is read only once that fails —
   a clock read ahead of the fast path would cost ~25 ns, about as much
   as the V+P pair itself.  The channel semaphores of both real backends do not spin
   here: the protocol core's consumer runs the same grace on its QUEUE,
   with its awake flag still set, before it ever clears the flag and
   reaches P (Substrate.S.await).  So the sessions carve them with
   [~spin:0]; the default grace serves the standalone semaphores (the
   layer ladder's handoff rungs).  The wake-latency sweep uses
   [~spin:0] too, to measure real parks.

   A TIMED P never takes a ticket: a waiter that took one and left on
   timeout would strand the grant meant for it, and the next waiter
   would sleep on a slot nobody grants again.  [p_timed] polls [try_p]
   through the {!Grace.backoff} ladder until its deadline instead, so a
   V is noticed up to one long park (50 µs) late; its one caller is the
   fork'd server's dead-peer guard. *)

type t = {
  arena : Word_arena.t;
  words : Word_arena.words; (* the arena's, for the inlined loads *)
  w : int; (* the count word; the other lines follow it *)
  grace : int; (* ns a P spins on the count before parking; 0 = never *)
  mask : int; (* slots - 1; the array length is a power of two *)
  shift : int; (* log2 slots: ticket -> generation *)
}

let line = Word_arena.cache_line_words
let default_slots = 8

(* One credit in the word's encoding; the flag is bit 0. *)
let credit = 2
let get t i = Bigarray.Array1.unsafe_get t.words i
let add t i d = Word_arena.fetch_add t.words i d
let p_ticket t = t.w + line
let v_ticket t = t.w + (2 * line)
let parked_w t = t.w + (3 * line)

(* The grant word of slot [j]; its parks and broadcasts follow it. *)
let slot_of t j = t.w + ((4 + j) * line)

let words_for ~slots = ((4 + Ring_layout.ceil_pow2 slots) * line) + line - 1
let arena_words () = words_for ~slots:default_slots

let check ~who ~spin count =
  if count < 0 then invalid_arg (who ^ ": negative initial count");
  if spin < 0 then invalid_arg (who ^ ": negative spin bound")

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n lsr 1)

let carve_checked ~spin ~slots a count =
  let n = Ring_layout.ceil_pow2 slots in
  let w = Word_arena.alloc_line a ~words:((4 + n) * line) in
  Word_arena.set a w (credit * count);
  {
    arena = a;
    words = Word_arena.words a;
    w;
    grace = spin;
    mask = n - 1;
    shift = log2 n;
  }

let carve ?(spin = Grace.default) a count =
  check ~who:"Rsem.carve" ~spin count;
  carve_checked ~spin ~slots:default_slots a count

let create ?(spin = Grace.default) ?(slots = default_slots) count =
  check ~who:"Rsem.create" ~spin count;
  if slots < 1 then invalid_arg "Rsem.create: slots must be positive";
  let a = Word_arena.create ~size_words:(words_for ~slots) () in
  carve_checked ~spin ~slots a count

(* Sleep on the slot's grant word until it reaches [need]. *)
let rec sleep t s need =
  let g = get t s in
  if g < need then begin
    ignore
      (Word_arena.futex_wait t.arena s ~expected:g ~timeout_ns:(-1)
        : Word_arena.wait_result);
    sleep t s need
  end

(* Park: claim the next ticket and wait for the matching grant.  The
   waiter is already accounted for in the negative count, so the V that
   will serve it is committed to granting this ticket's slot; the
   grant-word test makes both the V-overtakes-P race (grant already
   counted) and a wrong-generation wake-up harmless. *)
let park t =
  let k = add t (p_ticket t) 1 in
  let s = slot_of t (k land t.mask) in
  ignore (add t (parked_w t) 1 : int);
  ignore (add t (s + 1) 1 : int);
  sleep t s ((k lsr t.shift) + 1);
  ignore (add t (parked_w t) (-1) : int)

(* Deliver one credit into the slot of grant ticket [k]: count it, then
   wake the slot's sleepers.  No sleeper means the parking waiter is
   still on its way and will find the grant already counted. *)
let grant t k =
  let s = slot_of t (k land t.mask) in
  ignore (add t s 1 : int);
  if Word_arena.futex_wake t.arena s ~count:max_int > 1 then
    ignore (add t (s + 2) 1 : int)

(* CAS only on a positive count: never registers as a waiter, never
   blocks, and cannot disturb the waiter accounting.  Also the poll of
   the grace spin. *)
let rec try_p t =
  let w = get t t.w in
  if w asr 1 <= 0 then false
  else if Word_arena.cas t.words t.w w (w - credit) then true
  else try_p t

(* Commit to waiting.  A credit that appeared since the last read is
   consumed by the add itself (the old count was positive); otherwise
   the add registered this P as a waiter and it parks. *)
let commit t = if add t t.w (-credit) asr 1 <= 0 then park t

(* Fast path first: the clock is read only once the count has been
   found empty, so an uncontended P stays one load and one CAS, with no
   call out of [p] (the [try_p] loop inlined by hand).  [try_p] is a
   top-level function, so passing it to the grace allocates nothing. *)
let rec p t =
  let w = get t t.w in
  if w asr 1 > 0 then begin
    if not (Word_arena.cas t.words t.w w (w - credit)) then p t
  end
  else if not (Grace.run ~grace:t.grace try_p t ~miss:false) then commit t

(* The timed P's loop: [n] counts its failed polls (see the header for
   why it never commits). *)
let rec poll_until t ~deadline n =
  if try_p t then true
  else if Ulipc_observe.Clock.now_ns () >= deadline then false
  else begin
    ignore (Grace.backoff ~short:false n : bool);
    poll_until t ~deadline (n + 1)
  end

let p_timed t ~timeout_ns =
  poll_until t ~deadline:(Ulipc_observe.Clock.now_ns () + max 0 timeout_ns) 0

(* A V that finds a waiter claims the next grant ticket and delivers
   the credit into its slot.  Ticket arithmetic is the whole fairness
   argument — grant [g] can only release park ticket [g], the oldest
   committed waiter not yet served. *)
let v t = if add t t.w credit asr 1 < 0 then grant t (add t (v_ticket t) 1)

(* The flag writes: a CAS that always writes, even when the bit is
   unchanged, so each stays a full barrier (see the header).  Returns
   the previous flag.  Top-level recursion, so no closure per call. *)
let rec flag_write t bit =
  let w = get t t.w in
  if Word_arena.cas t.words t.w w ((w land lnot 1) lor bit) then w land 1 = 1
  else flag_write t bit

let flag_test_and_set t = flag_write t 1
let flag_set t = ignore (flag_write t 1 : bool)
let flag_clear t = ignore (flag_write t 0 : bool)
let flag_get t = get t t.w land 1 = 1
let value t = max 0 (get t t.w asr 1)
let parked t = get t (parked_w t)
let parks t = get t (p_ticket t)
let grants t = get t (v_ticket t)
let array_size t = t.mask + 1
let slot_waits t = Array.init (array_size t) (fun j -> get t (slot_of t j + 1))

let shared_slot_broadcasts t =
  let n = ref 0 in
  for j = 0 to t.mask do
    n := !n + get t (slot_of t j + 2)
  done;
  !n
