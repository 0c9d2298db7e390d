(* Counting semaphore with an atomic fast path (a "benaphore", the shape
   a futex-based semaphore takes without raw futex access): the count
   holds the semaphore value when non-negative and minus the number of
   waiters when negative, so the uncontended V and P are one atomic
   read-modify-write each and never touch a lock — the property the
   paper's argument needs, since every block/wake otherwise re-imports
   the kernel-crossing cost the user-level queues removed.

   The count shares its word with one FLAG bit: [word = 2*count + flag].
   The flag is the awake flag of the channel consumer that Ps on this
   semaphore (Real_substrate keeps no flag of its own), so the four
   locked read-modify-writes of a BSW hop — the producer's
   test-and-set and V, the consumer's P and flag set — land on one
   cache line, and each side pays one line transfer per hop instead of
   two.  A V adds 2, a P takes 2 away, and [asr 1] decodes the count
   (arithmetic shift, so a negative count decodes too); [value] never
   shows the flag.

   Every flag write — [flag_test_and_set], [flag_clear], [flag_set] —
   is a CAS that writes the word even when the bit already has the
   wanted value.  The locked instruction is a full barrier, and the
   protocol needs two: the producer's enqueue store (P.1) must be
   visible before its test-and-set reads the flag (P.2), and the
   consumer's clear (C.2) before its second dequeue reads the queue
   (C.3).  x86 lets a load pass an earlier store to another word, so a
   test-and-set that returned early on a plain load of an already-set
   bit would let the producer read "awake" while its message still sat
   in its store buffer; the consumer, clearing and finding the queue
   empty, would then park with no V on its way.  A flag write whose CAS
   loses to a concurrent V or P re-reads the word and retries; a P
   whose CAS loses to a flag write does the same.

   Slow path: a WAITING ARRAY (Dice & Kogan, "Semaphores Augmented with
   a Waiting Array").  A P that drives the count negative claims a ticket
   from [p_ticket] (one fetch-and-add) and parks on the ticket's slot —
   a cache-padded Mutex/Condition/counter triple at index
   [ticket mod slots].  A V that observes a negative count claims the
   matching grant ticket from [v_ticket] and delivers the credit
   straight into that slot: per-slot [granted] is the banked-credit
   counter, and the waiter holding ticket [k] sleeps until
   [granted >= k/slots + 1] — the slot has seen one credit for every
   earlier generation that parked there, plus its own.  Banking the
   credit in the slot (rather than signalling into the void) closes the
   race where the V fires between the waiter's fetch-and-add and its
   Condition.wait: the waiter re-checks [granted] under the slot mutex
   before sleeping and finds the credit already published.

   What the array buys over the previous single Mutex/Condition bank:

   - The V path takes no global lock.  Each credit touches exactly one
     slot's mutex, so concurrent V's aimed at different waiters do not
     serialise against each other — and never against the whole parked
     population.
   - Each wake is DIRECTED at one waiter.  A signal on a slot whose one
     sleeper holds the matching ticket moves exactly that waiter; no
     herd wakes to re-check a shared predicate.  Only when more waiters
     than slots park concurrently does a slot hold sleepers of several
     generations, and only then does the grant broadcast (a signal
     could wake the wrong generation, which would re-sleep while the
     right one slept on) — the counted, bounded degradation mode.
   - FIFO tickets make the semaphore starvation-free: grant [g] can
     only release the waiter holding park ticket [g], so waiters are
     served in the exact order they committed to park (the
     claim/release shape of Chalmers & Pedersen's fair protocol).

   Before parking, a P that finds no credit may spin for a TIME-BOUNDED
   grace, polling [try_p] through {!Grace.run}: 20 µs on a
   multiprocessor by default, cut short when the spinning domain is
   descheduled, with a sched_yield every 2 µs (see grace.ml).  The
   uncontended path is untouched: P tries the count first, and the
   clock is read only once that fails — a clock read ahead of the fast
   path costs ~25 ns on a ~10 ns V+P pair.

   The channel semaphores of both real backends do not spin here: the
   protocol core's consumer runs the same grace on its QUEUE, with its
   awake flag still set, before it ever clears the flag and reaches P
   (Substrate.S.await).  So Real_substrate creates them with
   [~spin:0], which parks at once; the default grace serves the
   semaphore's standalone users (the layer ladder's handoff rung).  The
   wake-latency sweep uses [~spin:0] too, to measure real parks. *)

type slot = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable granted : int; (* credits delivered to this slot, monotone *)
  mutable sleeping : int; (* waiters inside Condition.wait right now *)
  mutable waits : int; (* cumulative parks on this slot (observability) *)
  mutable broadcasts : int;
      (* grants that had to broadcast because sleepers of more than one
         generation shared the slot (population > array size) *)
}

type t = {
  word : int Atomic.t;
      (* 2*count + flag.  count >= 0: semaphore value; < 0: number of
         waiters parked or parking.  flag: the consumer's awake bit. *)
  grace : int; (* ns a P spins on the count before parking; 0 = never *)
  p_ticket : int Atomic.t; (* FIFO park-ticket dispenser *)
  v_ticket : int Atomic.t; (* FIFO grant-ticket dispenser *)
  parked : int Atomic.t;
      (* waiters currently committed to the array: incremented after the
         park ticket is claimed, decremented when the waiter leaves its
         slot.  An atomic, not a lock-guarded field, so tests and
         observers never act on a torn read. *)
  mask : int; (* slots - 1; the array length is a power of two *)
  shift : int; (* log2 slots: ticket -> generation *)
  slots : slot array;
}

let default_slots = 8

let make_slot () =
  Padding.copy_padded
    {
      mutex = Mutex.create ();
      cond = Condition.create ();
      granted = 0;
      sleeping = 0;
      waits = 0;
      broadcasts = 0;
    }

let create ?(spin = Grace.default) ?(slots = default_slots) count =
  if count < 0 then invalid_arg "Rsem.create: negative initial count";
  if spin < 0 then invalid_arg "Rsem.create: negative spin bound";
  if slots < 1 then invalid_arg "Rsem.create: slots must be positive";
  (* Round the waiter-population hint up to a power of two so the
     ticket->slot map is a mask and ticket->generation a shift. *)
  let size = ref 1 and shift = ref 0 in
  while !size < slots do
    size := !size * 2;
    incr shift
  done;
  {
    word = Padding.copy_padded (Atomic.make (2 * count));
    grace = spin;
    p_ticket = Padding.copy_padded (Atomic.make 0);
    v_ticket = Padding.copy_padded (Atomic.make 0);
    parked = Padding.copy_padded (Atomic.make 0);
    mask = !size - 1;
    shift = !shift;
    slots = Array.init !size (fun _ -> make_slot ());
  }

(* Park: claim the next ticket and wait for the matching grant.  The
   waiter is already accounted for in the negative [count], so the V
   that will serve it is committed to granting this ticket's slot; the
   while-loop guard makes both the V-overtakes-P race (credit already
   in [granted]) and a broadcast-woken wrong-generation sleeper
   harmless. *)
let park t =
  let k = Atomic.fetch_and_add t.p_ticket 1 in
  let s = t.slots.(k land t.mask) in
  let need = (k lsr t.shift) + 1 in
  Atomic.incr t.parked;
  Mutex.lock s.mutex;
  s.waits <- s.waits + 1;
  while s.granted < need do
    s.sleeping <- s.sleeping + 1;
    Condition.wait s.cond s.mutex;
    s.sleeping <- s.sleeping - 1
  done;
  Mutex.unlock s.mutex;
  Atomic.decr t.parked

(* Deliver one credit into the slot of grant ticket [k].  Touches only
   that slot's mutex — the V path never takes a semaphore-wide lock.
   One sleeper gets one directed signal; zero sleepers means the parking
   waiter is still on its way and will find [granted] already
   sufficient (no condvar call at all — the V-overtakes-P race); more
   than one sleeper means generations share the slot and only a
   broadcast is sound, since a signal could pick a later generation
   that would re-sleep while the granted one slept on. *)
let grant t k =
  let s = t.slots.(k land t.mask) in
  Mutex.lock s.mutex;
  s.granted <- s.granted + 1;
  if s.sleeping > 1 then begin
    s.broadcasts <- s.broadcasts + 1;
    Condition.broadcast s.cond
  end
  else if s.sleeping = 1 then Condition.signal s.cond;
  Mutex.unlock s.mutex

(* One credit in the word's encoding; the flag is bit 0. *)
let credit = 2

(* CAS only on a positive count: never registers as a waiter, never
   blocks, and cannot disturb the waiter accounting.  Also the poll of
   the grace spin. *)
let rec try_p t =
  let w = Atomic.get t.word in
  if w asr 1 <= 0 then false
  else if Atomic.compare_and_set t.word w (w - credit) then true
  else try_p t

(* Commit to waiting.  A credit that appeared since the last read is
   consumed by the add itself (the old count was positive); otherwise
   the add registered this P as a waiter and it parks. *)
let commit t =
  if Atomic.fetch_and_add t.word (-credit) asr 1 <= 0 then park t

(* Fast path first: the clock is read only once the count has been
   found empty, so an uncontended P stays one load and one CAS, with no
   call out of [p] (the [try_p] loop inlined by hand).  [try_p] is a
   top-level function, so passing it to the grace allocates nothing. *)
let rec p t =
  let w = Atomic.get t.word in
  if w asr 1 > 0 then begin
    if not (Atomic.compare_and_set t.word w (w - credit)) then p t
  end
  else if not (Grace.run ~grace:t.grace try_p t ~miss:false) then commit t

(* A V that finds a waiter claims the next grant ticket and delivers
   the credit into its slot.  Ticket arithmetic is the whole fairness
   argument — grant [g] can only release park ticket [g], the oldest
   committed waiter not yet served. *)
let v t =
  let old = Atomic.fetch_and_add t.word credit asr 1 in
  if old < 0 then grant t (Atomic.fetch_and_add t.v_ticket 1)

(* The flag writes: a CAS that always writes, even when the bit is
   unchanged, so each stays a full barrier (see the header).  Returns
   the previous flag.  Top-level recursion, so no closure per call. *)
let rec flag_write t bit =
  let w = Atomic.get t.word in
  if Atomic.compare_and_set t.word w ((w land lnot 1) lor bit) then w land 1 = 1
  else flag_write t bit

let flag_test_and_set t = flag_write t 1
let flag_set t = ignore (flag_write t 1 : bool)
let flag_clear t = ignore (flag_write t 0 : bool)
let flag_get t = Atomic.get t.word land 1 = 1
let value t = max 0 (Atomic.get t.word asr 1)
let parked t = Atomic.get t.parked
let parks t = Atomic.get t.p_ticket
let grants t = Atomic.get t.v_ticket
let array_size t = Array.length t.slots

let slot_waits t =
  Array.map
    (fun s ->
      Mutex.lock s.mutex;
      let w = s.waits in
      Mutex.unlock s.mutex;
      w)
    t.slots

let shared_slot_broadcasts t =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.mutex;
      let b = s.broadcasts in
      Mutex.unlock s.mutex;
      acc + b)
    0 t.slots
