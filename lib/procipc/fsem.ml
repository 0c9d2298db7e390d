(* Futex-backed counting semaphore over two arena words — the paper's
   blocking primitive charged real FUTEX_WAIT/FUTEX_WAKE costs (the
   sleep-on-address / wakeup-by-address design: the kernel's wait queue
   is keyed by the value word's physical address, exactly the hash-table
   role toulouse's sleep.c plays in SNIPPETS.md).

   Layout (two cache lines so V and the waiter census never ping-pong):

     base + 0   value     the semaphore count, 64-bit atomics; also the
                          futex word (its low 32 bits — see shm_stubs.c)
     base + 8   nwaiters  how many processes are inside the kernel wait
                          (or committed to entering it)

   The uncontended paths are the two-atomic-op benaphore the in-process
   Rsem set as the bar:

     V: one fetch-add on value, one load of nwaiters (no syscall unless
        somebody is actually parked);
     P: one load of value, one CAS down (no syscall while credit is
        available).

   The contended P follows the classic futex discipline: advertise in
   nwaiters FIRST, re-check the count, then FUTEX_WAIT(value, 0).  A V
   that races any prefix of that sequence either (a) lands before the
   re-check — the waiter sees the credit and never sleeps; (b) lands
   between re-check and the kernel's own atomic compare — the futex
   word is no longer 0, the kernel returns EAGAIN; or (c) lands after
   the sleep — the V's nwaiters load (ordered after its fetch-add)
   observes the advertisement and issues the wake.  No interleaving
   loses a wake-up, which is invariant the trace analysis checks end to
   end.

   GRACE PERIOD: a park round trip costs about twice a yield hand-off
   on a uniprocessor (measured on this repo's 1-CPU reference box:
   ~2.2 µs of futex ping-pong per message vs ~1.5 µs for sched_yield —
   see EXPERIMENTS.md), and on a multiprocessor the common producer is
   only a few hundred nanoseconds from its V.  [p] therefore retries
   [try_p] a few times before the kernel wait — pause hints when the
   peer can run concurrently, [sched_yield]s when it cannot — the
   adaptive-semaphore discipline (glibc's spin-then-park mutexes), and
   the bottom two rungs of the Grace back-off ladder.
   The bound (a handful of attempts) keeps a truly idle consumer's path
   to the kernel short.  The long wait of a synchronous pair happens
   before this, above the semaphore: Proc_substrate.await polls the
   ring for up to 20 µs with the consumer's awake flag still set, so a
   consumer reaches P only once its peer has been quiet that long.

   [p_timed] is the dead-peer guard: the same loop with a deadline
   threaded through FUTEX_WAIT's timeout, returning [false] once the
   deadline passes without a credit.  Callers own the protocol-level
   cleanup (see Proc_rpc.receive_opt).  No grace there — its caller is
   already prepared to wait the full timeout.

   Statistics (parks/grants) are process-local OCaml counters — each
   process tallies its own side and the driver sums them post-run,
   mirroring how the Rsem counters are harvested. *)

type t = {
  a : Parena.t;
  value_w : int;
  waiters_w : int;
  mutable parks : int; (* this process's kernel waits *)
  mutable grants : int; (* processes this process's Vs woke *)
}

let create ?(initial = 0) a =
  if initial < 0 then invalid_arg "Fsem.create: negative initial value";
  let base =
    Parena.alloc a
      ~words:(2 * Parena.cache_line_words)
      ~align:Parena.cache_line_words
  in
  Parena.at_store a base initial;
  {
    a;
    value_w = base;
    waiters_w = base + Parena.cache_line_words;
    parks = 0;
    grants = 0;
  }

let value t = Parena.at_load t.a t.value_w

let v t =
  ignore (Parena.at_fetch_add t.a t.value_w 1 : int);
  (* The fetch-add above is a full RMW, so this load is ordered after
     it: a waiter that advertised before our add either sees the credit
     at its re-check or is observed here and woken. *)
  if Parena.at_load t.a t.waiters_w > 0 then
    t.grants <- t.grants + Parena.futex_wake t.a t.value_w ~count:1

let rec try_p t =
  let v = Parena.at_load t.a t.value_w in
  if v <= 0 then false
  else if Parena.at_cas t.a t.value_w ~expected:v ~desired:(v - 1) then true
  else try_p t

(* Grace attempts before a kernel park (see header).  On one CPU only a
   yield can make the expected V-issuer runnable, and two attempts
   cover the common hand-off; concurrent peers get a longer pause-hint
   budget since each attempt is only a few nanoseconds. *)
let unicore = not Ulipc_real.Grace.multicore
let grace_attempts = if unicore then 2 else 64

let rec p_grace t k =
  if try_p t then true
  else if k <= 0 then false
  else begin
    if unicore then Parena.sched_yield () else Domain.cpu_relax ();
    p_grace t (k - 1)
  end

let rec p t =
  if not (p_grace t grace_attempts) then begin
    ignore (Parena.at_fetch_add t.a t.waiters_w 1 : int);
    (* Re-check after advertising; the kernel re-checks once more under
       its own lock, so a V racing this window returns EAGAIN instead of
       sleeping through its own wake. *)
    if Parena.at_load t.a t.value_w = 0 then begin
      t.parks <- t.parks + 1;
      ignore
        (Parena.futex_wait t.a t.value_w ~expected:0 ~timeout_ns:(-1)
          : Parena.wait_result)
    end;
    ignore (Parena.at_fetch_add t.a t.waiters_w (-1) : int);
    p t
  end

(* The timed P of the dead-peer guard: deadline-based so retries around
   spurious wake-ups and raced credits never extend the total wait. *)
let p_timed t ~timeout_ns =
  let deadline = Ulipc_observe.Clock.now_ns () + max 0 timeout_ns in
  let rec go () =
    if try_p t then true
    else begin
      let remaining = deadline - Ulipc_observe.Clock.now_ns () in
      if remaining <= 0 then false
      else begin
        ignore (Parena.at_fetch_add t.a t.waiters_w 1 : int);
        if Parena.at_load t.a t.value_w = 0 then begin
          t.parks <- t.parks + 1;
          ignore
            (Parena.futex_wait t.a t.value_w ~expected:0
               ~timeout_ns:remaining
              : Parena.wait_result)
        end;
        ignore (Parena.at_fetch_add t.a t.waiters_w (-1) : int);
        go ()
      end
    end
  in
  go ()

let parks t = t.parks
let grants t = t.grants
