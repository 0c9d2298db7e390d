(* The cross-process RPC layer: Protocol_core instantiated over
   {!Proc_substrate}, so BSS, BSW, BSWY, BSLS, HANDOFF and ADAPT run
   over the shared arena with their waiting-mode dispatch and their
   send/receive/reply sequences written exactly once — in the core —
   and fork'd processes as the peers.  Single server (the proc plane has
   no sharded fleet): every call is one core operation on the one
   request channel or a client's reply channel.

   Payloads are ints only ({!Pslab}): an OCaml pointer cannot cross an
   address space, so the typed codec seam of the in-process Rpc
   collapses to the [int_codec] case — which is also the paper's model
   (register-sized messages).

   The waiting type is the core's, re-exported by equation (as
   [Ulipc_real.Rpc.waiting] is), so drivers configure both backends
   with one value.  The single-core clamp (no spin budget can pay off
   when the peers outnumber the CPUs) applies with extra force here: the
   peer is a process, and nothing preempts a spinning process early. *)

module S = Proc_substrate
module P = Ulipc.Protocol_core.Make (Proc_substrate)

type waiting = Ulipc.Protocol_core.waiting =
  | Spin
  | Block
  | Block_yield
  | Limited_spin of int
  | Handoff
  | Adaptive of int

type t = {
  waiting : waiting;
  sub : S.t;
  adapt : int Atomic.t array;
      (* per-channel adaptive MAX_SPIN: slot 0 = request channel (the
         server's), slot [1 + i] = reply channel [i] (client [i]'s).  The
         array is copied at fork, so each process owns its copy and each
         slot is only ever touched by the process that owns its
         channel. *)
}

let create ?(capacity = 64) ?trace ?slots ~nclients waiting =
  let waiting = Ulipc.Protocol_core.validate ~who:"Proc_rpc.create" waiting in
  {
    waiting;
    sub = S.create ?trace ?slots ~capacity ~nclients ();
    adapt = Array.init (1 + nclients) (fun _ -> Atomic.make 0);
  }

let nclients t = S.nclients t.sub
let slab t = S.slab t.sub
let arena t = S.arena t.sub
let trace t = S.trace t.sub
let counters t = S.counters t.sub
let wake_residue t = S.wake_residue t.sub
let harvest_sem_counters t = S.harvest_sem_counters t.sub

(* Conservative occupancy of the one request ring (see Mpsc_ring.length
   for the snapshot invariant) — the parent's telemetry gauge, readable
   across the fork boundary because it is all arena words. *)
let request_depth t = S.queue_length t.sub (S.request t.sub)

let check_client t client =
  ignore (S.reply_channel t.sub client : S.channel)

let ctrs t = S.counters t.sub

let bump_receives t =
  let c = ctrs t in
  c.Ulipc.Counters.receives <- c.Ulipc.Counters.receives + 1

(* Slab exhaustion = flow control, bounded as in-process (an undersized
   explicit ~slots must error out, not hang every producer). *)
let alloc_retry_limit = 10_000

let rec alloc_slot_retry t retries =
  let slab = S.slab t.sub in
  let i = Pslab.try_alloc slab in
  if i >= 0 then i
  else if retries >= alloc_retry_limit then
    failwith
      (Printf.sprintf
         "Proc_rpc: payload slab exhausted (%d of %d slots in use): size \
          ~slots at least (nclients + 1) * (capacity + 1), or omit it for \
          that default"
         (Pslab.in_use_count slab) (Pslab.slots slab))
  else begin
    P.wait_for_room t.sub t.waiting retries;
    alloc_slot_retry t (retries + 1)
  end

let alloc_slot t = alloc_slot_retry t 0

(* Raw index plane: one core operation on the request channel or the
   client's reply channel. *)

let send_msg t ~client m =
  P.send t.sub t.waiting ~req:(S.request t.sub)
    ~reply:(S.reply_channel t.sub client)
    ~budget:t.adapt.(1 + client) m

let receive_msg t =
  P.receive t.sub t.waiting (S.request t.sub) ~budget:t.adapt.(0)

let reply_msg t ~client m =
  P.reply t.sub t.waiting (S.reply_channel t.sub client) m

(* Typed layer: alloc/fill before, read/release after. *)

let send t ~client req =
  check_client t client;
  let slab = S.slab t.sub in
  let i = alloc_slot t in
  Pslab.set_client slab i client;
  Pslab.set_data slab i req;
  let j = send_msg t ~client i in
  let rep = Pslab.get_data slab j in
  Pslab.release slab j;
  rep

let call = send

let receive t =
  let slab = S.slab t.sub in
  let i = receive_msg t in
  let client = Pslab.get_client slab i in
  let req = Pslab.get_data slab i in
  Pslab.release slab i;
  (client, req)

let reply t ~client rep =
  check_client t client;
  let slab = S.slab t.sub in
  let j = alloc_slot t in
  Pslab.set_data slab j rep;
  reply_msg t ~client j

(* In-place serve: the request slot becomes the reply slot (the server
   owns it between dequeue and reply enqueue), so a server turn touches
   no allocator state at all. *)
let serve t f =
  let slab = S.slab t.sub in
  let i = receive_msg t in
  let client = Pslab.get_client slab i in
  let rep = f ~client (Pslab.get_data slab i) in
  Pslab.set_data slab i rep;
  reply_msg t ~client i

(* Asynchronous halves, for the pipelined client: the core's producer
   half, and exactly the client consumer half of [send]. *)

let post t ~client req =
  check_client t client;
  let slab = S.slab t.sub in
  let i = alloc_slot t in
  Pslab.set_client slab i client;
  Pslab.set_data slab i req;
  ignore (P.produce t.sub t.waiting (S.request t.sub) ~target:Server i : bool)

let collect t ~client =
  check_client t client;
  let slab = S.slab t.sub in
  let j =
    P.consume t.sub t.waiting
      (S.reply_channel t.sub client)
      ~side:Client ~budget:t.adapt.(1 + client)
  in
  let rep = Pslab.get_data slab j in
  Pslab.release slab j;
  rep

(* Sliding-window pipelining: keep [depth] requests in flight, collect
   one before posting the next — the same window the in-process
   call_pipelined maintains, minus its span claims: each request is
   one post and each reply one collect. *)
let call_pipelined t ~client ~depth reqs =
  if depth <= 0 then invalid_arg "Proc_rpc.call_pipelined: depth must be > 0";
  let n = Array.length reqs in
  let out = Array.make n 0 in
  let posted = ref 0 and collected = ref 0 in
  while !collected < n do
    while !posted < n && !posted - !collected < depth do
      post t ~client reqs.(!posted);
      incr posted
    done;
    out.(!collected) <- collect t ~client;
    incr collected
  done;
  out

(* Timed server receive — the dead-peer detection path.  The blocking
   loop (Figure 4's C.1..C.5) with the kernel wait bounded: when the
   timed P expires we must decide whether the timeout LOST A RACE with
   a producer.  The producers' protocol makes that decidable: a
   producer that saw awake = false has either already issued its V or
   is about to, so one more test-and-set of the awake flag tells the
   two cases apart —

   - awake was still false: no producer signalled since we cleared it;
     the flag is now restored to true (the TAS set it), the queue was
     empty at C.3 and nothing arrived, so this is a clean timeout.
     Any LATER producer sees awake = true and skips its V: no credit
     leaks.

   - awake was already true: a producer raced the timeout, its message
     is (or is about to be) in the queue and its credit is (or is about
     to be) in the semaphore.  Drain that credit — it may lag the flag
     by an instant, hence the bounded wait — and go collect the
     message. *)
let receive_opt t ~timeout_ns =
  let sub = t.sub in
  let ch = S.request sub in
  let slab = S.slab t.sub in
  let deadline = Ulipc_observe.Clock.now_ns () + timeout_ns in
  let finish m =
    bump_receives t;
    let client = Pslab.get_client slab m in
    let req = Pslab.get_data slab m in
    Pslab.release slab m;
    Some (client, req)
  in
  let rec loop () =
    let m = S.dequeue sub ch in
    if m != S.no_msg then finish m
    else begin
      S.awake_clear sub ch;
      let m = S.dequeue sub ch in
      if m != S.no_msg then begin
        P.Prims.drain_raced_wakeup sub ch;
        finish m
      end
      else begin
        let remaining = deadline - Ulipc_observe.Clock.now_ns () in
        if remaining > 0 && S.sem_p_timed sub ch ~timeout_ns:remaining then begin
          S.awake_set sub ch;
          loop ()
        end
        else if S.awake_test_and_set sub ch then begin
          (* Producer raced the timeout: its credit is in flight. *)
          P.Prims.take_credit sub ch 0;
          loop ()
        end
        else None (* clean timeout; awake flag restored by the TAS *)
      end
    end
  in
  loop ()
