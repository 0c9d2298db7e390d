(* Send/Receive/Reply on real hardware, between OCaml 5 domains or
   between fork'd processes.

   This module contains NO protocol logic of its own: it instantiates the
   substrate-parametric core (Ulipc.Protocol_core.Make) over the
   real substrate and makes every call one core operation —
   send, receive, reply, produce, consume — on an explicit channel: the
   producer steps P.1–P.3, the consumer sequence C.1–C.5, the raced-
   wake-up drain, the poll loops and the ADAPT controller are the very
   same code the simulator runs.  The explicit channel is what lets the
   request plane be SHARDED without widening the Substrate.S seam: a
   client's send targets its home shard's channel, a server's receive
   drains its own shard's channel.

   The peers may be domains or processes: every word they share lives
   in the substrate's session arena, and the heap state below is either
   owned by one endpoint (each server's scratch spans and stash, each
   client's span, each channel's ADAPT budget) or per-process by
   design (the counters).  A session created before [fork] therefore
   serves fork'd peers unchanged, with int codecs: a boxed payload is
   a heap pointer, which the slab refuses to hand across fork.

   Cross-shard rebalancing is handoff-based stealing.  Mpsc_ring has
   exactly one legal consumer, so an idle server cannot dequeue from a
   sibling's ring; instead it posts a steal token (one CAS word per
   shard) on the deepest loaded sibling and goes through its normal
   blocking sequence.  The victim — checking its token once per receive
   — honours it by draining a span of its own backlog (dequeue_many, its
   right as the ring's consumer) and re-enqueueing the span on the
   thief's ring (enqueue_many; any domain may produce), then waking the
   thief like any other producer would.  A message is two words, so a
   steal copies word pairs between rings through the victim's private
   span buffers.  Whatever the thief's ring cannot accept stays in the
   victim's private stash, consumed before its own ring — a message
   leaves its home ring at most once and can never be lost or
   duplicated.

   What this module also owns is how a typed payload becomes a message.
   A message is two words in a ring cell, the client number and one
   payload word; a codec turns a payload into that word and back.  The
   synchronous paths go through the core with Real_substrate's
   registers: a client writes its own register and [send]s it, a
   server's receive lands in the server's register, and [serve]
   rewrites that register in place for the reply.  Every other producer
   — [post], [reply], the batch and steal paths — hands the substrate
   [(client, word)] pairs directly, because it is not necessarily the
   register's owner.  With the word codec a steady-state round-trip
   allocates nothing on the minor heap and makes no
   locked operation outside the ring ticket and the awake-flag CAS — no
   message records, no options, no closures, no queue nodes, no slab
   free list. *)

module P = Ulipc.Protocol_core.Make (Real_substrate)

type waiting = Ulipc.Protocol_core.waiting =
  | Spin
  | Block
  | Block_yield
  | Limited_spin of int
  | Handoff
  | Adaptive of int

(* A codec is how a payload becomes the message's word.  [Word] is the
   identity.  [Boxed] parks an arbitrary value in the session's slab,
   the boxed side table, and sends its slot index; decoding releases
   the slot.  The slab's box column is heap, so a boxed encode or
   decode in a process where the session has outlived a fork raises
   (Slab.set_box/get_box) instead of reading another address space's
   pointer.  The dynamic check Univ used to do per message is replaced
   by the session invariant that each channel direction only ever
   carries its own codec's encoding — enforced by the ('req, 'rep)
   phantom on [t], not at runtime. *)
type _ codec = Word : int codec | Boxed : 'a codec

let boxed_codec () = Boxed
let int_codec = Word

(* Per-server mutable state, owned exclusively by that server's domain
   (the scratch buffers and the stash are single-writer by the same
   convention that makes the Mpsc_ring consumer unique). *)
type server_state = {
  scratch : int array; (* (client, word) span buffer for batch drains *)
  steal_buf : int array; (* span buffer for honouring a steal token *)
  stash : int array;
      (* handoff leftovers the thief's ring could not accept, as a span:
         consumed before the own ring, so stealing can never lose a
         message *)
  mutable stash_pos : int;
  mutable stash_len : int;
  mutable posted_on : int;
      (* the victim shard this server currently has a steal token posted
         on, -1 if none — so a server never posts two claims at once and
         can retract after its own traffic resumes *)
}

type ('req, 'rep) t = {
  waiting : waiting;
  sub : Real_substrate.t;
  adapt : int Atomic.t array;
      (* per-channel adaptive MAX_SPIN: slot [k < nservers] is request
         shard [k] (read/written by its server only), slot
         [nservers + i] reply channel [i] (its owning client only) —
         Atomic for cross-domain publication, never contended. *)
  req_codec : 'req codec;
  rep_codec : 'rep codec;
  servers : server_state array;
  client_scratch : int array array;
      (* span buffer per client, for its bursts and batch collects;
         owned by the client domain of that number *)
}

let create ?(capacity = 64) ?trace ?slots ?req_codec ?rep_codec
    ?(nservers = 1) ?shard_assign ~nclients waiting =
  if nclients <= 0 then invalid_arg "Rpc.create: nclients must be positive";
  if capacity <= 0 then invalid_arg "Rpc.create: capacity must be positive";
  if nservers <= 0 then invalid_arg "Rpc.create: nservers must be positive";
  let waiting = Ulipc.Protocol_core.validate ~who:"Rpc.create" waiting in
  let req_codec =
    match req_codec with Some c -> c | None -> boxed_codec ()
  in
  let rep_codec =
    match rep_codec with Some c -> c | None -> boxed_codec ()
  in
  let span () = Array.make (2 * capacity) 0 in
  {
    waiting;
    sub =
      Real_substrate.create ?trace ~nservers ?shard_assign ?slots ~capacity
        ~nclients ();
    adapt = Array.init (nservers + nclients) (fun _ -> Atomic.make 0);
    req_codec;
    rep_codec;
    servers =
      Array.init nservers (fun _ ->
          {
            scratch = span ();
            steal_buf = span ();
            stash = span ();
            stash_pos = 0;
            stash_len = 0;
            posted_on = -1;
          });
    client_scratch = Array.init nclients (fun _ -> span ());
  }

let nclients t = Real_substrate.nclients t.sub
let nservers t = Real_substrate.nshards t.sub
let trace t = Real_substrate.trace t.sub
let slab t = Real_substrate.slab t.sub
let counters t = Real_substrate.counters t.sub
let request_depth t k = Real_substrate.request_depth t.sub k
let wake_residue t = Real_substrate.wake_residue t.sub
let harvest_sem_counters t = Real_substrate.harvest_sem_counters t.sub
let shard_of_client t client = Real_substrate.shard_of_client t.sub client

let check_client t client =
  ignore (Real_substrate.reply_channel t.sub client : Real_substrate.channel)

let check_server t server =
  ignore (Real_substrate.request_shard t.sub server : Real_substrate.channel)

let ctrs t = Real_substrate.counters t.sub

let bump_sends t k =
  let c = ctrs t in
  c.Ulipc.Counters.sends <- c.Ulipc.Counters.sends + k

let bump_receives t k =
  let c = ctrs t in
  c.Ulipc.Counters.receives <- c.Ulipc.Counters.receives + k

let bump_replies t k =
  let c = ctrs t in
  c.Ulipc.Counters.replies <- c.Ulipc.Counters.replies + k

(* Slab exhaustion is flow control, one layer under the full-queue case:
   every slot's payload is riding a queue or held by a busy peer, so the
   sender backs off exactly as it would for a full queue — but only for a
   bounded number of episodes.  Unreachable with the default slab sizing
   (every queue full plus one slot per endpoint fits); an undersized
   explicit [~slots] on a fleet-scale session would otherwise hang every
   producer forever, which is why the bound turns persistent exhaustion
   into a clear error instead. *)
let alloc_retry_limit = 10_000

let rec alloc_slot_retry t retries =
  let slab = slab t in
  let i = Slab.try_alloc slab in
  if i >= 0 then i
  else if retries >= alloc_retry_limit then
    failwith
      (Printf.sprintf
         "Rpc: payload slab exhausted (%d of %d slots in use after %d \
          back-offs): the session's ~slots is too small for this client \
          count and depth — size it at least (nclients + nservers) * \
          (capacity + 1), or omit ~slots for that default"
         (Slab.in_use_count slab) (Slab.slots slab) retries)
  else begin
    P.wait_for_room t.sub t.waiting retries;
    alloc_slot_retry t (retries + 1)
  end

let encode : type a req rep. (req, rep) t -> a codec -> a -> int =
 fun t codec v ->
  match codec with
  | Word -> v
  | Boxed ->
    let i = alloc_slot_retry t 0 in
    Slab.set_box (slab t) i (Obj.repr v);
    i

let decode : type a req rep. (req, rep) t -> a codec -> int -> a =
 fun t codec w ->
  match codec with
  | Word -> w
  | Boxed ->
    let s = slab t in
    let v = Obj.obj (Slab.get_box s w) in
    Slab.release s w;
    v

(* ------------------------------------------------------------------ *)
(* Steal orchestration.                                                *)
(* ------------------------------------------------------------------ *)

(* A shard is worth stealing from only if a span survives the handoff
   round-trip: below two messages the victim would hand over its entire
   backlog and the pair would just ping-pong single messages. *)
let steal_min = 2

(* Thief side: if my ring is empty, post a claim on the deepest loaded
   sibling and then block as usual — the handoff arrives on MY ring, so
   the normal producer wake-up protocol covers the delivery and there is
   no second wait primitive to get wrong.  At most one outstanding claim
   per server ([posted_on]); claims on an already-claimed victim simply
   fail (one thief per victim at a time). *)
let try_post_steal t ~server =
  let sub = t.sub in
  let n = Real_substrate.nshards sub in
  let st = t.servers.(server) in
  if
    n > 1 && st.posted_on < 0
    && Real_substrate.queue_is_empty sub
         (Real_substrate.request_shard sub server)
  then begin
    let best = ref (-1) and best_depth = ref (steal_min - 1) in
    for k = 0 to n - 1 do
      if k <> server then begin
        let d = Real_substrate.request_depth sub k in
        if d > !best_depth then begin
          best := k;
          best_depth := d
        end
      end
    done;
    if !best >= 0 && Real_substrate.steal_claim sub ~victim:!best ~thief:server
    then begin
      st.posted_on <- !best;
      let c = ctrs t in
      c.Ulipc.Counters.steal_posts <- c.Ulipc.Counters.steal_posts + 1
    end
  end

(* After a successful receive the thief no longer needs the claim.  The
   retract CAS may lose to the victim taking the token concurrently —
   then the span is already on its way and the thief's next receive
   consumes it like any other traffic. *)
let retract_steal t ~server =
  let st = t.servers.(server) in
  if st.posted_on >= 0 then begin
    Real_substrate.steal_retract t.sub ~victim:st.posted_on ~thief:server;
    st.posted_on <- -1
  end

(* Victim side: called once per receive, before draining the own ring.
   Honouring a token = drain half my backlog (span-claimed dequeue_many:
   I am this ring's only consumer) and re-enqueue it on the thief's ring
   (enqueue_many: anyone may produce), then wake the thief exactly as a
   client producer would.  Only runs when the stash is empty, so the
   leftover span always fits ([steal_buf] and [stash] share the ring
   capacity bound). *)
let service_steal t ~server =
  let sub = t.sub in
  if
    Real_substrate.nshards sub > 1
    && Real_substrate.steal_pending sub ~shard:server >= 0
    && Real_substrate.request_depth sub server >= steal_min
  then begin
    let thief = Real_substrate.steal_take sub ~shard:server in
    if thief >= 0 && thief <> server then begin
      let st = t.servers.(server) in
      let own = Real_substrate.request_shard sub server in
      let depth = Real_substrate.request_depth sub server in
      let want = min (Array.length st.steal_buf / 2) (max 1 (depth / 2)) in
      let k =
        Real_substrate.dequeue_many sub own ~buf:st.steal_buf ~pos:0 ~max:want
      in
      if k > 0 then begin
        let thief_ch = Real_substrate.request_shard sub thief in
        let a =
          Real_substrate.enqueue_many sub thief_ch st.steal_buf ~pos:0 ~len:k
        in
        if a > 0 then begin
          ignore
            (P.Prims.wake_consumer sub thief_ch ~target:Server : bool);
          let c = ctrs t in
          c.Ulipc.Counters.steal_handoffs <-
            c.Ulipc.Counters.steal_handoffs + 1;
          c.Ulipc.Counters.steal_msgs <- c.Ulipc.Counters.steal_msgs + a
        end;
        if a < k then begin
          (* The thief's ring filled mid-handoff (its own clients raced
             us): keep the tail ourselves.  Dequeued means owned — these
             must not be re-enqueued on our ring behind newer traffic,
             or per-shard FIFO would invert; the stash preserves their
             position at the head of our backlog. *)
          Array.blit st.steal_buf (2 * a) st.stash 0 (2 * (k - a));
          st.stash_pos <- 0;
          st.stash_len <- k - a
        end
      end
    end
  end

let drop_stashed st n =
  st.stash_pos <- st.stash_pos + n;
  if st.stash_pos = st.stash_len then begin
    st.stash_pos <- 0;
    st.stash_len <- 0
  end

(* Move up to [max] stashed messages into the span of [buf] at [pos];
   returns how many. *)
let take_stash st buf ~pos ~max =
  let n = min max (st.stash_len - st.stash_pos) in
  if n > 0 then begin
    Array.blit st.stash (2 * st.stash_pos) buf (2 * pos) (2 * n);
    drop_stashed st n
  end;
  n

(* The oldest stashed message, into the server's register, or [no_msg]. *)
let pop_stash t ~server =
  let st = t.servers.(server) in
  if st.stash_pos < st.stash_len then begin
    let p = 2 * st.stash_pos in
    let r = Real_substrate.server_register t.sub server in
    Real_substrate.set_register t.sub r ~client:st.stash.(p)
      ~word:st.stash.(p + 1);
    drop_stashed st 1;
    r
  end
  else Real_substrate.no_msg

(* ------------------------------------------------------------------ *)
(* The raw message planes: one core operation on the shard's or the   *)
(* client's channel, through the caller's own register — or, for a    *)
(* producer that owns none, through [produce_pair].                    *)
(* ------------------------------------------------------------------ *)

let client_budget t client = t.adapt.(nservers t + client)

let send_msg t ~client m =
  let sub = t.sub in
  P.send sub t.waiting
    ~req:(Real_substrate.request_shard sub (shard_of_client t client))
    ~reply:(Real_substrate.reply_channel sub client)
    ~budget:(client_budget t client) m

(* Server receive on its own shard: stash first (stolen-handoff
   leftovers are the oldest messages this server owns), then one
   token-service pass, then the waiting-mode consumer sequence on the
   own ring — in a pool, posting a steal claim on the deepest sibling
   first whenever the own ring is already empty (the claim costs one
   CAS and is retracted after the next successful receive).  A lone
   server skips the emptiness probe: its only use is the claim.  Either
   way the message lands in the server's register. *)
let receive_msg t ~server =
  let m = pop_stash t ~server in
  if m != Real_substrate.no_msg then begin
    bump_receives t 1;
    m
  end
  else begin
    service_steal t ~server;
    let sub = t.sub in
    try_post_steal t ~server;
    let ch = Real_substrate.request_shard sub server in
    let m = P.receive sub t.waiting ch ~budget:t.adapt.(server) in
    retract_steal t ~server;
    m
  end

(* Any server may reply to any client — after a steal the thief answers
   on a reply channel whose "home" server never saw the request, which
   is exactly why pooled ring sessions use MPSC reply rings. *)
let reply_msg t ~client m =
  P.reply t.sub t.waiting (Real_substrate.reply_channel t.sub client) m

(* The core's producer half (P.1–P.3) for a producer that owns no
   register: the message goes in by its words.  [post] may come from
   any domain (shutdown fan-out does), and [reply] from whichever
   server received the request — in a pool two servers can be replying
   to one client at once — so neither may borrow a register.  [n]
   counts the failed waits for room. *)
let rec produce_pair t ch ~target ~client ~word n =
  if Real_substrate.enqueue_pair t.sub ch ~client ~word then
    ignore
      (Ulipc.Protocol_core.blocks t.waiting
       && P.Prims.wake_consumer t.sub ch ~target
        : bool)
  else begin
    P.wait_for_room t.sub t.waiting n;
    produce_pair t ch ~target ~client ~word (n + 1)
  end

let send t ~client req =
  let sub = t.sub in
  let r = Real_substrate.client_register sub client in
  Real_substrate.set_register sub r ~client ~word:(encode t t.req_codec req);
  let j = send_msg t ~client r in
  decode t t.rep_codec (Real_substrate.register_word sub j)

let call = send

(* The [(client, payload)] of the request in register [i]. *)
let received t i =
  ( Real_substrate.register_client t.sub i,
    decode t t.req_codec (Real_substrate.register_word t.sub i) )

let receive ?(server = 0) t =
  check_server t server;
  received t (receive_msg t ~server)

let reply t ~client rep =
  check_client t client;
  produce_pair t
    (Real_substrate.reply_channel t.sub client)
    ~target:Client ~client ~word:(encode t t.rep_codec rep) 0;
  bump_replies t 1

let serve ?(server = 0) t f =
  check_server t server;
  let sub = t.sub in
  let i = receive_msg t ~server in
  let client = Real_substrate.register_client sub i in
  let rep =
    f ~client (decode t t.req_codec (Real_substrate.register_word sub i))
  in
  (* The request's register becomes the reply's: it is the server's
     own, and the reply enqueue copies it into the cell before the
     server's next receive can land in it. *)
  Real_substrate.set_register sub i ~client ~word:(encode t t.rep_codec rep);
  reply_msg t ~client i

(* Timed server receive — the dead-peer detection path: the blocking
   sequence (Figure 4's C.1..C.5) on the server's own shard with the
   kernel wait bounded.  When the timed P expires we must decide
   whether the timeout LOST A RACE with a producer.  The producers'
   protocol makes that decidable: a producer that saw awake = false has
   either already issued its V or is about to, so one more test-and-set
   of the awake flag tells the two cases apart —

   - awake was still false: no producer signalled since we cleared it;
     the flag is now restored to true (the TAS set it), the queue was
     empty at C.3 and nothing arrived, so this is a clean timeout.
     Any LATER producer sees awake = true and skips its V: no credit
     leaks.

   - awake was already true: a producer raced the timeout, its message
     is (or is about to be) in the queue and its credit is (or is about
     to be) in the semaphore.  Drain that credit — it may lag the flag
     by an instant, hence the bounded wait — and go collect the
     message.

   Returns the message's register, or [no_msg] on a clean timeout. *)
let rec receive_until t ch ~deadline =
  let sub = t.sub in
  let m = Real_substrate.dequeue sub ch in
  if m != Real_substrate.no_msg then m
  else begin
    Real_substrate.awake_clear sub ch;
    let m = Real_substrate.dequeue sub ch in
    if m != Real_substrate.no_msg then begin
      P.Prims.drain_raced_wakeup sub ch;
      m
    end
    else begin
      let remaining = deadline - Ulipc_observe.Clock.now_ns () in
      if
        remaining > 0
        && Real_substrate.sem_p_timed sub ch ~timeout_ns:remaining
      then begin
        Real_substrate.awake_set sub ch;
        receive_until t ch ~deadline
      end
      else if Real_substrate.awake_test_and_set sub ch then begin
        (* A producer raced the timeout: its credit is in flight. *)
        P.Prims.take_credit sub ch 0;
        receive_until t ch ~deadline
      end
      else Real_substrate.no_msg
    end
  end

(* Stash first, as in [receive_msg]: stolen-handoff leftovers are the
   oldest messages this server owns. *)
let receive_opt ?(server = 0) t ~timeout_ns =
  check_server t server;
  let m = pop_stash t ~server in
  let m =
    if m != Real_substrate.no_msg then m
    else
      receive_until t
        (Real_substrate.request_shard t.sub server)
        ~deadline:(Ulipc_observe.Clock.now_ns () + timeout_ns)
  in
  if m == Real_substrate.no_msg then None
  else begin
    bump_receives t 1;
    Some (received t m)
  end

(* The asynchronous halves: the core's producer half, and exactly the
   client consumer half of [send] (cf. Ulipc.Async on the simulator
   side). *)

let post ?shard t ~client req =
  check_client t client;
  let sh = match shard with Some s -> s | None -> shard_of_client t client in
  check_server t sh;
  produce_pair t
    (Real_substrate.request_shard t.sub sh)
    ~target:Server ~client ~word:(encode t t.req_codec req) 0

let collect_msg t ~client =
  P.consume t.sub t.waiting
    (Real_substrate.reply_channel t.sub client)
    ~side:Client ~budget:(client_budget t client)

let collect t ~client =
  let j = collect_msg t ~client in
  decode t t.rep_codec (Real_substrate.register_word t.sub j)

(* ------------------------------------------------------------------ *)
(* Batched & pipelined fast path.                                      *)
(* ------------------------------------------------------------------ *)

(* Each hop of a burst is one span claim and at most one wake-up: the
   producer encodes the burst into a span it owns and pushes it with
   [enqueue_many]; the consumer waits for the first message through the
   ordinary consumer sequence and sweeps the rest with one
   [dequeue_many].  Every loop below is top-level recursion: a local
   [let rec] would capture its environment in a closure allocated per
   call (no flambda), and the result lists are built front to back in
   destination-passing style ([@tail_mod_cons]), so the only words a
   batch call allocates are the list it returns. *)

(* Enqueue the whole span with span claims, waking the consumer after
   every non-empty claim (not only at the end: if the queue fills while
   the consumer sleeps, only a wake-up can make room — deferring the
   wake to the end of the batch would deadlock).  [n] counts the failed
   waits for room since the last claim that took something. *)
let rec push_batch t ch ~target buf ~pos ~len n =
  if len > 0 then begin
    let k = Real_substrate.enqueue_many t.sub ch buf ~pos ~len in
    if k > 0 then begin
      ignore
        (Ulipc.Protocol_core.blocks t.waiting
         && P.Prims.wake_consumer t.sub ch ~target
          : bool);
      push_batch t ch ~target buf ~pos:(pos + k) ~len:(len - k) 0
    end
    else begin
      P.wait_for_room t.sub t.waiting n;
      push_batch t ch ~target buf ~pos ~len (n + 1)
    end
  end

(* Encode the head of [reqs] into the span [buf] until it holds [k]
   messages; returns the rest of the list. *)
let rec fill_span t ~client buf n k reqs =
  match reqs with
  | r :: rest when n < k ->
    buf.(2 * n) <- client;
    buf.((2 * n) + 1) <- encode t t.req_codec r;
    fill_span t ~client buf (n + 1) k rest
  | rest -> rest

(* Post [left] requests from the head of [reqs] in span-sized chunks. *)
let rec post_chunks t ~client request buf left reqs =
  if left > 0 then begin
    let n = Int.min (Array.length buf / 2) left in
    let rest = fill_span t ~client buf 0 n reqs in
    push_batch t request ~target:Server buf ~pos:0 ~len:n 0;
    post_chunks t ~client request buf (left - n) rest
  end

let post_batch t ~client reqs =
  check_client t client;
  post_chunks t ~client
    (Real_substrate.request_shard t.sub (shard_of_client t client))
    t.client_scratch.(client) (List.length reqs) reqs

(* The [(client, payload)]s of messages [i .. k-1] of a request span. *)
let[@tail_mod_cons] rec take_requests t buf i k =
  if i >= k then []
  else
    let r = (buf.(2 * i), decode t t.req_codec buf.((2 * i) + 1)) in
    r :: take_requests t buf (i + 1) k

let receive_batch ?(server = 0) t ~max =
  if max <= 0 then invalid_arg "Rpc.receive_batch: max must be positive";
  check_server t server;
  let sub = t.sub in
  let first = received t (receive_msg t ~server) in
  if max = 1 then [ first ]
  else begin
    let st = t.servers.(server) in
    let buf = st.scratch in
    (* Drain the stash before the ring: stolen-handoff leftovers are the
       oldest messages this server owns. *)
    let want = Int.min (max - 1) (Array.length buf / 2) in
    let n_stash = take_stash st buf ~pos:0 ~max:want in
    let k =
      n_stash
      + Real_substrate.dequeue_many sub
          (Real_substrate.request_shard sub server)
          ~buf ~pos:n_stash ~max:(want - n_stash)
    in
    bump_receives t k;
    first :: take_requests t buf 0 k
  end

(* The reply span of the calling domain.  [reply_batch] may run on any
   domain — every server of a pool, or a caller with no server number
   at all — so the span cannot live in the session; one per domain
   costs one DLS lookup per call.  Runs longer than the span go out in
   span-sized chunks. *)
let reply_span_msgs = 64

let reply_span =
  Domain.DLS.new_key (fun () -> Array.make (2 * reply_span_msgs) 0)

(* [reply_runs] starts a run at the head of [reps]; [reply_run] encodes
   the run's replies to [client] into [span] (holding [n] so far) and,
   at the end of the run or of the span, pushes them with one span
   claim and one wake-up.  A run is never empty, so every push is. *)
let rec reply_runs t span = function
  | [] -> ()
  | (client, _) :: _ as reps ->
    reply_run t span (Real_substrate.reply_channel t.sub client) client 0 reps

and reply_run t span ch client n reps =
  match reps with
  | (c, rep) :: rest when c = client && n < reply_span_msgs ->
    span.(2 * n) <- client;
    span.((2 * n) + 1) <- encode t t.rep_codec rep;
    reply_run t span ch client (n + 1) rest
  | rest ->
    push_batch t ch ~target:Client span ~pos:0 ~len:n 0;
    bump_replies t n;
    reply_runs t span rest

let reply_batch t reps = reply_runs t (Domain.DLS.get reply_span) reps

(* The pipelined client loop over its reply channel [ch]: post from
   [pending] ([npending] left) in span-claimed bursts while fewer than
   [depth] requests are out, otherwise wait for the oldest reply through
   [collect] — its C.1 is the same dequeue a sweep would make — and
   sweep whatever else has landed with one [dequeue_many].  The client's
   scratch span serves both directions: a burst is pushed before the
   sweep that reuses it, and a sweep's replies are decoded before the
   next burst is encoded. *)
let[@tail_mod_cons] rec pipelined t ~client ~depth ch request buf pending
    npending out =
  if npending > 0 && out < depth then begin
    let k = Int.min (Int.min (depth - out) npending) (Array.length buf / 2) in
    let pending = fill_span t ~client buf 0 k pending in
    push_batch t request ~target:Server buf ~pos:0 ~len:k 0;
    pipelined t ~client ~depth ch request buf pending (npending - k) (out + k)
  end
  else if out = 0 then []
  else begin
    let first = collect t ~client in
    let k =
      if out = 1 then 0
      else
        Real_substrate.dequeue_many t.sub ch ~buf ~pos:0
          ~max:(Int.min (out - 1) (Array.length buf / 2))
    in
    first
    :: swept t ~client ~depth ch request buf pending npending (out - 1 - k) k 0
  end

(* The decoded replies of the sweep's [k] messages from [i], then the
   rest of the loop. *)
and[@tail_mod_cons] swept t ~client ~depth ch request buf pending npending
    out k i =
  if i >= k then pipelined t ~client ~depth ch request buf pending npending out
  else
    let r = decode t t.rep_codec buf.((2 * i) + 1) in
    r :: swept t ~client ~depth ch request buf pending npending out k (i + 1)

let collect_batch t ~client ~n =
  if n < 0 then invalid_arg "Rpc.collect_batch: negative n";
  let ch = Real_substrate.reply_channel t.sub client in
  (* [n] replies out, nothing left to post. *)
  pipelined t ~client ~depth:1 ch
    (Real_substrate.request_shard t.sub (shard_of_client t client))
    t.client_scratch.(client) [] 0 n

let call_pipelined t ~client ~depth reqs =
  if depth <= 0 then invalid_arg "Rpc.call_pipelined: depth must be positive";
  let ch = Real_substrate.reply_channel t.sub client in
  let n = List.length reqs in
  bump_sends t n;
  pipelined t ~client ~depth ch
    (Real_substrate.request_shard t.sub (shard_of_client t client))
    t.client_scratch.(client) reqs n 0
