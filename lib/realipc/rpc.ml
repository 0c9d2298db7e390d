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
   owned by one endpoint (each server's scratch span, each client's
   span, each channel's ADAPT budget) or per-process by design (the
   counters).  A session created before [fork] therefore serves fork'd
   peers unchanged, with int codecs: a boxed payload is a heap pointer,
   which the slab refuses to hand across fork.

   A pool is [nservers] static shards with one consumer each: a
   client's requests all enter its own lane of its home shard, that
   shard's server answers every one of them, and so each reply ring has
   one producer as well as one consumer.  Per-client FIFO therefore
   holds end to end, on a pool as on a single server, and a receive has
   one path whatever the shard count; across a shard's clients the
   server takes their lanes round robin.

   What this module also owns is how a typed payload becomes a message.
   A message is two words in a ring cell, the client number and one
   payload word; a codec turns a payload into that word and back.  The
   synchronous paths go through the core with Real_substrate's
   registers: a client writes its own register and [send]s it, a
   server's receive lands in the server's register, and [serve]
   rewrites that register in place for the reply.  Every other producer
   — [post], [reply], the batch paths — hands the substrate
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
  server_scratch : int array array;
      (* (client, word) span buffer per server, for its batch drains:
         the first message and up to a ring's worth behind it; owned by
         the server domain of that number *)
  client_scratch : int array array;
      (* span buffer per client, for its bursts and batch collects;
         owned by the client domain of that number *)
  requests : Real_substrate.channel array; (* shard [k]'s channel *)
  homes : Real_substrate.channel array; (* client [i]'s lane of its shard *)
  replies : Real_substrate.channel array; (* client [i]'s reply channel *)
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
  let sub =
    Real_substrate.create ?trace ~nservers ?shard_assign ?slots ~capacity
      ~nclients ()
  in
  let requests = Array.init nservers (Real_substrate.request_shard sub) in
  {
    waiting;
    sub;
    adapt = Array.init (nservers + nclients) (fun _ -> Atomic.make 0);
    req_codec;
    rep_codec;
    server_scratch =
      Array.init nservers (fun _ -> Array.make (2 * (capacity + 1)) 0);
    client_scratch =
      Array.init nclients (fun _ -> Array.make (2 * capacity) 0);
    requests;
    homes = Array.init nclients (Real_substrate.request_lane sub);
    replies = Array.init nclients (Real_substrate.reply_channel sub);
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
(* The raw message planes: one core operation on the shard's or the   *)
(* client's channel, through the caller's own register — or, for a    *)
(* producer that owns none, through [produce_pair].                    *)
(* ------------------------------------------------------------------ *)

let client_budget t client = t.adapt.(Array.length t.server_scratch + client)

(* The synchronous paths index the session's channel arrays, as the
   batch calls do, behind one range test of the client word; a bad one
   raises Real_substrate.reply_channel's error, as a lookup through it
   would. *)
let check_client_word t client =
  if client < 0 || client >= Array.length t.replies then check_client t client

let send_msg t ~client m =
  check_client_word t client;
  P.send t.sub t.waiting
    ~req:(Array.unsafe_get t.homes client)
    ~reply:(Array.unsafe_get t.replies client)
    ~budget:(client_budget t client) m

(* Server receive on its own shard: the waiting-mode consumer sequence
   over the shard's lanes, and the message lands in the server's
   register. *)
let receive_msg t ~server =
  P.receive t.sub t.waiting t.requests.(server) ~budget:t.adapt.(server)

(* Only the client's home server replies to it, so the reply ring has
   one producer. *)
let reply_msg t ~client m =
  check_client_word t client;
  P.reply t.sub t.waiting (Array.unsafe_get t.replies client) m

(* The core's producer half (P.1–P.3) for a producer that owns no
   register: the message goes in by its words.  [post] may come from
   any domain (shutdown fan-out does), and [reply] takes no server
   number, so neither can name a register of the caller's.  [n] counts
   the failed waits for room. *)
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

let receive_opt ?(server = 0) t ~timeout_ns =
  check_server t server;
  let m =
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

(* A post to the client's home shard rides the client's lane, behind
   its calls; one to another shard goes to that shard's first lane and
   takes a cell of its first home client's capacity. *)
let post ?shard t ~client req =
  check_client t client;
  let ch =
    match shard with
    | Some s when s <> shard_of_client t client ->
      Real_substrate.request_shard t.sub s
    | Some _ | None -> t.homes.(client)
  in
  produce_pair t ch ~target:Server ~client ~word:(encode t t.req_codec req) 0

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
   [dequeue_many].  Per message, the rest is a word copy and a cons:
   spans are filled and lists built by loops picked with one codec
   match per span ([Word] copies the words, [Boxed] goes through
   [encode]/[decode] and the slab), and a list that ends the call is
   consed back to front from the span, about half the cost of building
   it front to back.  The message a consumer waited for lands in the
   span beside the ones swept behind it, so a batch receive, and a
   pipelined call or batch collect whose replies fit the span, build
   their whole list in that one pass.  Only a longer call's sweep that
   leaves replies outstanding is still built front to back in
   destination-passing style ([@tail_mod_cons]), with a [decode] per
   message, because the rest of the loop follows it.  The word loops'
   spans are annotated [int array]: left polymorphic, a copy loop
   stores through [caml_modify] and reads through the float-array
   check.  Every loop is top-level recursion: a local [let rec] would
   capture its environment in a closure allocated per call (no
   flambda), so the only words a batch call allocates are the list it
   returns. *)

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

(* Copy or encode the head of [reqs] into the span [buf] until it holds
   [k] messages; return the rest of the list. *)
let rec fill_words ~client (buf : int array) n k reqs =
  match reqs with
  | r :: rest when n < k ->
    buf.(2 * n) <- client;
    buf.((2 * n) + 1) <- r;
    fill_words ~client buf (n + 1) k rest
  | rest -> rest

let rec fill_boxed t ~client (buf : int array) n k reqs =
  match reqs with
  | r :: rest when n < k ->
    buf.(2 * n) <- client;
    buf.((2 * n) + 1) <- encode t Boxed r;
    fill_boxed t ~client buf (n + 1) k rest
  | rest -> rest

let fill_span : type req rep.
    (req, rep) t -> client:int -> int array -> int -> req list -> req list =
 fun t ~client buf k reqs ->
  match t.req_codec with
  | Word -> fill_words ~client buf 0 k reqs
  | Boxed -> fill_boxed t ~client buf 0 k reqs

(* Post [left] requests from the head of [reqs] in span-sized chunks. *)
let rec post_chunks t ~client request buf left reqs =
  if left > 0 then begin
    let n = Int.min (Array.length buf / 2) left in
    let rest = fill_span t ~client buf n reqs in
    push_batch t request ~target:Server buf ~pos:0 ~len:n 0;
    post_chunks t ~client request buf (left - n) rest
  end

let post_batch t ~client reqs =
  post_chunks t ~client t.homes.(client) t.client_scratch.(client)
    (List.length reqs) reqs

(* Messages [0 .. i] of a span, consed onto [acc] from message [i]
   down: as [(client, payload)] requests, or as bare reply payloads. *)
let rec word_requests (buf : int array) i acc =
  if i < 0 then acc
  else word_requests buf (i - 1) ((buf.(2 * i), buf.((2 * i) + 1)) :: acc)

let rec boxed_requests t (buf : int array) i acc =
  if i < 0 then acc
  else
    boxed_requests t buf (i - 1)
      ((buf.(2 * i), decode t Boxed buf.((2 * i) + 1)) :: acc)

let rec word_replies (buf : int array) i acc =
  if i < 0 then acc else word_replies buf (i - 1) (buf.((2 * i) + 1) :: acc)

let rec boxed_replies t (buf : int array) i acc =
  if i < 0 then acc
  else boxed_replies t buf (i - 1) (decode t Boxed buf.((2 * i) + 1) :: acc)

(* Span messages [0 .. k-1] as a list consed back to front, by the
   loop for the direction's codec. *)
let requests : type req rep.
    (req, rep) t -> int array -> int -> (int * req) list =
 fun t buf k ->
  match t.req_codec with
  | Word -> word_requests buf (k - 1) []
  | Boxed -> boxed_requests t buf (k - 1) []

let replies : type req rep. (req, rep) t -> int array -> int -> rep list =
 fun t buf k ->
  match t.rep_codec with
  | Word -> word_replies buf (k - 1) []
  | Boxed -> boxed_replies t buf (k - 1) []

let receive_batch ?(server = 0) t ~max =
  if max <= 0 then invalid_arg "Rpc.receive_batch: max must be positive";
  check_server t server;
  let sub = t.sub in
  let i = receive_msg t ~server in
  (* The first message goes into the span ahead of the rest, so the
     list is built in one pass. *)
  let buf = t.server_scratch.(server) in
  buf.(0) <- Real_substrate.register_client sub i;
  buf.(1) <- Real_substrate.register_word sub i;
  let want = Int.min (max - 1) ((Array.length buf / 2) - 1) in
  let k =
    Real_substrate.dequeue_many sub t.requests.(server) ~buf ~pos:1 ~max:want
  in
  bump_receives t k;
  requests t buf (k + 1)

(* The reply span of the calling domain.  [reply_batch] may run on any
   domain — every server of a pool, or a caller with no server number
   at all — so the span cannot live in the session; one per domain
   costs one DLS lookup per call.  Runs longer than the span go out in
   span-sized chunks. *)
let reply_span_msgs = 64

let reply_span =
  Domain.DLS.new_key (fun () -> Array.make (2 * reply_span_msgs) 0)

(* Copy or encode a run of [reps] into [span]: the run holds [n]
   replies to [client] so far, and ends at the first reply to another
   client or when the span is full.  It then goes out on [ch] with one
   span claim and one wake-up, and the rest of [reps] comes back.  A
   run is never empty, so every push is. *)
let push_run t span ch n =
  push_batch t ch ~target:Client span ~pos:0 ~len:n 0;
  bump_replies t n

let rec word_run t (span : int array) ch client n reps =
  match reps with
  | (c, rep) :: rest when c = client && n < reply_span_msgs ->
    span.(2 * n) <- client;
    span.((2 * n) + 1) <- rep;
    word_run t span ch client (n + 1) rest
  | rest ->
    push_run t span ch n;
    rest

let rec boxed_run t (span : int array) ch client n reps =
  match reps with
  | (c, rep) :: rest when c = client && n < reply_span_msgs ->
    span.(2 * n) <- client;
    span.((2 * n) + 1) <- encode t Boxed rep;
    boxed_run t span ch client (n + 1) rest
  | rest ->
    push_run t span ch n;
    rest

let rec reply_runs : type req rep.
    (req, rep) t -> int array -> (int * rep) list -> unit =
 fun t span reps ->
  match reps with
  | [] -> ()
  | (client, _) :: _ ->
    let ch = t.replies.(client) in
    reply_runs t span
      (match t.rep_codec with
      | Word -> word_run t span ch client 0 reps
      | Boxed -> boxed_run t span ch client 0 reps)

let reply_batch t reps = reply_runs t (Domain.DLS.get reply_span) reps

(* The pipelined client loop over its reply channel [ch]: post from
   [pending] ([npending] left) in span-claimed bursts while fewer than
   [depth] requests are out, otherwise wait for the oldest reply through
   [collect] — its C.1 is the same dequeue a sweep would make — and
   sweep whatever else has landed with one [dequeue_many].  The sweep
   that completes the call is consed back to front.  One that leaves
   replies out is built front to back by [swept], and the rest of the
   loop after it.  Calls that fit one span take [land_replies]
   instead (below).  The
   client's scratch span serves both directions: a burst is pushed
   before the sweep that reuses it, and a sweep's replies are decoded
   before the next burst is encoded. *)
let[@tail_mod_cons] rec pipelined t ~client ~depth ch request buf pending
    npending out =
  if npending > 0 && out < depth then begin
    let k = Int.min (Int.min (depth - out) npending) (Array.length buf / 2) in
    let pending = fill_span t ~client buf k pending in
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
    let out = out - 1 - k in
    if npending = 0 && out = 0 then first :: replies t buf k
    else first :: swept t ~client ~depth ch request buf pending npending out k 0
  end

(* The decoded replies of the sweep's [k] messages from [i], then the
   rest of the loop. *)
and[@tail_mod_cons] swept t ~client ~depth ch request buf pending npending
    out k i =
  if i >= k then pipelined t ~client ~depth ch request buf pending npending out
  else
    let r = decode t t.rep_codec buf.((2 * i) + 1) in
    r :: swept t ~client ~depth ch request buf pending npending out k (i + 1)

(* A call whose replies all fit the client's span lands them there and
   builds its list once, back to front: wait for the next reply through
   the consumer sequence, as [collect] does, copy its word into the
   span, and sweep whatever is queued behind it, until [n] are in. *)
let rec land_replies t ~client ch (buf : int array) got n =
  if got < n then begin
    let sub = t.sub in
    let j =
      P.consume sub t.waiting ch ~side:Client
        ~budget:t.adapt.(Array.length t.server_scratch + client)
    in
    buf.((2 * got) + 1) <- Real_substrate.register_word sub j;
    let k =
      if got + 1 = n then 0
      else
        Real_substrate.dequeue_many sub ch ~buf ~pos:(got + 1)
          ~max:(n - got - 1)
    in
    land_replies t ~client ch buf (got + 1 + k) n
  end

let collect_batch t ~client ~n =
  if n < 0 then invalid_arg "Rpc.collect_batch: negative n";
  let ch = t.replies.(client) and buf = t.client_scratch.(client) in
  if n <= Array.length buf / 2 then begin
    land_replies t ~client ch buf 0 n;
    replies t buf n
  end
  else
    (* [n] replies out, nothing left to post. *)
    pipelined t ~client ~depth:1 ch t.homes.(client) buf [] 0 n

(* Copy [reqs] into the span while it has room for [k]: how many, or
   -1 if the list is longer. *)
let rec fill_burst ~client (buf : int array) n k reqs =
  match reqs with
  | [] -> n
  | r :: rest ->
    if n = k then -1
    else begin
      buf.(2 * n) <- client;
      buf.((2 * n) + 1) <- r;
      fill_burst ~client buf (n + 1) k rest
    end

(* A word-codec list that fits one burst is posted with one span claim
   and collected by [land_replies]; anything else goes through
   [pipelined].  Filling the span is how the list is measured, and a
   boxed payload is never encoded before it is known to fit. *)
let call_pipelined : type req rep.
    (req, rep) t -> client:int -> depth:int -> req list -> rep list =
 fun t ~client ~depth reqs ->
  if depth <= 0 then invalid_arg "Rpc.call_pipelined: depth must be positive";
  let ch = t.replies.(client) and buf = t.client_scratch.(client) in
  let n =
    match t.req_codec with
    | Word ->
      fill_burst ~client buf 0 (Int.min depth (Array.length buf / 2)) reqs
    | Boxed -> -1
  in
  if n >= 0 then begin
    bump_sends t n;
    push_batch t t.homes.(client) ~target:Server buf ~pos:0 ~len:n 0;
    land_replies t ~client ch buf 0 n;
    replies t buf n
  end
  else begin
    let n = List.length reqs in
    bump_sends t n;
    pipelined t ~client ~depth ch t.homes.(client) buf reqs n 0
  end
