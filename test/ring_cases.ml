(* The flat rings' cases that run both in one process and across fork:
   the FIFO model properties, the stale-snapshot cases and the
   torn-message cases, for rings carved alone and for two rings carved
   on the lanes of one region.  The rings keep every index, snapshot and cell in
   arena words, so the same cases hold whether the producer is the
   test's own thread, a domain or a fork'd process.  Each case takes the
   producer side as a parameter:

   - [~producer f] runs one producer-side operation [f] and returns its
     result: [in_process] calls it, the fork'd suites run it in a fresh
     child, so a ring that kept its producer index or snapshot in the
     OCaml heap (copied at fork, lost with the child) fails the model
     there;
   - [~start] launches the torn cases' producers (domains, or fork'd
     processes) and returns the function that stops and reaps them.

   This module is linked into both test binaries, so it spawns neither
   domains nor processes itself. *)

open Ulipc_real

let in_process f = f ()

(* ------------------------------------------------------------------ *)
(* FIFO models *)

(* Capacities 1..9 put the full check at both boundaries: [cap = ring]
   (1, 2, 4, 8) and [cap < ring] (3, 5, 6, 7, 9), where the producer's
   snapshot of the consumer's index must be refreshed to report room. *)
let model_capacity = QCheck.int_range 1 9

(* A message is a (client, word) pair, and any int is a word: the
   generator mixes small clients with words from the whole int range,
   negative ones, [min_int] and [max_int] included. *)
let msg_gen =
  QCheck.(pair (int_bound 100) (oneof [ int; int_range (-3) 3 ]))

(* [dequeue_into] against an option-returning model: a pair arrives
   exactly when the model has one, and an empty ring leaves the
   destination untouched. *)
let deq_into_matches_model dequeue_into q model =
  let dst = [| 7; 7; 7; 7 |] in
  let got = dequeue_into q dst 1 in
  dst.(0) = 7 && dst.(3) = 7
  &&
  match Queue.take_opt model with
  | Some (c, w) -> got && dst.(1) = c && dst.(2) = w
  | None -> (not got) && dst.(1) = 7 && dst.(2) = 7

(* Both rings against a FIFO model: [Some m] enqueues [m] on the
   producer side, [None] dequeues.  [program op] is the list of ops a
   trial runs: the in-process suites take QCheck's default lengths, the
   fork'd ones (a fork per producer op) short lists. *)
let prop_model ~count ~producer ~program ~name ~op create enqueue_pair
    dequeue_into length =
  QCheck.Test.make ~name ~count
    QCheck.(pair model_capacity (program op))
    (fun (cap, program) ->
      let q = create ~capacity:cap in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some ((client, word) as v) ->
            let accepted = producer (fun () -> enqueue_pair q ~client ~word) in
            let model_accepts = Queue.length model < cap in
            if model_accepts then Queue.add v model;
            accepted = model_accepts
          | None -> deq_into_matches_model dequeue_into q model)
          && length q = Queue.length model)
        program)

(* The SPSC program leans towards dequeues, so runs drain to empty as
   often as they fill. *)
let spsc_op =
  QCheck.(frequency [ (3, map Option.some msg_gen); (4, always None) ])

let prop_spsc_model ?(count = 300) ?(producer = in_process)
    ?(program = QCheck.list) ~name create =
  prop_model ~count ~producer ~program ~name ~op:spsc_op create
    Spsc_ring.enqueue_pair Spsc_ring.dequeue_into Spsc_ring.length

let prop_mpsc_model ?(count = 300) ?(producer = in_process)
    ?(program = QCheck.list) ~name create =
  prop_model ~count ~producer ~program ~name ~op:(QCheck.option msg_gen)
    create Mpsc_ring.enqueue_pair Mpsc_ring.dequeue_into Mpsc_ring.length

(* ------------------------------------------------------------------ *)
(* Stale snapshots *)

(* The producer's snapshot of the consumer's index goes stale the moment
   the consumer moves: filled to [capacity] and drained by one, the ring
   has exactly one free slot, which only a refreshed snapshot can see.
   Run at [cap = ring] and [cap < ring]. *)
let stale_snapshot_case ?(producer = in_process) ~capacity create enqueue
    dequeue nil () =
  let q = create ~capacity in
  let enq v = producer (fun () -> enqueue q v) in
  for i = 1 to capacity do
    Alcotest.(check bool) "fill" true (enq i)
  done;
  Alcotest.(check int) "drain one" 1 (dequeue q);
  Alcotest.(check bool) "the freed slot is seen" true (enq 100);
  Alcotest.(check bool) "and then the ring is full" false (enq 101);
  for i = 2 to capacity do
    Alcotest.(check int) "fifo" i (dequeue q)
  done;
  Alcotest.(check int) "last" 100 (dequeue q);
  Alcotest.(check int) "empty" nil (dequeue q)

let stale_snapshot_cases ?producer name create enqueue dequeue nil =
  List.map
    (fun capacity ->
      Alcotest.test_case
        (Printf.sprintf "%s stale snapshot at capacity %d" name capacity)
        `Quick
        (stale_snapshot_case ?producer ~capacity create enqueue dequeue nil))
    [ 4; 3 ]

(* ------------------------------------------------------------------ *)
(* Torn messages.  A cell carries two message words next to its seq, so
   a consumer that releases the cell before it has loaded both words,
   or a producer that publishes the seq before both words are stored,
   lets a pair arrive with one word from another message.  Every word
   here brands its client and that client's sequence number (negative,
   so a sentinel-like word would show too), and the consumer checks
   every pair that arrives against the next brand it expects from that
   client: a torn pair, a lost, duplicated or reordered message each
   fail.  Tiny capacities make the producers reuse each cell as soon as
   the consumer's index passes it — the window the two orderings guard.
   Singles and spans, on both sides, alternate.  A side that finds the
   ring full or empty polls it tightly for a while — on a multiprocessor
   that is what lands a producer's reuse inside the consumer's copy —
   and then yields the CPU, so the cases stay quick pinned to one CPU,
   where the timer still preempts the peers inside their claims and
   copies. *)
let brand client seq = lnot ((client lsl 32) lor seq)

(* One wait after [misses] consecutive misses; returns the new count. *)
let idle misses =
  if misses < 64 then Domain.cpu_relax () else Grace.sched_yield ();
  misses + 1

(* The consumer's check, and the verdict: [(bad pairs, all arrived)]. *)
let torn_check ~nproducers ~per_producer =
  let next = Array.make (nproducers + 1) 1 and bad = ref 0 in
  let check client word =
    if client < 1 || client > nproducers || word <> brand client next.(client)
    then incr bad
    else next.(client) <- next.(client) + 1
  in
  let result () =
    ( !bad,
      Array.for_all
        (fun n -> n = per_producer + 1)
        (Array.sub next 1 nproducers) )
  in
  (check, result)

(* One producer's traffic: message [seq] is [(client, brand client seq)],
   sent alone or in a span of up to 3 by [send_single]/[send_span], which
   return how many were accepted.  Gives up once [stopped ()]. *)
let produce_branded ~stopped ~client ~per_producer (send_single, send_span) =
  let span = Array.make 6 0 in
  let seq = ref 1 and misses = ref 0 in
  while !seq <= per_producer && not (stopped ()) do
    let k = min (1 + (!seq mod 3)) (per_producer - !seq + 1) in
    let accepted =
      if !seq land 1 = 0 then
        if send_single ~client ~word:(brand client !seq) then 1 else 0
      else begin
        for i = 0 to k - 1 do
          span.(2 * i) <- client;
          span.((2 * i) + 1) <- brand client (!seq + i)
        done;
        send_span span k
      end
    in
    misses := if accepted = 0 then idle !misses else 0;
    seq := !seq + accepted
  done

(* The consumer side, three single dequeues to one span dequeue, until
   [total] messages arrived or 20 s passed.  [rings] are the
   [(dequeue_into, dequeue_batch)] of every ring it consumes, polled in
   turn. *)
let consume_branded ~total ~check rings =
  let reg = Array.make 2 0 and buf = Array.make 8 0 in
  let got = ref 0 and turn = ref 0 and misses = ref 0 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while !got < total && Unix.gettimeofday () < deadline do
    incr turn;
    let dequeue_into, dequeue_batch = rings.(!turn mod Array.length rings) in
    let k =
      if !turn land 3 <> 0 then
        if dequeue_into reg 0 then begin
          check reg.(0) reg.(1);
          1
        end
        else 0
      else begin
        let k = dequeue_batch buf 4 in
        for i = 0 to k - 1 do
          check buf.(2 * i) buf.((2 * i) + 1)
        done;
        k
      end
    in
    misses := if k = 0 then idle !misses else 0;
    got := !got + k
  done

(* [start ~nproducers produce] runs [produce ~client ~stopped] for
   clients 1..nproducers on peers of its choice and returns the function
   that stops and reaps them once the consumer is done.  Client [c]
   sends with [senders c]. *)
let torn_case ~start ~nproducers ~per_producer ~senders rings =
  let check, result = torn_check ~nproducers ~per_producer in
  let finish =
    start ~nproducers (fun ~client ~stopped ->
        produce_branded ~stopped ~client ~per_producer (senders client))
  in
  consume_branded ~total:(nproducers * per_producer) ~check rings;
  finish ();
  let bad, complete = result () in
  Alcotest.(check int) "every pair arrived whole and in order" 0 bad;
  Alcotest.(check bool) "every message arrived" true complete

let mpsc_senders q =
  ( (fun ~client ~word -> Mpsc_ring.enqueue_pair q ~client ~word),
    fun span k -> Mpsc_ring.enqueue_batch q span ~pos:0 ~len:k )

let mpsc_takers q =
  ( Mpsc_ring.dequeue_into q,
    fun buf max -> Mpsc_ring.dequeue_batch q buf ~pos:0 ~max )

let spsc_senders q =
  ( (fun ~client ~word -> Spsc_ring.enqueue_pair q ~client ~word),
    fun span k -> Spsc_ring.enqueue_batch q span ~pos:0 ~len:k )

let spsc_takers q =
  ( Spsc_ring.dequeue_into q,
    fun buf max -> Spsc_ring.dequeue_batch q buf ~pos:0 ~max )

let mpsc_torn ?(per_producer = 200_000) ~start ~capacity () =
  let q = Mpsc_ring.create ~capacity () in
  torn_case ~start ~nproducers:2 ~per_producer
    ~senders:(fun _ -> mpsc_senders q)
    [| mpsc_takers q |]

(* The SPSC ring's one producer alternates plain and span sends. *)
let spsc_torn ?(per_producer = 400_000) ~start ~capacity () =
  let q = Spsc_ring.create ~capacity () in
  torn_case ~start ~nproducers:1 ~per_producer
    ~senders:(fun _ -> spsc_senders q)
    [| spsc_takers q |]

let torn_cases ?per_producer ~start name case =
  List.map
    (fun capacity ->
      Alcotest.test_case
        (Printf.sprintf "%s torn messages at capacity %d" name capacity)
        `Quick
        (case ?per_producer ~start ~capacity))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Two rings on one region.  A session pairs a shard's request ring
   (MPSC) with its one home client's reply ring (SPSC beside a lone
   server, MPSC in a pool) on the two lanes of one cell region, so cell
   [i] of both shares a line.  Each lane must behave exactly as a ring
   carved alone, whatever traffic the other lane carries. *)

(* The arena words a paired carve takes at most: the region, aligned,
   and each ring's index lines. *)
let paired_arena_words ~capacity ~second_lane_words =
  Ring_layout.region_words ~capacity
  + Word_arena.cache_line_words - 1 + Mpsc_ring.lane_arena_words
  + second_lane_words

(* The region and the request ring on its first lane; [carve_second]
   takes the second lane. *)
let carve_paired a ~capacity carve_second =
  let cells =
    Word_arena.alloc_line a ~words:(Ring_layout.region_words ~capacity)
  in
  ( Mpsc_ring.carve_lane a ~capacity ~cells,
    carve_second a ~capacity ~cells:(cells + Ring_layout.second_lane) )

(* The two rings of a pair, as the model sees them. *)
type lane = {
  enqueue_pair : client:int -> word:int -> bool;
  dequeue_into : int array -> int -> bool;
  length : unit -> int;
}

let mpsc_lane q =
  {
    enqueue_pair = Mpsc_ring.enqueue_pair q;
    dequeue_into = Mpsc_ring.dequeue_into q;
    length = (fun () -> Mpsc_ring.length q);
  }

let spsc_lane q =
  {
    enqueue_pair = Spsc_ring.enqueue_pair q;
    dequeue_into = Spsc_ring.dequeue_into q;
    length = (fun () -> Spsc_ring.length q);
  }

(* The shapes a session pairs: [spsc] for a lone server's reply ring,
   else an MPSC one. *)
let paired_lanes ~spsc ~capacity =
  let second_lane_words =
    if spsc then Spsc_ring.lane_arena_words else Mpsc_ring.lane_arena_words
  in
  let a =
    Word_arena.create
      ~size_words:(paired_arena_words ~capacity ~second_lane_words)
      ()
  in
  if spsc then
    let r, p = carve_paired a ~capacity Spsc_ring.carve_lane in
    (mpsc_lane r, spsc_lane p)
  else
    let r, p = carve_paired a ~capacity Mpsc_ring.carve_lane in
    (mpsc_lane r, mpsc_lane p)

(* Both lanes against a FIFO model each: an op picks a lane, then
   enqueues on it ([Some m], on the producer side) or dequeues. *)
let prop_paired_model ?(count = 300) ?(producer = in_process)
    ?(program = QCheck.list) ~spsc ~name () =
  QCheck.Test.make ~name ~count
    QCheck.(pair model_capacity (program (pair bool (option msg_gen))))
    (fun (cap, program) ->
      let first, second = paired_lanes ~spsc ~capacity:cap in
      let models = (Queue.create (), Queue.create ()) in
      List.for_all
        (fun (on_second, op) ->
          let lane, model =
            if on_second then (second, snd models) else (first, fst models)
          in
          (match op with
          | Some ((client, word) as v) ->
            let accepted =
              producer (fun () -> lane.enqueue_pair ~client ~word)
            in
            let model_accepts = Queue.length model < cap in
            if model_accepts then Queue.add v model;
            accepted = model_accepts
          | None ->
            deq_into_matches_model (fun l -> l.dequeue_into) lane model)
          && first.length () = Queue.length (fst models)
          && second.length () = Queue.length (snd models))
        program)

(* The torn-message case on both lanes at once: clients 1 and 2 produce
   on the request lane (MPSC), client 3 on the reply lane (SPSC), every
   one of them into the lines the others write, and one consumer takes
   from both lanes in turn. *)
let paired_torn ?(per_producer = 200_000) ~start ~capacity () =
  let a =
    Word_arena.create
      ~size_words:
        (paired_arena_words ~capacity
           ~second_lane_words:Spsc_ring.lane_arena_words)
      ()
  in
  let request, reply = carve_paired a ~capacity Spsc_ring.carve_lane in
  torn_case ~start ~nproducers:3 ~per_producer
    ~senders:(fun client ->
      if client <= 2 then mpsc_senders request else spsc_senders reply)
    [| mpsc_takers request; spsc_takers reply |]

(* Capacities below a block of eight slots and across two. *)
let paired_torn_cases ?per_producer ~start name =
  List.map
    (fun capacity ->
      Alcotest.test_case
        (Printf.sprintf "%s torn messages at capacity %d" name capacity)
        `Quick
        (paired_torn ?per_producer ~start ~capacity))
    [ 1; 4; 13 ]
