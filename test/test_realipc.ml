(* Tests for the real OCaml-5-domains implementation: the lock-free
   SPSC/MPSC rings, the waiting-array semaphore, and the
   Send/Receive/Reply protocols over them. *)

open Ulipc_real
module Trace_ring = Ulipc_observe.Trace_ring

(* ------------------------------------------------------------------ *)
(* Spsc_ring under one producer and one consumer: FIFO, exact capacity
   boundary, the nil sentinel when empty — including at non-power-of-two
   capacities, where the slot array is bigger than the logical bound. *)

let test_spsc_fifo () =
  let q = Spsc_ring.create ~capacity:8 () in
  List.iter (fun v -> ignore (Spsc_ring.enqueue q v : bool)) [ 1; 2; 3 ];
  let a = Spsc_ring.dequeue q in
  let b = Spsc_ring.dequeue q in
  let c = Spsc_ring.dequeue q in
  let d = Spsc_ring.dequeue q in
  Alcotest.(check (list int))
    "fifo then nil"
    [ 1; 2; 3; Spsc_ring.nil ]
    [ a; b; c; d ]

let test_spsc_capacity () =
  let q = Spsc_ring.create ~capacity:2 () in
  Alcotest.(check bool) "1st" true (Spsc_ring.enqueue q 1);
  Alcotest.(check bool) "2nd" true (Spsc_ring.enqueue q 2);
  Alcotest.(check bool) "3rd rejected" false (Spsc_ring.enqueue q 3);
  ignore (Spsc_ring.dequeue q : int);
  Alcotest.(check bool) "room again" true (Spsc_ring.enqueue q 4);
  Alcotest.(check int) "length" 2 (Spsc_ring.length q)

let test_spsc_wraparound () =
  (* Capacity 3 rides a 4-slot array: every lap crosses the wrap point
     and the flow-control boundary must still fire at 3, not 4. *)
  let q = Spsc_ring.create ~capacity:3 () in
  Alcotest.(check int) "capacity" 3 (Spsc_ring.capacity q);
  for lap = 0 to 99 do
    for i = 1 to 3 do
      Alcotest.(check bool) "accepted" true (Spsc_ring.enqueue q ((3 * lap) + i))
    done;
    Alcotest.(check bool) "4th rejected" false (Spsc_ring.enqueue q 0);
    for i = 1 to 3 do
      Alcotest.(check int)
        "fifo across wrap"
        ((3 * lap) + i)
        (Spsc_ring.dequeue q)
    done;
    Alcotest.(check int) "empty again" Spsc_ring.nil (Spsc_ring.dequeue q);
    Alcotest.(check bool) "is_empty" true (Spsc_ring.is_empty q)
  done

let test_spsc_rejects_negative_value () =
  let q = Spsc_ring.create ~capacity:4 () in
  Alcotest.check_raises "negative value"
    (Invalid_argument "Spsc_ring.enqueue: negative value") (fun () ->
      ignore (Spsc_ring.enqueue q (-3) : bool))

let test_spsc_concurrent_transfer () =
  (* One producer domain, one consumer domain, a ring much smaller than
     the traffic: the consumer must see exactly 1..n in order. *)
  let q = Spsc_ring.create ~capacity:16 () in
  let n = 20_000 in
  let producer () =
    for i = 1 to n do
      while not (Spsc_ring.enqueue q i) do
        Domain.cpu_relax ()
      done
    done
  in
  let consumer () =
    let next = ref 1 in
    let ok = ref true in
    while !next <= n do
      let v = Spsc_ring.dequeue q in
      if v = Spsc_ring.nil then Domain.cpu_relax ()
      else begin
        if v <> !next then ok := false;
        incr next
      end
    done;
    !ok
  in
  let dp = Domain.spawn producer in
  let dc = Domain.spawn consumer in
  Domain.join dp;
  Alcotest.(check bool) "exact fifo sequence" true (Domain.join dc);
  Alcotest.(check bool) "drained" true (Spsc_ring.is_empty q)

let test_spsc_rejects_nonpositive () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Spsc_ring.create: capacity must be positive") (fun () ->
      ignore (Spsc_ring.create ~capacity:0 () : Spsc_ring.t))

(* ------------------------------------------------------------------ *)
(* Mpsc_ring: the same semantics sequentially, and no loss, duplication
   or per-producer reordering under concurrent producers. *)

let test_mpsc_capacity () =
  (* Capacity 3 on a 4-slot array: boundary at the logical bound, across
     wraps. *)
  let q = Mpsc_ring.create ~capacity:3 () in
  for lap = 0 to 99 do
    for i = 1 to 3 do
      Alcotest.(check bool) "accepted" true (Mpsc_ring.enqueue q ((3 * lap) + i))
    done;
    Alcotest.(check bool) "4th rejected" false (Mpsc_ring.enqueue q 0);
    for i = 1 to 3 do
      Alcotest.(check int)
        "fifo across wrap"
        ((3 * lap) + i)
        (Mpsc_ring.dequeue q)
    done;
    Alcotest.(check int) "empty again" Mpsc_ring.nil (Mpsc_ring.dequeue q)
  done

(* [nproducers] domains into one consumer.  Besides no loss, no
   duplication and per-producer FIFO, the consumer checks the capacity
   bound on every turn: it owns [head], so [length] can only over-read a
   producer's claim, and a claim past [capacity] is exactly what the
   producers' full check must forbid.  That check is the comparison
   against the producers' snapshot of [head], refreshed when it says
   full, at a power-of-two capacity ([cap = ring]) and below one
   alike. *)
let mpsc_concurrent ~capacity ~nproducers () =
  let q = Mpsc_ring.create ~capacity () in
  let per_producer = 2_000 in
  let producer p () =
    for i = 1 to per_producer do
      while not (Mpsc_ring.enqueue q ((p * 1_000_000) + i)) do
        Domain.cpu_relax ()
      done
    done
  in
  let received = ref [] and over = ref 0 in
  (* A lost message would leave the consumer waiting forever; it gives
     up after 20 s instead, and the loss check below fails. *)
  let deadline = Unix.gettimeofday () +. 20.0 in
  let consumer () =
    let remaining = ref (nproducers * per_producer) in
    while !remaining > 0 do
      if Mpsc_ring.length q > capacity then incr over;
      let v = Mpsc_ring.dequeue q in
      if v = Mpsc_ring.nil then begin
        if Unix.gettimeofday () > deadline then remaining := 0;
        Domain.cpu_relax ()
      end
      else begin
        received := v :: !received;
        decr remaining
      end
    done
  in
  let producers = List.init nproducers (fun p -> Domain.spawn (producer (p + 1))) in
  let dc = Domain.spawn consumer in
  List.iter Domain.join producers;
  Domain.join dc;
  let received = List.rev !received in
  Alcotest.(check int) "no loss, no duplication"
    (nproducers * per_producer)
    (List.length (List.sort_uniq compare received));
  let ordered p =
    let mine = List.filter (fun v -> v / 1_000_000 = p) received in
    mine = List.sort compare mine
  in
  for p = 1 to nproducers do
    Alcotest.(check bool) (Printf.sprintf "producer %d fifo" p) true (ordered p)
  done;
  Alcotest.(check int) "never more than capacity in flight" 0 !over;
  Alcotest.(check bool) "drained" true (Mpsc_ring.is_empty q)

let test_mpsc_rejects_nonpositive () =
  Alcotest.check_raises "zero capacity"
    (Invalid_argument "Mpsc_ring.create: capacity must be positive") (fun () ->
      ignore (Mpsc_ring.create ~capacity:0 () : Mpsc_ring.t))

let test_mpsc_fifo () =
  let q = Mpsc_ring.create ~capacity:8 () in
  List.iter (fun v -> ignore (Mpsc_ring.enqueue q v : bool)) [ 1; 2; 3 ];
  let a = Mpsc_ring.dequeue q in
  let b = Mpsc_ring.dequeue q in
  let c = Mpsc_ring.dequeue q in
  let d = Mpsc_ring.dequeue q in
  Alcotest.(check (list int))
    "fifo then nil"
    [ 1; 2; 3; Mpsc_ring.nil ]
    [ a; b; c; d ]

let test_mpsc_rejects_negative_value () =
  let q = Mpsc_ring.create ~capacity:4 () in
  Alcotest.check_raises "negative value"
    (Invalid_argument "Mpsc_ring.enqueue: negative value") (fun () ->
      ignore (Mpsc_ring.enqueue q (-3) : bool));
  Alcotest.(check bool) "nothing enqueued" true (Mpsc_ring.is_empty q)

(* Spans both ways between two domains: the producer sends spans of 1
   to 7 messages with [enqueue_batch], the consumer takes up to 8 at a
   time with [dequeue_batch]; it must see exactly 1..n in order, each
   message with its own client word. *)
let test_spsc_batch_concurrent () =
  let q = Spsc_ring.create ~capacity:16 () in
  let n = 20_000 in
  let producer () =
    let span = Array.make 14 0 in
    let sent = ref 0 in
    while !sent < n do
      let k = min (1 + (!sent mod 7)) (n - !sent) in
      for i = 0 to k - 1 do
        let m = !sent + i + 1 in
        span.(2 * i) <- m land 0xff;
        span.((2 * i) + 1) <- -m
      done;
      let accepted = Spsc_ring.enqueue_batch q span ~pos:0 ~len:k in
      if accepted = 0 then Domain.cpu_relax ();
      sent := !sent + accepted
    done
  in
  let consumer () =
    let buf = Array.make 16 0 in
    let next = ref 1 in
    let ok = ref true in
    while !next <= n do
      let k = Spsc_ring.dequeue_batch q buf ~pos:0 ~max:8 in
      if k = 0 then Domain.cpu_relax ()
      else
        for j = 0 to k - 1 do
          if buf.(2 * j) <> !next land 0xff || buf.((2 * j) + 1) <> - !next
          then ok := false;
          incr next
        done
    done;
    !ok
  in
  let dp = Domain.spawn producer in
  let dc = Domain.spawn consumer in
  Domain.join dp;
  Alcotest.(check bool) "exact fifo sequence" true (Domain.join dc);
  Alcotest.(check bool) "drained" true (Spsc_ring.is_empty q)

(* One-word messages are pairs with client 0: both kinds share one FIFO,
   and either dequeue takes either kind. *)
let test_spsc_mixed_words () =
  let q = Spsc_ring.create ~capacity:4 () in
  Alcotest.(check bool) "word" true (Spsc_ring.enqueue q 5);
  Alcotest.(check bool) "pair" true
    (Spsc_ring.enqueue_pair q ~client:3 ~word:max_int);
  Alcotest.(check bool) "word" true (Spsc_ring.enqueue q 0);
  Alcotest.(check bool) "pair" true
    (Spsc_ring.enqueue_pair q ~client:(-2) ~word:min_int);
  let dst = [| 9; 9 |] in
  Alcotest.(check bool) "word as pair" true (Spsc_ring.dequeue_into q dst 0);
  Alcotest.(check (pair int int)) "client 0" (0, 5) (dst.(0), dst.(1));
  Alcotest.(check int) "pair as word" max_int (Spsc_ring.dequeue q);
  Alcotest.(check int) "word" 0 (Spsc_ring.dequeue q);
  Alcotest.(check bool) "pair" true (Spsc_ring.dequeue_into q dst 0);
  Alcotest.(check (pair int int)) "both words" (-2, min_int) (dst.(0), dst.(1));
  Alcotest.(check bool) "empty" false (Spsc_ring.dequeue_into q dst 0);
  Alcotest.(check (pair int int)) "untouched" (-2, min_int) (dst.(0), dst.(1))

(* Both rings: [is_empty] and [length] follow every enqueue and dequeue
   exactly when nothing races them — a refused enqueue included — across
   laps that wrap a capacity-5 ring's 8 slots. *)
let occupancy_case create enqueue dequeue is_empty length () =
  let q = create ~capacity:5 () in
  Alcotest.(check bool) "fresh ring is empty" true (is_empty q);
  Alcotest.(check int) "fresh length" 0 (length q);
  for _lap = 1 to 3 do
    for i = 1 to 5 do
      Alcotest.(check bool) "accepted" true (enqueue q i);
      Alcotest.(check bool) "occupied" false (is_empty q);
      Alcotest.(check int) "length after enqueue" i (length q)
    done;
    Alcotest.(check bool) "6th refused" false (enqueue q 6);
    Alcotest.(check int) "a refused enqueue adds nothing" 5 (length q);
    for i = 4 downto 0 do
      ignore (dequeue q : int);
      Alcotest.(check int) "length after dequeue" i (length q)
    done;
    Alcotest.(check bool) "drained ring is empty" true (is_empty q)
  done

(* Both rings: two rings carved from one arena share no word — each
   fills to its own bound while the other stays empty, and drains its
   own messages in order. *)
let carved_apart_case arena_words carve enqueue dequeue nil () =
  let a = Word_arena.create ~size_words:(2 * arena_words ~capacity:4) () in
  let q1 = carve a ~capacity:4 in
  let q2 = carve a ~capacity:4 in
  for lap = 0 to 9 do
    for i = 1 to 4 do
      Alcotest.(check bool) "first fills" true (enqueue q1 ((100 * lap) + i))
    done;
    Alcotest.(check bool) "first is full" false (enqueue q1 0);
    Alcotest.(check int) "second still empty" nil (dequeue q2);
    for i = 1 to 3 do
      Alcotest.(check bool) "second fills" true
        (enqueue q2 (10_000 + (100 * lap) + i))
    done;
    for i = 1 to 4 do
      Alcotest.(check int) "first's own" ((100 * lap) + i) (dequeue q1)
    done;
    Alcotest.(check int) "first drained" nil (dequeue q1);
    for i = 1 to 3 do
      Alcotest.(check int) "second's own" (10_000 + (100 * lap) + i) (dequeue q2)
    done;
    Alcotest.(check int) "second drained" nil (dequeue q2)
  done

(* Ring_layout's cell placement, which both rings use, at every capacity
   up to 2^10, for a region at a line-aligned offset: both lanes give
   each slot a two-word cell (tag, message word) of its own inside the
   region, and no word belongs to two cells of either lane; cell [i] of
   both lanes shares a line; slots [s] and [s + 4] of a block of eight
   share a line, and the block spans four lines (a ring of fewer than
   eight slots puts each slot on a line of its own). *)
let test_cell_placement () =
  let line = Word_arena.cache_line_words in
  let base = 5 * line and lanes = [ 0; Ring_layout.second_lane ] in
  let nlines l = List.length (List.sort_uniq compare l) in
  for capacity = 1 to 1 lsl 10 do
    let ring = Ring_layout.ceil_pow2 capacity in
    let words = Ring_layout.region_words ~capacity in
    let cell lane s =
      Ring_layout.cell ~cells:(base + lane) ~mask:(ring - 1) s
    in
    let line_of lane s = (cell lane s - base) / line in
    let fail fmt = Alcotest.failf ("capacity %d: " ^^ fmt) capacity in
    let owner = Hashtbl.create (4 * ring) in
    List.iter
      (fun lane ->
        for s = 0 to ring - 1 do
          let c = cell lane s in
          if c < base || c + 1 >= base + words then
            fail "lane %d slot %d at %d, outside the region's %d words" lane
              s (c - base) words;
          List.iter
            (fun w ->
              match Hashtbl.find_opt owner w with
              | Some (l, s') ->
                  fail "word %d is in lane %d slot %d and lane %d slot %d"
                    (w - base) l s' lane s
              | None -> Hashtbl.add owner w (lane, s))
            [ c; c + 1 ]
        done)
      lanes;
    for s = 0 to ring - 1 do
      if line_of 0 s <> line_of Ring_layout.second_lane s then
        fail "the lanes' cells %d are on different lines" s;
      if s land 4 = 0 && s + 4 < ring && line_of 0 s <> line_of 0 (s + 4)
      then fail "slots %d and %d are on different lines" s (s + 4)
    done;
    if ring < 8 then begin
      if nlines (List.init ring (line_of 0)) <> ring then
        fail "two slots share a line"
    end
    else
      for b = 0 to (ring / 8) - 1 do
        let block = List.init 8 (fun i -> line_of 0 ((8 * b) + i)) in
        if nlines block <> 4 then
          fail "block %d spans %d lines" b (nlines block)
      done
  done

(* Both rings: [arena_words ~capacity] words take one carve from any
   offset, the worst alignment included — one word into a fresh line,
   where the carve skips the other seven — and the ring fills to its
   bound; there is no room left for a second. *)
let arena_words_case arena_words carve enqueue dequeue () =
  List.iter
    (fun capacity ->
      let a = Word_arena.create ~size_words:(1 + arena_words ~capacity) () in
      ignore (Word_arena.alloc a ~words:1 ~align:1 : int);
      let q = carve a ~capacity in
      for i = 1 to capacity do
        Alcotest.(check bool) "fills" true (enqueue q i)
      done;
      Alcotest.(check bool) "to its bound" false (enqueue q 0);
      for i = 1 to capacity do
        Alcotest.(check int) "fifo" i (dequeue q)
      done;
      match carve a ~capacity with
      | _ -> Alcotest.failf "a second capacity-%d carve fit" capacity
      | exception Invalid_argument _ -> ())
    [ 1; 3; 8; 13 ]

(* The paired carve: [Ring_cases.paired_arena_words] take the region
   and both rings' index lines from any offset, the worst alignment
   included, both lanes fill to their bound and drain in order, and no
   second pair fits. *)
let paired_arena_words_case ~second_lane_words carve_second enqueue dequeue
    () =
  List.iter
    (fun capacity ->
      let a =
        Word_arena.create
          ~size_words:
            (1 + Ring_cases.paired_arena_words ~capacity ~second_lane_words)
          ()
      in
      ignore (Word_arena.alloc a ~words:1 ~align:1 : int);
      let request, second =
        Ring_cases.carve_paired a ~capacity carve_second
      in
      for i = 1 to capacity do
        Alcotest.(check bool) "request lane fills" true
          (Mpsc_ring.enqueue request i);
        Alcotest.(check bool) "second lane fills" true
          (enqueue second (1000 + i))
      done;
      Alcotest.(check bool) "request lane to its bound" false
        (Mpsc_ring.enqueue request 0);
      Alcotest.(check bool) "second lane to its bound" false
        (enqueue second 0);
      for i = 1 to capacity do
        Alcotest.(check int) "request fifo" i (Mpsc_ring.dequeue request);
        Alcotest.(check int) "second fifo" (1000 + i) (dequeue second)
      done;
      match Ring_cases.carve_paired a ~capacity carve_second with
      | _ -> Alcotest.failf "a second capacity-%d pair fit" capacity
      | exception Invalid_argument _ -> ())
    [ 1; 3; 8; 13 ]

(* ------------------------------------------------------------------ *)
(* Batch operations: on both rings, a batch must be observationally
   identical to n single ops — FIFO, no loss/duplication, exact capacity
   boundary (the accepted count is the model's free space, even when the
   batch straddles it). *)

let batch_program =
  QCheck.(
    list
      (oneof
         [
           map (fun ms -> `Enq ms) (list Ring_cases.msg_gen);
           map (fun n -> `Deq n) (int_bound 12);
         ]))

let prop_batch_model name create enqueue_batch dequeue_batch =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair Ring_cases.model_capacity batch_program)
    (fun (cap, program) ->
      let q = create ~capacity:cap () in
      let model = Queue.create () in
      List.for_all
        (function
          | `Enq ms ->
            let k = enqueue_batch q ms in
            let expect = min (List.length ms) (cap - Queue.length model) in
            let rec add i = function
              | m :: rest when i < expect ->
                Queue.add m model;
                add (i + 1) rest
              | _ -> ()
            in
            add 0 ms;
            k = expect
          | `Deq max ->
            let got = dequeue_batch q ~max in
            let expect =
              List.init
                (min max (Queue.length model))
                (fun _ -> Queue.take model)
            in
            got = expect)
        program)

(* The rings' batch seam is (client, word) pair spans; adapt it to the
   list shape the generic model drives.  The spans start at message 1 of their
   arrays, so a span offset that is not doubled would show. *)
let array_batch_ops enqueue_batch dequeue_batch =
  let enq q ms =
    let span = Array.make (2 * (List.length ms + 1)) 0 in
    List.iteri
      (fun i (c, w) ->
        span.(2 * (i + 1)) <- c;
        span.((2 * (i + 1)) + 1) <- w)
      ms;
    enqueue_batch q span ~pos:1 ~len:(List.length ms)
  in
  let deq q ~max =
    let buf = Array.make (2 * (max + 1)) 0 in
    let k = dequeue_batch q buf ~pos:1 ~max in
    List.init k (fun i -> (buf.(2 * (i + 1)), buf.((2 * (i + 1)) + 1)))
  in
  (enq, deq)

let prop_spsc_batch_model =
  let enq, deq = array_batch_ops Spsc_ring.enqueue_batch Spsc_ring.dequeue_batch in
  prop_batch_model "Spsc_ring batch ops match n single ops" Spsc_ring.create
    enq deq

let prop_mpsc_batch_model =
  let enq, deq = array_batch_ops Mpsc_ring.enqueue_batch Mpsc_ring.dequeue_batch in
  prop_batch_model "Mpsc_ring batch ops match n single ops" Mpsc_ring.create
    enq deq

let test_batch_validation () =
  let q = Spsc_ring.create ~capacity:4 () in
  let buf = Array.make 20 0 in
  Alcotest.(check int) "max 0" 0 (Spsc_ring.dequeue_batch q buf ~pos:0 ~max:0);
  Alcotest.check_raises "negative max"
    (Invalid_argument "Spsc_ring.dequeue_batch: negative max") (fun () ->
      ignore (Spsc_ring.dequeue_batch q buf ~pos:0 ~max:(-1) : int));
  Alcotest.check_raises "span past the buffer"
    (Invalid_argument "Spsc_ring.dequeue_batch: bad span") (fun () ->
      ignore (Spsc_ring.dequeue_batch q buf ~pos:8 ~max:5 : int));
  Alcotest.check_raises "bad enqueue span"
    (Invalid_argument "Spsc_ring.enqueue_batch: bad span") (fun () ->
      ignore (Spsc_ring.enqueue_batch q buf ~pos:8 ~len:5 : int));
  Alcotest.check_raises "half a message"
    (Invalid_argument "Spsc_ring.enqueue_batch: bad span") (fun () ->
      ignore (Spsc_ring.enqueue_batch q [| 1; 2; 3 |] ~pos:0 ~len:2 : int));
  Alcotest.(check int) "empty batch" 0 (Spsc_ring.enqueue_batch q [||] ~pos:0 ~len:0);
  (* Prefix semantics at the boundary: capacity 4, 2 occupied, a 5-batch
     accepts exactly 2.  Words may be negative. *)
  Alcotest.(check int) "fill 2" 2
    (Spsc_ring.enqueue_batch q [| 0; -1; 0; -2 |] ~pos:0 ~len:2);
  Alcotest.(check int) "prefix at boundary" 2
    (Spsc_ring.enqueue_batch q
       [| 9; 9; 1; 3; 2; 4; 3; 5; 4; 6; 5; 7 |]
       ~pos:1 ~len:5);
  Alcotest.(check int) "fifo across batches" 4
    (Spsc_ring.dequeue_batch q buf ~pos:0 ~max:10);
  Alcotest.(check (list int)) "fifo contents" [ 0; -1; 0; -2; 1; 3; 2; 4 ]
    (Array.to_list (Array.sub buf 0 8))

(* Batch enqueues racing a concurrent consumer, on the MPSC ring: two
   producer domains each pushing batches of varying size, one consumer
   draining with dequeue_batch.  No loss, no duplication, per-producer
   FIFO — the span-claim CAS must never hand two producers overlapping
   slots. *)
let test_mpsc_batch_concurrent () =
  let q = Mpsc_ring.create ~capacity:16 () in
  let nproducers = 2 in
  let per_producer = 3_000 in
  let producer p () =
    let batch = Array.make 14 0 in
    let sent = ref 0 in
    while !sent < per_producer do
      let k = min (1 + (!sent mod 7)) (per_producer - !sent) in
      for i = 0 to k - 1 do
        batch.(2 * i) <- p;
        batch.((2 * i) + 1) <- (p * 1_000_000) + !sent + i + 1
      done;
      let accepted = Mpsc_ring.enqueue_batch q batch ~pos:0 ~len:k in
      if accepted = 0 then Domain.cpu_relax ();
      sent := !sent + accepted
    done
  in
  let received = ref [] and torn = ref 0 in
  let consumer () =
    let buf = Array.make 16 0 in
    let remaining = ref (nproducers * per_producer) in
    while !remaining > 0 do
      match Mpsc_ring.dequeue_batch q buf ~pos:0 ~max:8 with
      | 0 -> Domain.cpu_relax ()
      | k ->
        for i = 0 to k - 1 do
          let w = buf.((2 * i) + 1) in
          if buf.(2 * i) <> w / 1_000_000 then incr torn;
          received := w :: !received
        done;
        remaining := !remaining - k
    done
  in
  let producers =
    List.init nproducers (fun p -> Domain.spawn (producer (p + 1)))
  in
  let dc = Domain.spawn consumer in
  List.iter Domain.join producers;
  Domain.join dc;
  let received = List.rev !received in
  Alcotest.(check int) "no torn message" 0 !torn;
  Alcotest.(check int) "no loss, no duplication"
    (nproducers * per_producer)
    (List.length (List.sort_uniq compare received));
  let ordered p =
    let mine = List.filter (fun v -> v / 1_000_000 = p) received in
    mine = List.sort compare mine
  in
  for p = 1 to nproducers do
    Alcotest.(check bool) (Printf.sprintf "producer %d fifo" p) true (ordered p)
  done

(* The torn-message cases (Ring_cases) with their producers on domains. *)
let in_domains ~nproducers produce =
  let stop = Atomic.make false in
  let producers =
    List.init nproducers (fun p ->
        Domain.spawn (fun () ->
            produce ~client:(p + 1) ~stopped:(fun () -> Atomic.get stop)))
  in
  fun () ->
    Atomic.set stop true;
    List.iter Domain.join producers

(* ------------------------------------------------------------------ *)
(* Slab: the lock-free free list behind the boxed codec's side table. *)

(* Random alloc/release programs against a free-set model: try_alloc
   succeeds exactly while the model says slots remain, never hands out a
   slot the model believes allocated, and release returns it. *)
let prop_slab_model =
  QCheck.Test.make ~name:"Slab alloc/release matches a free-set model"
    ~count:300
    QCheck.(list (option (int_bound 20)))
    (fun program ->
      let slots = 6 in
      let s = Slab.create ~slots () in
      let held = ref [] in
      List.for_all
        (function
          | Some pick -> (
            (* Release one of the held slots, chosen by the generator. *)
            match !held with
            | [] -> true
            | hs ->
              let i = List.nth hs (pick mod List.length hs) in
              Slab.release s i;
              held := List.filter (fun j -> j <> i) hs;
              true)
          | None -> (
            let i = Slab.try_alloc s in
            if List.length !held >= slots then i = Slab.nil
            else
              i >= 0 && i < slots
              && (not (List.mem i !held))
              &&
              (held := i :: !held;
               true)))
        program)

let test_slab_exhaustion () =
  let s = Slab.create ~slots:2 () in
  let a = Slab.try_alloc s in
  let b = Slab.try_alloc s in
  Alcotest.(check bool) "two distinct slots" true
    (a <> Slab.nil && b <> Slab.nil && a <> b);
  Alcotest.(check int) "exhausted -> nil" Slab.nil (Slab.try_alloc s);
  Alcotest.(check (option int)) "exhausted -> None" None (Slab.alloc s);
  Alcotest.(check int) "both in use" 2 (Slab.in_use_count s);
  Slab.release s a;
  Alcotest.(check int) "released slot comes back" a (Slab.try_alloc s)

let test_slab_double_release_rejected () =
  let s = Slab.create ~slots:2 () in
  let i = Slab.try_alloc s in
  Slab.release s i;
  Alcotest.check_raises "double release"
    (Invalid_argument "Slab.release: slot is not allocated") (fun () ->
      Slab.release s i);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Slab.release: index out of range") (fun () ->
      Slab.release s 99);
  Alcotest.check_raises "nil index"
    (Invalid_argument "Slab.release: index out of range") (fun () ->
      Slab.release s Slab.nil)

(* 4-domain stress: each domain brands every slot it allocates with a
   boxed value unique to (domain, iteration), spins briefly, and
   verifies the brand — by physical identity — before releasing.  If
   the free list ever hands the same slot to two domains (ABA or a lost
   CAS), a brand check fails; the final in_use_count confirms nothing
   leaked, and a released slot holds no payload. *)
let test_slab_no_aliasing_under_stress () =
  let s = Slab.create ~slots:8 () in
  let ndomains = 4 in
  let iters = 20_000 in
  let worker d () =
    let ok = ref true in
    for k = 1 to iters do
      let i = Slab.try_alloc s in
      if i <> Slab.nil then begin
        let brand = Obj.repr (ref ((d * 100_000_000) + k)) in
        Slab.set_box s i brand;
        Domain.cpu_relax ();
        if Slab.get_box s i != brand then ok := false;
        Slab.release s i
      end
      else Domain.cpu_relax ()
    done;
    !ok
  in
  let domains = List.init ndomains (fun d -> Domain.spawn (worker (d + 1))) in
  let oks = List.map Domain.join domains in
  List.iteri
    (fun d ok ->
      Alcotest.(check bool) (Printf.sprintf "domain %d saw no aliasing" d) true ok)
    oks;
  Alcotest.(check int) "no leaked slots" 0 (Slab.in_use_count s);
  for i = 0 to Slab.slots s - 1 do
    Alcotest.(check bool) "released slot cleared" true
      (Obj.is_int (Slab.get_box s i))
  done

let test_slab_rejects_bad_sizes () =
  Alcotest.check_raises "zero slots"
    (Invalid_argument "Slab.create: slots must be positive") (fun () ->
      ignore (Slab.create ~slots:0 () : Slab.t))

(* ------------------------------------------------------------------ *)
(* Rsem *)

(* Sem_cases' peers in this binary: domains.  A case that overruns its
   deadline fails and leaves its domain behind, parked. *)
let in_domain f =
  let d = Domain.spawn f in
  fun () -> Domain.join d

let within_domain ~timeout_s what f =
  let result = Atomic.make None in
  let _ : unit Domain.t =
    Domain.spawn (fun () ->
        Atomic.set result
          (Some (match f () with () -> Ok () | exception e -> Error e)))
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  while Atomic.get result = None && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  match Atomic.get result with
  | Some (Ok ()) -> ()
  | Some (Error e) -> raise e
  | None ->
    Alcotest.failf "%s: still running after %.0f s (lost wake-up)" what
      timeout_s

let test_rsem_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Rsem.create: negative initial count")
    (fun () -> ignore (Rsem.create (-1)))

let test_rsem_try_p_never_blocks () =
  (* try_p on an empty semaphore must return, not wait: run it on this
     domain with no V anywhere in flight. *)
  let s = Rsem.create 0 in
  for _ = 1 to 1_000 do
    if Rsem.try_p s then Alcotest.fail "took from an empty semaphore"
  done;
  Alcotest.(check int) "still zero" 0 (Rsem.value s)

let test_rsem_v_burst_no_lost_wakeup () =
  (* 4-domain stress: 2 producers post credits in bursts of 1..7
     back-to-back Vs, 2 consumers take them one P at a time.  Every
     credit must be consumed exactly once — a lost wake-up hangs a
     consumer (and the join), an invented one leaves value <> 0. *)
  let s = Rsem.create 0 in
  let per_side = 3_000 in
  let producer seed () =
    let sent = ref 0 in
    let k = ref seed in
    while !sent < per_side do
      let n = min (1 + (!k mod 7)) (per_side - !sent) in
      for _ = 1 to n do
        Rsem.v s
      done;
      sent := !sent + n;
      k := !k + 3
    done
  in
  let consumer () =
    for _ = 1 to per_side do
      Rsem.p s
    done
  in
  let domains =
    [
      Domain.spawn (producer 0);
      Domain.spawn (producer 1);
      Domain.spawn consumer;
      Domain.spawn consumer;
    ]
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "all credits consumed exactly once" 0 (Rsem.value s)

let test_rsem_try_p_races_p () =
  (* Credits taken two ways at once: one domain takes its share with P,
     another polls for its share with try_p, while a third posts every
     credit.  Each credit must go to exactly one taker — a credit lost
     between them hangs a taker (and the join), one handed out twice
     leaves value <> 0. *)
  let s = Rsem.create 0 in
  let share = 3_000 in
  let poster () =
    for _ = 1 to 2 * share do
      Rsem.v s
    done
  in
  let taker () =
    for _ = 1 to share do
      Rsem.p s
    done
  in
  let poller () =
    let got = ref 0 in
    while !got < share do
      if Rsem.try_p s then incr got else Grace.sched_yield ()
    done
  in
  let domains =
    [ Domain.spawn taker; Domain.spawn poller; Domain.spawn poster ]
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "every credit taken once" 0 (Rsem.value s)

(* Cross-domain handoffs in bursts of [rounds]: each round the poster
   domain sees the go signal, waits [delay_ns], then posts [v ()] while
   this domain is in [p ()].  Bursts repeat until one satisfies
   [ok parks], where [parks] counts the P's of the burst that parked
   (read through [parks ()]), or until [timeout_s] has passed; returns
   the last burst's count.  Repeating matters because a freshly spawned
   domain may share its parent's CPU for a while (Linux places it there
   and may be slow to migrate it): both domains then cannot spin at
   once, and every round parks correctly. *)
let handoff_bursts ~p ~v ~parks ~delay_ns ~rounds ~timeout_s ok =
  let go = Atomic.make 0 and stop = Atomic.make false in
  let poster =
    Domain.spawn (fun () ->
        let next = ref 1 in
        while not (Atomic.get stop) do
          if Atomic.get go < !next then Domain.cpu_relax ()
          else begin
            let t0 = Ulipc_observe.Clock.now_ns () in
            while Ulipc_observe.Clock.now_ns () - t0 < delay_ns do
              Domain.cpu_relax ()
            done;
            v ();
            incr next
          end
        done)
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec burst first =
    let parks0 = parks () in
    for r = first to first + rounds - 1 do
      Atomic.set go r;
      p ()
    done;
    let n = parks () - parks0 in
    if ok n || Unix.gettimeofday () > deadline then n
    else burst (first + rounds)
  in
  let n = burst 1 in
  Atomic.set stop true;
  Domain.join poster;
  n

let rsem_bursts s =
  handoff_bursts
    ~p:(fun () -> Rsem.p s)
    ~v:(fun () -> Rsem.v s)
    ~parks:(fun () -> Rsem.parks s)

(* A V landing a few us after P is entered falls inside the grace, so P
   takes it without parking; a fixed spin shorter than the delay (64
   pauses is ~1.5 us) would park on every round.  A round still parks,
   correctly, whenever the host deschedules either domain, hence the
   slack. *)
let test_rsem_grace_catches_late_v () =
  if Domain.recommended_domain_count () = 1 then Alcotest.skip ();
  let rounds = 50 in
  let parks =
    rsem_bursts (Rsem.create 0) ~delay_ns:4_000 ~rounds ~timeout_s:5.0
      (fun parks -> parks <= rounds / 4)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 in 4 rounds parks (%d of %d)" parks rounds)
    true
    (parks <= rounds / 4)

(* [~spin:0] is "park at once": the same late V finds P already parked
   in nearly every round (a round escapes only if P is delayed past the
   V). *)
let test_rsem_spin0_parks () =
  let rounds = 50 in
  let parks =
    rsem_bursts (Rsem.create ~spin:0 0) ~delay_ns:4_000 ~rounds
      ~timeout_s:5.0 (fun parks -> parks >= rounds * 3 / 4)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 in 4 rounds park (%d of %d)" parks rounds)
    true
    (parks >= rounds * 3 / 4)

(* The channel semaphores of the domains backend park at once: the
   consumer has spent its grace in [await] before it reaches P, so a
   second grace here would only delay the park.  The same late V as
   above finds [sem_p] already parked in nearly every round. *)
let test_channel_sem_parks_at_once () =
  let sub = Real_substrate.create ~capacity:4 ~nclients:1 () in
  let ch = Real_substrate.reply_channel sub 0 in
  let parks () =
    Real_substrate.harvest_sem_counters sub;
    (Real_substrate.counters sub).Ulipc.Counters.sem_parks
  in
  let rounds = 50 in
  let parks =
    handoff_bursts
      ~p:(fun () -> Real_substrate.sem_p sub ch)
      ~v:(fun () -> Real_substrate.sem_v sub ch)
      ~parks ~delay_ns:4_000 ~rounds ~timeout_s:5.0 (fun parks ->
        parks >= rounds * 3 / 4)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 in 4 rounds park (%d of %d)" parks rounds)
    true
    (parks >= rounds * 3 / 4);
  Alcotest.(check int) "no credit" 0 (Real_substrate.wake_residue sub)

(* ------------------------------------------------------------------ *)
(* Grace, and the substrate's await over it *)

(* The grace spin's exit rule on synthetic timestamps: clock reads
   ~0.4 us apart run until the deadline; one read more than
   [desched_gap_ns] after its predecessor stops the spin early. *)
let test_grace_stop_spinning () =
  let stop = Grace.stop_spinning and gap = Grace.desched_gap_ns in
  let deadline = Grace.grace_ns in
  Alcotest.(check bool) "steady reads keep spinning" false
    (stop ~deadline ~prev:0 ~now:400);
  Alcotest.(check bool) "deadline reached" true
    (stop ~deadline ~prev:(deadline - 400) ~now:deadline);
  Alcotest.(check bool) "past the deadline" true
    (stop ~deadline ~prev:(deadline - 400) ~now:(deadline + 100));
  Alcotest.(check bool) "gap of exactly the bound keeps spinning" false
    (stop ~deadline ~prev:1_000 ~now:(1_000 + gap));
  Alcotest.(check bool) "longer gap means descheduled" true
    (stop ~deadline ~prev:1_000 ~now:(1_000 + gap + 1));
  (* A whole grace of steady reads: the first stop is the deadline. *)
  let rec first_stop prev =
    let now = prev + 400 in
    if stop ~deadline ~prev ~now then now else first_stop now
  in
  Alcotest.(check int) "steady spin ends at the deadline" deadline
    (first_stop 0);
  Alcotest.(check bool) "grace outlasts the gap bound" true (deadline > gap)

(* The uniprocessor rule: no grace on one CPU, and a zero grace returns
   [miss] without polling at all.  A non-zero grace returns the first
   poll result that is not [miss]. *)
let test_grace_one_cpu_returns_at_once () =
  Alcotest.(check int) "one CPU: no grace" 0 (Grace.for_cpus 1);
  Alcotest.(check int) "two CPUs: the full grace" Grace.grace_ns
    (Grace.for_cpus 2);
  let polls = ref 0 in
  let poll answer_at =
    incr polls;
    if !polls >= answer_at then 7 else -1
  in
  Alcotest.(check int) "zero grace gives up" (-1)
    (Grace.run ~grace:(Grace.for_cpus 1) poll 1 ~miss:(-1));
  Alcotest.(check int) "without polling" 0 !polls;
  Alcotest.(check int) "a grace returns the first hit" 7
    (Grace.run ~grace:Grace.grace_ns poll 3 ~miss:(-1));
  Alcotest.(check int) "after exactly that many polls" 3 !polls

(* Rounds of [Real_substrate.await] on a reply channel against a poster
   domain that enqueues round [r]'s message [delay_ns] after it sees the
   go signal.  Returns the hits — rounds whose message [await] itself
   returned — of the last burst; bursts repeat until [ok hits] or
   [timeout_s], for the same CPU-sharing reason as [handoff_bursts].  A
   round [await] gave up on takes its message with a plain dequeue.
   Fails if any [await] cleared the flag or a message went astray.  The
   poster sends from server 0's register; [ch] is client 0's reply
   channel, so a message lands in client 0's register. *)
let await_bursts sub ch ~delay_ns ~rounds ~timeout_s ok =
  let go = Atomic.make 0 and stop = Atomic.make false in
  let tx = Real_substrate.server_register sub 0 in
  let word m =
    if m = Real_substrate.no_msg then m
    else begin
      if m <> Real_substrate.client_register sub 0 then
        Alcotest.failf "message in register %d" m;
      Real_substrate.register_word sub m
    end
  in
  let poster =
    Domain.spawn (fun () ->
        let next = ref 1 in
        while not (Atomic.get stop) do
          if Atomic.get go < !next then Domain.cpu_relax ()
          else begin
            let t0 = Ulipc_observe.Clock.now_ns () in
            while Ulipc_observe.Clock.now_ns () - t0 < delay_ns do
              Domain.cpu_relax ()
            done;
            Real_substrate.set_register sub tx ~client:0 ~word:!next;
            ignore (Real_substrate.enqueue sub ch tx : bool);
            incr next
          end
        done)
  in
  let rec take () =
    let m = word (Real_substrate.dequeue sub ch) in
    if m = Real_substrate.no_msg then begin
      Domain.cpu_relax ();
      take ()
    end
    else m
  in
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec burst first =
    let hits = ref 0 in
    for r = first to first + rounds - 1 do
      Atomic.set go r;
      let m = word (Real_substrate.await sub ch) in
      if m = r then incr hits
      else if m <> Real_substrate.no_msg || take () <> r then
        Alcotest.failf "round %d: wrong message" r;
      if not (Real_substrate.awake_read sub ch) then
        Alcotest.failf "round %d: await cleared the awake flag" r
    done;
    if ok !hits || Unix.gettimeofday () > deadline then !hits
    else burst (first + rounds)
  in
  let hits = burst 1 in
  Atomic.set stop true;
  Domain.join poster;
  hits

(* A message enqueued ~4 us after the consumer starts waiting is returned
   by [await] with the flag still set, and the semaphore is never
   touched: no parks, no grants, no credit left behind. *)
let test_await_catches_late_message () =
  if Grace.default = 0 then Alcotest.skip ();
  let sub = Real_substrate.create ~capacity:4 ~nclients:1 () in
  let ch = Real_substrate.reply_channel sub 0 in
  let rounds = 50 in
  let hits =
    await_bursts sub ch ~delay_ns:4_000 ~rounds ~timeout_s:5.0 (fun hits ->
        hits >= rounds * 3 / 4)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at least 3 in 4 rounds caught (%d of %d)" hits rounds)
    true
    (hits >= rounds * 3 / 4);
  Real_substrate.harvest_sem_counters sub;
  let c = Real_substrate.counters sub in
  Alcotest.(check int) "no parks" 0 c.Ulipc.Counters.sem_parks;
  Alcotest.(check int) "no grants" 0 c.Ulipc.Counters.sem_grants;
  Alcotest.(check int) "no credit" 0 (Real_substrate.wake_residue sub)

(* On an empty channel [await] gives up within the grace (plus slack for
   a descheduling), leaves the flag set and, on a multiprocessor, records
   one spin-exhaust event: where the consumer stopped waiting on the
   message. *)
let test_await_empty_gives_up () =
  let trace = Trace_ring.create ~capacity:64 () in
  let sub = Real_substrate.create ~trace ~capacity:4 ~nclients:1 () in
  let ch = Real_substrate.reply_channel sub 0 in
  let t0 = Ulipc_observe.Clock.now_ns () in
  let m = Real_substrate.await sub ch in
  let elapsed = Ulipc_observe.Clock.now_ns () - t0 in
  Alcotest.(check int) "no message" Real_substrate.no_msg m;
  Alcotest.(check bool)
    (Printf.sprintf "returned within the grace + 50 ms (%d ns)" elapsed)
    true
    (elapsed <= Grace.default + 50_000_000);
  Alcotest.(check bool) "flag still set" true (Real_substrate.awake_read sub ch);
  Alcotest.(check int) "no credit" 0 (Real_substrate.wake_residue sub);
  let exhausts =
    List.length
      (List.filter
         (fun e -> e.Ulipc_observe.Event.kind = Ulipc_observe.Event.Spin_exhaust)
         (Trace_ring.events trace))
  in
  Alcotest.(check int) "spin-exhaust events"
    (if Grace.default = 0 then 0 else 1)
    exhausts

(* A scan of a shard's 32 empty lanes takes ~150 ns, so an [await]
   that read the clock only every 16 scans took its own polls for a
   descheduling and gave up after ~3.5 us.  The median of 21 empty waits
   must last most of the grace: a real descheduling ends a wait early,
   hence the median. *)
let test_await_many_lanes_lasts_the_grace () =
  if Grace.default = 0 then Alcotest.skip ();
  let sub = Real_substrate.create ~capacity:4 ~nclients:32 () in
  let ch = Real_substrate.request_shard sub 0 in
  let wait () =
    let t0 = Ulipc_observe.Clock.now_ns () in
    let m = Real_substrate.await sub ch in
    let elapsed = Ulipc_observe.Clock.now_ns () - t0 in
    Alcotest.(check int) "no message" Real_substrate.no_msg m;
    elapsed
  in
  let median = List.nth (List.sort compare (List.init 21 (fun _ -> wait ()))) 10 in
  Alcotest.(check bool)
    (Printf.sprintf "median empty wait %d ns of a %d ns grace" median
       Grace.default)
    true
    (median >= Grace.default * 3 / 4);
  Alcotest.(check bool) "flag still set" true (Real_substrate.awake_read sub ch)

(* The back-off ladder as a pure function: every rung boundary on a
   multiprocessor and a uniprocessor, and both park lengths, capped
   however long the loop has waited. *)
let rung_t =
  Alcotest.testable
    (fun ppf r ->
      Format.pp_print_string ppf
        (match r with
        | Grace.Pause -> "Pause"
        | Grace.Yield -> "Yield"
        | Grace.Sleep -> "Sleep"))
    ( = )

let test_ladder_rungs () =
  let p = Grace.pause_waits and s = Grace.sleep_after in
  let check name expect ~multicore n =
    Alcotest.check rung_t name expect (Grace.rung ~multicore n)
  in
  check "multicore: the first wait pauses" Grace.Pause ~multicore:true 0;
  check "multicore: the last pause" Grace.Pause ~multicore:true (p - 1);
  check "multicore: then yields" Grace.Yield ~multicore:true p;
  check "multicore: the last yield" Grace.Yield ~multicore:true (s - 1);
  check "multicore: then parks" Grace.Sleep ~multicore:true s;
  check "one CPU: a one-shot hint pauses" Grace.Pause ~multicore:false 0;
  check "one CPU: then yields" Grace.Yield ~multicore:false 1;
  check "one CPU: the last yield" Grace.Yield ~multicore:false (s - 1);
  check "one CPU: then parks" Grace.Sleep ~multicore:false s;
  check "a long wait stays parked" Grace.Sleep ~multicore:true max_int;
  Alcotest.(check bool) "pauses come before parks" true (0 < p && p < s);
  let park name expect ~short n =
    Alcotest.(check int) name expect (Grace.park_ns ~short n)
  in
  park "request consumer: first park 1 us" 1_000 ~short:true s;
  park "request consumer: doubles" 2_000 ~short:true (s + 1);
  park "request consumer: 8 us" 8_000 ~short:true (s + 3);
  park "request consumer: capped at 10 us" 10_000 ~short:true (s + 4);
  park "request consumer: cap holds" 10_000 ~short:true max_int;
  park "other waiter: first park 20 us" 20_000 ~short:false s;
  park "other waiter: doubles" 40_000 ~short:false (s + 1);
  park "other waiter: capped at 50 us" 50_000 ~short:false (s + 2);
  park "other waiter: cap holds" 50_000 ~short:false max_int;
  for n = s to s + 100 do
    if Grace.park_ns ~short:true n > Grace.park_ns ~short:false n then
      Alcotest.failf "wait %d: a request consumer parks longer" n
  done

(* ------------------------------------------------------------------ *)
(* Rpc protocols on real domains *)

(* Run a complete 2×-double echo workload through an existing session:
   one server domain, [Rpc.nclients t] client domains, [messages] calls
   each; joins everything before returning. *)
let echo_through (t : (int, int) Rpc.t) ~messages =
  let nclients = Rpc.nclients t in
  let server =
    Domain.spawn (fun () ->
        let remaining = ref (nclients * messages) in
        while !remaining > 0 do
          let client, v = Rpc.receive t in
          Rpc.reply t ~client (v * 2);
          decr remaining
        done)
  in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            for i = 1 to messages do
              let v = (c * 10_000_000) + i in
              if Rpc.send t ~client:c v <> 2 * v then
                failwith "echo mismatch"
            done))
  in
  List.iter Domain.join clients;
  Domain.join server

let echo_exchange ?(messages = 500) ?(nclients = 2) waiting () =
  let t : (int, int) Rpc.t = Rpc.create ~nclients waiting in
  let server =
    Domain.spawn (fun () ->
        let remaining = ref (nclients * messages) in
        while !remaining > 0 do
          let client, v = Rpc.receive t in
          Rpc.reply t ~client (v * 2);
          decr remaining
        done)
  in
  let client c =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        for i = 1 to messages do
          let v = (c * 10_000_000) + i in
          if Rpc.send t ~client:c v <> 2 * v then incr bad
        done;
        !bad)
  in
  let clients = List.init nclients client in
  let bads = List.map Domain.join clients in
  Domain.join server;
  Alcotest.(check (list int))
    "all echoes correct"
    (List.init nclients (fun _ -> 0))
    bads;
  Alcotest.(check bool)
    (Printf.sprintf "wake residue bounded (%d)" (Rpc.wake_residue t))
    true
    (Rpc.wake_residue t <= nclients + 1)

let test_rpc_async () =
  let t : (int, int) Rpc.t = Rpc.create ~nclients:1 Rpc.Block in
  let batch = 50 in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to batch do
          let client, v = Rpc.receive t in
          Rpc.reply t ~client (v + 1)
        done)
  in
  let client =
    Domain.spawn (fun () ->
        for i = 1 to batch do
          Rpc.post t ~client:0 i
        done;
        let sum = ref 0 in
        for _ = 1 to batch do
          sum := !sum + Rpc.collect t ~client:0
        done;
        !sum)
  in
  let sum = Domain.join client in
  Domain.join server;
  Alcotest.(check int) "sum of replies" ((batch * (batch + 1) / 2) + batch) sum

let test_rpc_validation () =
  let t : (int, int) Rpc.t = Rpc.create ~nclients:2 Rpc.Block in
  Alcotest.(check int) "nclients" 2 (Rpc.nclients t);
  Alcotest.check_raises "bad client"
    (Invalid_argument "Real_substrate.reply_channel: no channel 9") (fun () ->
      ignore (Rpc.post t ~client:9 0));
  Alcotest.check_raises "bad client, synchronous"
    (Invalid_argument "Real_substrate.reply_channel: no channel 9") (fun () ->
      ignore (Rpc.send t ~client:9 0 : int));
  Alcotest.check_raises "bad nclients"
    (Invalid_argument "Rpc.create: nclients must be positive") (fun () ->
      ignore (Rpc.create ~nclients:0 Rpc.Block : (int, int) Rpc.t));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Rpc.create: capacity must be positive") (fun () ->
      ignore (Rpc.create ~capacity:0 ~nclients:1 Rpc.Block : (int, int) Rpc.t));
  Alcotest.check_raises "bad max_spin"
    (Invalid_argument "Rpc.create: max_spin must be non-negative") (fun () ->
      ignore (Rpc.create ~nclients:1 (Rpc.Limited_spin (-1)) : (int, int) Rpc.t))

let test_rpc_no_stale_wakeups waiting () =
  (* The C.4 drain (Rsem.try_p after a successful second dequeue) must
     absorb every wake-up raced against a non-sleeping consumer: after a
     blocking exchange fully quiesces, no semaphore may hold residue.
     Quiescence must also return every payload
     slot: a slab leak means a send/receive/reply path dropped a slot
     without releasing it. *)
  let t : (int, int) Rpc.t = Rpc.create ~nclients:2 waiting in
  echo_through t ~messages:300;
  Alcotest.(check int) "no stale V residue" 0 (Rpc.wake_residue t);
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

let test_rpc_zero_alloc_steady_state ~nservers () =
  (* The tentpole property: with immediate-int codecs, a steady-state
     synchronous round-trip allocates nothing
     on either side's minor heap — payload words through registers and
     ring cells.  minor_words is per-domain in OCaml 5, so each side
     reads its own: the client around the loop, the server between the
     two marker calls (-2 opens its window, -3 closes it) into a float
     array, which stores unboxed.  Each side's calibration pair
     subtracts what the Gc.minor_words calls themselves charge.  The
     server runs [serve] on shard 0, of a pool of 1 or of 2 (server 1
     never runs): a pooled receive must allocate no more than a single
     server's. *)
  let t : (int, int) Rpc.t =
    Rpc.create ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec ~nservers
      ~shard_assign:(fun _ -> 0) ~nclients:1 Rpc.Block
  in
  let server_words = Array.make 3 0.0 in
  let server =
    Domain.spawn (fun () ->
        (* Bind the handler once — a closure built inside the loop would
           be allocated per serve turn. *)
        let stop = ref false in
        let handler ~client:_ v =
          if v = -1 then stop := true
          else if v = -2 then begin
            server_words.(2) <- Gc.minor_words ();
            server_words.(2) <- Gc.minor_words () -. server_words.(2);
            server_words.(0) <- Gc.minor_words ()
          end
          else if v = -3 then server_words.(1) <- Gc.minor_words ();
          v + 1
        in
        while not !stop do
          Rpc.serve t handler
        done)
  in
  (* Warm-up runs any lazy initialisation on both sides. *)
  for i = 1 to 64 do
    if Rpc.call t ~client:0 i <> i + 1 then Alcotest.fail "echo mismatch"
  done;
  let calib =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let ops = 512 in
  ignore (Rpc.call t ~client:0 (-2) : int);
  let w0 = Gc.minor_words () in
  for i = 1 to ops do
    ignore (Rpc.call t ~client:0 i : int)
  done;
  let w1 = Gc.minor_words () in
  ignore (Rpc.call t ~client:0 (-3) : int);
  let per_op = (w1 -. w0 -. calib) /. float_of_int ops in
  ignore (Rpc.call t ~client:0 (-1) : int);
  Domain.join server;
  let server_per_op =
    (server_words.(1) -. server_words.(0) -. server_words.(2))
    /. float_of_int ops
  in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "client: 0 minor words per round-trip (got %g)" per_op)
    0.0 per_op;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "server (%d shards): 0 minor words per serve (got %g)"
       nservers server_per_op)
    0.0 server_per_op;
  Alcotest.(check int) "an int session never touches the slab" 0
    (Slab.high_water (Rpc.slab t))

let test_rpc_batch_alloc_pins () =
  (* The batch plane's allocation, pinned word-exactly with int codecs
     after warm-up, per burst of 8: the server's [reply_batch]
     allocates nothing, [receive_batch ~max:8] exactly its result (a
     cons cell and a pair per request, 6 words each), and
     [call_pipelined ~depth:8] and [collect_batch ~n:8] (after a
     [post_batch] of 8) exactly their 24-word reply lists.  Every
     window sits between two Gc.minor_words reads into a float array
     (unboxed stores) in the domain that allocates; the server measures
     every batch between the markers -2 and -3, which the client sends
     as plain calls. *)
  let t : (int, int) Rpc.t =
    Rpc.create ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec ~nclients:1
      Rpc.Block
  in
  let recv_words = ref 0 and recv_msgs = ref 0 and reply_words = ref 0 in
  let server =
    Domain.spawn (fun () ->
        let w = Array.make 5 0.0 in
        w.(0) <- Gc.minor_words ();
        w.(4) <- Gc.minor_words () -. w.(0);
        let stop = ref false and measuring = ref false in
        while not !stop do
          w.(0) <- Gc.minor_words ();
          let batch = Rpc.receive_batch t ~max:8 in
          w.(1) <- Gc.minor_words ();
          let reps = List.map (fun (c, v) -> (c, v + 1)) batch in
          w.(2) <- Gc.minor_words ();
          Rpc.reply_batch t reps;
          w.(3) <- Gc.minor_words ();
          if !measuring then begin
            recv_words :=
              !recv_words + int_of_float (w.(1) -. w.(0) -. w.(4));
            recv_msgs := !recv_msgs + List.length batch;
            reply_words :=
              !reply_words + int_of_float (w.(3) -. w.(2) -. w.(4))
          end;
          List.iter
            (fun (_, v) ->
              if v = -1 then stop := true
              else if v = -2 then measuring := true
              else if v = -3 then measuring := false)
            batch
        done)
  in
  let reqs = List.init 8 (fun i -> i) in
  let expect = List.map (fun v -> v + 1) reqs in
  for _ = 1 to 64 do
    if Rpc.call_pipelined t ~client:0 ~depth:8 reqs <> expect then
      Alcotest.fail "echo mismatch"
  done;
  let w = Array.make 4 0.0 in
  w.(0) <- Gc.minor_words ();
  w.(2) <- Gc.minor_words () -. w.(0);
  let bursts = 256 in
  ignore (Rpc.call t ~client:0 (-2) : int);
  w.(0) <- Gc.minor_words ();
  for _ = 1 to bursts do
    ignore (Rpc.call_pipelined t ~client:0 ~depth:8 reqs : int list)
  done;
  w.(1) <- Gc.minor_words ();
  let client_per_burst = (w.(1) -. w.(0) -. w.(2)) /. float_of_int bursts in
  for _ = 1 to bursts do
    Rpc.post_batch t ~client:0 reqs;
    w.(0) <- Gc.minor_words ();
    ignore (Rpc.collect_batch t ~client:0 ~n:8 : int list);
    w.(1) <- Gc.minor_words ();
    w.(3) <- w.(3) +. (w.(1) -. w.(0) -. w.(2))
  done;
  let collect_per_burst = w.(3) /. float_of_int bursts in
  ignore (Rpc.call t ~client:0 (-3) : int);
  ignore (Rpc.call t ~client:0 (-1) : int);
  Domain.join server;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "call_pipelined ~depth:8: its 24-word list (got %g)"
       client_per_burst)
    24.0 client_per_burst;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "collect_batch ~n:8: its 24-word list (got %g)"
       collect_per_burst)
    24.0 collect_per_burst;
  (* The -3 marker's batch is measured too: one more request. *)
  Alcotest.(check int) "every measured request was received"
    ((2 * 8 * bursts) + 1) !recv_msgs;
  Alcotest.(check int)
    (Printf.sprintf "receive_batch: 6 words per request (%d words, %d requests)"
       !recv_words !recv_msgs)
    (6 * !recv_msgs) !recv_words;
  Alcotest.(check int) "reply_batch: 0 words" 0 !reply_words

(* The back-off count lives in the loop that waits, so it restarts with
   every wait.  A BSS server left idle on an empty shard climbs the
   ladder to its park rung; once calls resume, each wait starts again
   at the bottom and a server answering within a few µs never parks.
   A count that carried over from the idle spell would park on every
   wait of the burst. *)
let test_rpc_ladder_restarts () =
  let t : (int, int) Rpc.t =
    Rpc.create ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec ~nclients:1
      Rpc.Spin
  in
  let server =
    Domain.spawn (fun () ->
        let stop = ref false in
        let handler ~client:_ v =
          if v < 0 then stop := true;
          v + 1
        in
        while not !stop do
          Rpc.serve t handler
        done)
  in
  ignore (Rpc.call t ~client:0 0 : int);
  let c = Rpc.counters t in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while c.Ulipc.Counters.backoff_sleeps = 0 && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  let idle_parks = c.Ulipc.Counters.backoff_sleeps in
  let rounds = 2_000 in
  for i = 1 to rounds do
    if Rpc.call t ~client:0 i <> i + 1 then Alcotest.fail "echo mismatch"
  done;
  let parks = c.Ulipc.Counters.backoff_sleeps - idle_parks in
  ignore (Rpc.call t ~client:0 (-1) : int);
  Domain.join server;
  Alcotest.(check bool)
    (Printf.sprintf "the idle server reached the park rung (%d parks)"
       idle_parks)
    true (idle_parks > 0);
  Alcotest.(check bool)
    (Printf.sprintf "then its waits restarted low: %d parks in %d calls" parks
       rounds)
    true
    (parks < rounds / 4)

(* The guard against BSS's pathology on an oversubscribed host, where a
   spinner that never gives its CPU away costs the peer a whole
   scheduler quantum per round trip (7.48 ms before any back-off).
   Meant for a run pinned to one CPU; each protocol's 500 round trips
   must finish within 2 s, ~100x what they take there. *)
let test_rpc_one_cpu_guard () =
  List.iter
    (fun (name, waiting) ->
      let t : (int, int) Rpc.t = Rpc.create ~nclients:1 waiting in
      let t0 = Unix.gettimeofday () in
      echo_through t ~messages:500;
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 500 round trips in %.3f s, under 2 s" name dt)
        true (dt < 2.0))
    [ ("BSS", Rpc.Spin); ("BSWY", Rpc.Block_yield) ]

let test_rpc_counters () =
  let messages = 200 in
  let nclients = 2 in
  let t : (int, int) Rpc.t = Rpc.create ~nclients Rpc.Block in
  echo_through t ~messages;
  let c = Rpc.counters t in
  let total = nclients * messages in
  (* sends/receives/replies are bumped by single writers per field
     (clients never race the server on the same field only for
     server-side ones); client-side sends race across 2 domains, so
     allow undercount but never overcount. *)
  Alcotest.(check int) "receives (single writer)" total
    c.Ulipc.Counters.receives;
  Alcotest.(check int) "replies (single writer)" total c.Ulipc.Counters.replies;
  Alcotest.(check bool) "sends bounded" true
    (c.Ulipc.Counters.sends > 0 && c.Ulipc.Counters.sends <= total);
  Alcotest.(check bool) "server wakeups bounded" true
    (c.Ulipc.Counters.server_wakeups <= total)

(* Batched server loop: receive_batch + reply_batch must be
   observationally identical to the one-at-a-time loop. *)
let test_rpc_batched_server ?(nclients = 2) waiting () =
  let messages = 300 in
  let t : (int, int) Rpc.t = Rpc.create ~nclients waiting in
  let server =
    Domain.spawn (fun () ->
        let remaining = ref (nclients * messages) in
        while !remaining > 0 do
          let batch = Rpc.receive_batch t ~max:16 in
          Rpc.reply_batch t (List.map (fun (c, v) -> (c, v * 2)) batch);
          remaining := !remaining - List.length batch
        done)
  in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            let bad = ref 0 in
            for i = 1 to messages do
              let v = (c * 10_000_000) + i in
              if Rpc.send t ~client:c v <> 2 * v then incr bad
            done;
            !bad))
  in
  let bads = List.map Domain.join clients in
  Domain.join server;
  Alcotest.(check (list int)) "all echoes correct"
    (List.init nclients (fun _ -> 0))
    bads

(* Differential: depth-k pipelining must produce exactly the replies of k
   sequential sends, in request order. *)
let test_rpc_pipelined_differential () =
  let messages = 200 in
  let t : (int, int) Rpc.t = Rpc.create ~nclients:1 Rpc.Block in
  let server =
    Domain.spawn (fun () ->
        let remaining = ref messages in
        while !remaining > 0 do
          let batch = Rpc.receive_batch t ~max:16 in
          Rpc.reply_batch t (List.map (fun (c, v) -> (c, v + 7)) batch);
          remaining := !remaining - List.length batch
        done)
  in
  let reqs = List.init messages (fun i -> i * 3) in
  let got =
    Domain.join
      (Domain.spawn (fun () -> Rpc.call_pipelined t ~client:0 ~depth:8 reqs))
  in
  Domain.join server;
  let expect = List.map (fun v -> v + 7) reqs in
  Alcotest.(check (list int)) "depth-8 = sequential sends" expect got

(* Every batch call in one domain, against queues deep enough never to
   block: runs longer than the 64-message reply span go out in chunks,
   interleaved clients keep their own FIFO order, and the consumers
   return the messages in order. *)
let test_rpc_batch_one_domain () =
  let t : (int, int) Rpc.t =
    Rpc.create ~capacity:128 ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
      ~nclients:2 Rpc.Block
  in
  let ints n = List.init n (fun i -> i) in
  Rpc.post_batch t ~client:1 (ints 100);
  Alcotest.(check (list (pair int int)))
    "receive_batch: the whole burst, in order"
    (List.map (fun v -> (1, v)) (ints 100))
    (Rpc.receive_batch t ~max:100);
  Rpc.reply_batch t
    ((0, -1) :: List.map (fun v -> (1, v)) (ints 100)
    @ List.map (fun v -> (0, v)) (ints 90));
  Alcotest.(check (list int)) "client 1: a 100-reply run, in order" (ints 100)
    (Rpc.collect_batch t ~client:1 ~n:100);
  Alcotest.(check (list int)) "client 0: both of its runs, in order"
    (-1 :: ints 90)
    (Rpc.collect_batch t ~client:0 ~n:91);
  Alcotest.(check (list int)) "collect_batch ~n:0" []
    (Rpc.collect_batch t ~client:0 ~n:0);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Rpc.collect_batch: negative n") (fun () ->
      ignore (Rpc.collect_batch t ~client:0 ~n:(-1)))

(* Every client's request cell [i] and reply cell [i] share a line, on
   a shard with two home clients, over two laps of the rings.  Each
   message's word is a sentinel, looked up in the arena after its
   enqueue; the two clients' lines are disjoint. *)
let test_rpc_call_on_one_line () =
  let capacity = 5 in
  let sub = Real_substrate.create ~capacity ~nclients:2 () in
  let a = Real_substrate.For_tests.arena sub in
  let find v =
    let rec go i =
      if i >= Word_arena.used_words a then
        Alcotest.failf "word %#x is not in the arena" v
      else if Word_arena.get a i = v then i
      else go (i + 1)
    in
    go 0
  in
  let line w = w / Word_arena.cache_line_words in
  let pass ch ~client v =
    Alcotest.(check bool) "enqueue" true
      (Real_substrate.enqueue_pair sub ch ~client ~word:v);
    let w = find v in
    let m =
      Real_substrate.dequeue sub
        (if ch == Real_substrate.reply_channel sub client then ch
         else Real_substrate.request_shard sub 0)
    in
    Alcotest.(check (pair int int))
      "dequeue" (client, v)
      (Real_substrate.register_client sub m, Real_substrate.register_word sub m);
    w
  in
  let lines =
    List.init 2 (fun c ->
        List.init
          (2 * Ring_layout.ceil_pow2 capacity)
          (fun i ->
            let v = 0x7e50000 + (c lsl 12) + (2 * i) in
            let req = pass (Real_substrate.request_lane sub c) ~client:c v
            and rep =
              pass (Real_substrate.reply_channel sub c) ~client:c (v + 1)
            in
            if line req <> line rep then
              Alcotest.failf
                "client %d, message %d: request word %d and reply word %d on \
                 lines %d and %d"
                c i req rep (line req) (line rep);
            line req))
  in
  match lines with
  | [ l0; l1 ] ->
    Alcotest.(check bool) "the clients' lines are disjoint" true
      (List.for_all (fun l -> not (List.mem l l1)) l0)
  | _ -> assert false

(* The server's scan cursor shares no cache line with any word that a
   producer reads or writes per call: the lanes' index lines, their
   cells and the shard semaphore's line.  A 2-client shard is driven by
   hand through what its calls do: both lanes filled until an enqueue
   fails (the producers re-read the consumer's index), each request's
   P.2 test-and-set and V, the server's scans, its C.2 clear, a P on a
   producer's credit and the C.5 set, and every reply.  Of all the
   arena words that changed, only the cursor may be on the cursor's
   line.  The scans also take the lanes in turn. *)
let test_scan_cursor_line () =
  let capacity = 4 in
  let sub = Real_substrate.create ~capacity ~nclients:2 () in
  let a = Real_substrate.For_tests.arena sub
  and shard = Real_substrate.request_shard sub 0
  and cursor = Real_substrate.For_tests.scan_cursor sub 0 in
  Alcotest.(check bool)
    "a shard with two lanes has a cursor" true (cursor >= 0);
  Alcotest.(check int)
    "a shard with one lane has none" (-1)
    (Real_substrate.For_tests.scan_cursor
       (Real_substrate.create ~capacity ~nclients:1 ())
       0);
  let before = Array.init (Word_arena.used_words a) (Word_arena.get a) in
  let request c v =
    let lane = Real_substrate.request_lane sub c in
    let ok = Real_substrate.enqueue_pair sub lane ~client:c ~word:v in
    if ok && not (Real_substrate.awake_test_and_set sub lane) then
      Real_substrate.sem_v sub lane;
    ok
  in
  let serve () =
    let m = Real_substrate.dequeue sub shard in
    Alcotest.(check bool) "a request" true (m <> Real_substrate.no_msg);
    let c = Real_substrate.register_client sub m in
    let reply = Real_substrate.reply_channel sub c in
    ignore
      (Real_substrate.enqueue_pair sub reply ~client:c
         ~word:(Real_substrate.register_word sub m)
        : bool);
    ignore (Real_substrate.dequeue sub reply : Real_substrate.msg);
    c
  in
  for round = 1 to 3 * capacity do
    for c = 0 to 1 do
      for j = 1 to capacity do
        Alcotest.(check bool) "room" true (request c ((round * 100) + j))
      done;
      Alcotest.(check bool) "a full lane" false (request c 0)
    done;
    let served = List.init (2 * capacity) (fun _ -> serve ()) in
    let first = List.hd served in
    Alcotest.(check (list int)) "the scans alternate"
      (List.init (2 * capacity) (fun i -> (first + i) land 1))
      served;
    (* The server sleeps: C.2, an empty C.3, a client's request and V,
       the P that takes it, C.5. *)
    Real_substrate.awake_clear sub shard;
    Alcotest.(check bool) "empty" true
      (Real_substrate.dequeue sub shard = Real_substrate.no_msg);
    Alcotest.(check bool) "room" true (request (round land 1) round);
    Real_substrate.sem_p sub shard;
    Real_substrate.awake_set sub shard;
    ignore (serve () : int)
  done;
  let line w = w / Word_arena.cache_line_words in
  Array.iteri
    (fun w v ->
      if w <> cursor && line w = line cursor && Word_arena.get a w <> v then
        Alcotest.failf "word %d, on the cursor's line %d, changed" w
          (line cursor))
    before;
  Alcotest.(check int) "no wake residue" 0 (Real_substrate.wake_residue sub)

(* A sweep of a shard's lanes takes each lane's messages as one run, in
   FIFO order, the lanes round robin from the lane after the one it
   took from last: a client's burst stays contiguous, so a batch server
   replies to it with one run.  The cursor starts on lane 0. *)
let test_sweep_runs () =
  let sub = Real_substrate.create ~capacity:4 ~nclients:3 () in
  let shard = Real_substrate.request_shard sub 0 in
  let sent = Array.make 3 0 in
  let post c n =
    for _ = 1 to n do
      sent.(c) <- sent.(c) + 1;
      Alcotest.(check bool)
        "room" true
        (Real_substrate.enqueue_pair sub
           (Real_substrate.request_lane sub c)
           ~client:c
           ~word:((100 * c) + sent.(c)))
    done
  in
  let buf = Array.make 20 (-1) in
  let sweep ~max =
    let k = Real_substrate.dequeue_many sub shard ~buf ~pos:1 ~max in
    List.init k (fun i ->
        let c = buf.(2 * (i + 1)) and w = buf.((2 * (i + 1)) + 1) in
        Alcotest.(check int) "the word's client" c (w / 100);
        w)
  in
  post 0 3;
  post 1 2;
  post 2 4;
  Alcotest.(check (list int))
    "lanes 1 and 2, up to max" [ 101; 102; 201; 202; 203 ] (sweep ~max:5);
  Alcotest.(check (list int)) "lane 0, then lane 2's rest" [ 1; 2; 3; 204 ]
    (sweep ~max:9);
  Alcotest.(check (list int)) "empty" [] (sweep ~max:9);
  post 1 1;
  post 0 2;
  Alcotest.(check (list int)) "from lane 0 again" [ 4; 5; 103 ] (sweep ~max:9);
  Alcotest.check_raises "negative max"
    (Invalid_argument "Mpsc_ring.dequeue_batch: negative max") (fun () ->
      ignore (sweep ~max:(-1)));
  Alcotest.check_raises "a span past the buffer"
    (Invalid_argument "Mpsc_ring.dequeue_batch: bad span") (fun () ->
      ignore (sweep ~max:10));
  Alcotest.check_raises "an empty span past the buffer"
    (Invalid_argument "Mpsc_ring.dequeue_batch: bad span") (fun () ->
      ignore (Real_substrate.dequeue_many sub shard ~buf ~pos:11 ~max:0))

let test_rpc_pipelined_validation () =
  let t : (int, int) Rpc.t = Rpc.create ~nclients:1 Rpc.Block in
  Alcotest.(check (list int)) "empty request list" []
    (Rpc.call_pipelined t ~client:0 ~depth:4 []);
  Alcotest.check_raises "bad depth"
    (Invalid_argument "Rpc.call_pipelined: depth must be positive") (fun () ->
      ignore (Rpc.call_pipelined t ~client:0 ~depth:0 [ 1 ]));
  Alcotest.check_raises "bad adaptive cap"
    (Invalid_argument "Rpc.create: adaptive spin cap must be non-negative")
    (fun () ->
      ignore (Rpc.create ~nclients:1 (Rpc.Adaptive (-1)) : (int, int) Rpc.t))

let suites =
  [
    ( "realipc.ring_layout",
      [ Alcotest.test_case "cell placement" `Quick test_cell_placement ] );
    ( "realipc.spsc_ring",
      [
        Alcotest.test_case "fifo" `Quick test_spsc_fifo;
        Alcotest.test_case "capacity boundary" `Quick test_spsc_capacity;
        Alcotest.test_case "wraparound at capacity 3" `Quick
          test_spsc_wraparound;
        Alcotest.test_case "rejects negative values" `Quick
          test_spsc_rejects_negative_value;
        Alcotest.test_case "concurrent 1p/1c transfer" `Quick
          test_spsc_concurrent_transfer;
        Alcotest.test_case "rejects non-positive capacity" `Quick
          test_spsc_rejects_nonpositive;
        QCheck_alcotest.to_alcotest
          (Ring_cases.prop_spsc_model ~name:"Spsc_ring matches a FIFO model"
             (fun ~capacity -> Spsc_ring.create ~capacity ()));
        QCheck_alcotest.to_alcotest prop_spsc_batch_model;
        Alcotest.test_case "batch validation + prefix boundary" `Quick
          test_batch_validation;
        Alcotest.test_case "batch concurrent 1p/1c transfer" `Quick
          test_spsc_batch_concurrent;
        Alcotest.test_case "one-word and pair messages share one fifo" `Quick
          test_spsc_mixed_words;
        Alcotest.test_case "is_empty and length track occupancy" `Quick
          (occupancy_case Spsc_ring.create Spsc_ring.enqueue Spsc_ring.dequeue
             Spsc_ring.is_empty Spsc_ring.length);
        Alcotest.test_case "two rings carved from one arena stay apart"
          `Quick
          (carved_apart_case Spsc_ring.arena_words Spsc_ring.carve
             Spsc_ring.enqueue Spsc_ring.dequeue Spsc_ring.nil);
        Alcotest.test_case "arena_words covers a carve at any offset" `Quick
          (arena_words_case Spsc_ring.arena_words Spsc_ring.carve
             Spsc_ring.enqueue Spsc_ring.dequeue);
      ]
      @ Ring_cases.stale_snapshot_cases "spsc"
          (fun ~capacity -> Spsc_ring.create ~capacity ())
          Spsc_ring.enqueue Spsc_ring.dequeue Spsc_ring.nil
      @ Ring_cases.torn_cases ~start:in_domains "spsc 1p/1c"
          Ring_cases.spsc_torn
      @ [
          Alcotest.test_case "arena_words covers a paired carve at any offset"
            `Quick
            (paired_arena_words_case
               ~second_lane_words:Spsc_ring.lane_arena_words
               Spsc_ring.carve_lane Spsc_ring.enqueue Spsc_ring.dequeue);
          QCheck_alcotest.to_alcotest
            (Ring_cases.prop_paired_model ~spsc:true
               ~name:"paired mpsc+spsc lanes match FIFO models" ());
        ]
      @ Ring_cases.paired_torn_cases ~start:in_domains
          "paired mpsc 2p + spsc 1p" );
    ( "realipc.slab",
      [
        QCheck_alcotest.to_alcotest prop_slab_model;
        Alcotest.test_case "exhaustion returns nil/None" `Quick
          test_slab_exhaustion;
        Alcotest.test_case "double release rejected" `Quick
          test_slab_double_release_rejected;
        Alcotest.test_case "4-domain no-aliasing stress" `Quick
          test_slab_no_aliasing_under_stress;
        Alcotest.test_case "rejects bad sizes" `Quick
          test_slab_rejects_bad_sizes;
      ] );
    ( "realipc.mpsc_ring",
      [
        Alcotest.test_case "capacity boundary + wraparound" `Quick
          test_mpsc_capacity;
        Alcotest.test_case "concurrent 4p/1c, no loss/dup" `Quick
          (mpsc_concurrent ~capacity:32 ~nproducers:4);
        Alcotest.test_case "rejects non-positive capacity" `Quick
          test_mpsc_rejects_nonpositive;
        QCheck_alcotest.to_alcotest
          (Ring_cases.prop_mpsc_model ~name:"Mpsc_ring matches a FIFO model"
             (fun ~capacity -> Mpsc_ring.create ~capacity ()));
        QCheck_alcotest.to_alcotest prop_mpsc_batch_model;
        Alcotest.test_case "concurrent batch 2p/1c, no loss/dup" `Quick
          test_mpsc_batch_concurrent;
        Alcotest.test_case "concurrent 2p/1c at capacity 3 (ring 4)" `Quick
          (mpsc_concurrent ~capacity:3 ~nproducers:2);
        Alcotest.test_case "concurrent 2p/1c at capacity 4 (ring 4)" `Quick
          (mpsc_concurrent ~capacity:4 ~nproducers:2);
        Alcotest.test_case "fifo" `Quick test_mpsc_fifo;
        Alcotest.test_case "rejects negative values" `Quick
          test_mpsc_rejects_negative_value;
        Alcotest.test_case "concurrent 1p/1c transfer" `Quick
          (mpsc_concurrent ~capacity:16 ~nproducers:1);
        Alcotest.test_case "is_empty and length track occupancy" `Quick
          (occupancy_case Mpsc_ring.create Mpsc_ring.enqueue Mpsc_ring.dequeue
             Mpsc_ring.is_empty Mpsc_ring.length);
        Alcotest.test_case "two rings carved from one arena stay apart"
          `Quick
          (carved_apart_case Mpsc_ring.arena_words Mpsc_ring.carve
             Mpsc_ring.enqueue Mpsc_ring.dequeue Mpsc_ring.nil);
        Alcotest.test_case "arena_words covers a carve at any offset" `Quick
          (arena_words_case Mpsc_ring.arena_words Mpsc_ring.carve
             Mpsc_ring.enqueue Mpsc_ring.dequeue);
      ]
      @ Ring_cases.stale_snapshot_cases "mpsc"
          (fun ~capacity -> Mpsc_ring.create ~capacity ())
          Mpsc_ring.enqueue Mpsc_ring.dequeue Mpsc_ring.nil
      @ Ring_cases.torn_cases ~start:in_domains "mpsc 2p/1c"
          Ring_cases.mpsc_torn
      @ [
          Alcotest.test_case "arena_words covers a paired carve at any offset"
            `Quick
            (paired_arena_words_case
               ~second_lane_words:Mpsc_ring.lane_arena_words
               Mpsc_ring.carve_lane Mpsc_ring.enqueue Mpsc_ring.dequeue);
          QCheck_alcotest.to_alcotest
            (Ring_cases.prop_paired_model ~spsc:false
               ~name:"paired mpsc+mpsc lanes match FIFO models" ());
        ] );
    ( "realipc.rsem",
      Sem_cases.cases ~spawn:in_domain ~within:within_domain ()
      @ [
        Alcotest.test_case "rejects negative" `Quick test_rsem_rejects_negative;
        Alcotest.test_case "try_p never blocks" `Quick
          test_rsem_try_p_never_blocks;
        Alcotest.test_case "V bursts 4-domain no-lost-wakeup stress" `Quick
          test_rsem_v_burst_no_lost_wakeup;
        Alcotest.test_case "try_p races P across domains" `Quick
          test_rsem_try_p_races_p;
        Alcotest.test_case "channel semaphores park at once" `Quick
          test_channel_sem_parks_at_once;
        Alcotest.test_case "grace catches a V a few us late" `Quick
          test_rsem_grace_catches_late_v;
        Alcotest.test_case "spin 0 parks at once" `Quick test_rsem_spin0_parks;
      ] );
    ( "realipc.grace",
      [
        Alcotest.test_case "exit rule (synthetic clock)" `Quick
          test_grace_stop_spinning;
        Alcotest.test_case "one CPU returns at once" `Quick
          test_grace_one_cpu_returns_at_once;
        Alcotest.test_case "await catches a message a few us late" `Quick
          test_await_catches_late_message;
        Alcotest.test_case "await on an empty channel gives up" `Quick
          test_await_empty_gives_up;
        Alcotest.test_case "await on 32 empty lanes lasts the grace" `Quick
          test_await_many_lanes_lasts_the_grace;
        Alcotest.test_case "back-off ladder rungs" `Quick test_ladder_rungs;
      ] );
    ( "realipc.rpc",
      [
        Alcotest.test_case "echo, spin (BSS)" `Quick
          (echo_exchange ~messages:50 Rpc.Spin);
        Alcotest.test_case "echo, spin (BSS, one client)" `Quick
          (echo_exchange ~messages:50 ~nclients:1 Rpc.Spin);
        Alcotest.test_case "echo, block (BSW)" `Quick (echo_exchange Rpc.Block);
        Alcotest.test_case "echo, block (BSW, 4 clients)" `Quick
          (echo_exchange ~nclients:4 Rpc.Block);
        Alcotest.test_case "echo, block+yield (BSWY)" `Quick
          (echo_exchange Rpc.Block_yield);
        Alcotest.test_case "echo, limited spin (BSLS)" `Quick
          (echo_exchange (Rpc.Limited_spin 100));
        Alcotest.test_case "echo, handoff" `Quick (echo_exchange Rpc.Handoff);
        Alcotest.test_case "echo, adaptive (ADAPT)" `Quick
          (echo_exchange (Rpc.Adaptive 4096));
        Alcotest.test_case "echo, adaptive (ADAPT, 4 clients)" `Quick
          (echo_exchange ~messages:200 ~nclients:4 (Rpc.Adaptive 4096));
        Alcotest.test_case "async post/collect" `Quick test_rpc_async;
        Alcotest.test_case "validation" `Quick test_rpc_validation;
        Alcotest.test_case
          "every client's request and reply cell i share a line" `Quick
          test_rpc_call_on_one_line;
        Alcotest.test_case
          "the scan cursor shares no line with a producer's words" `Quick
          test_scan_cursor_line;
        Alcotest.test_case "a sweep takes each lane's messages as one run"
          `Quick test_sweep_runs;
        Alcotest.test_case "no stale wake-ups (try_p drain, ring)" `Quick
          (test_rpc_no_stale_wakeups Rpc.Block);
        Alcotest.test_case "no stale wake-ups (try_p drain, BSWY)" `Quick
          (test_rpc_no_stale_wakeups Rpc.Block_yield);
        Alcotest.test_case "counters" `Quick test_rpc_counters;
        Alcotest.test_case "batched server (receive_batch/reply_batch, ring)"
          `Quick
          (test_rpc_batched_server (Rpc.Adaptive 4096));
        Alcotest.test_case
          "batched server (receive_batch/reply_batch, BSW, 4 clients)" `Quick
          (test_rpc_batched_server ~nclients:4 Rpc.Block);
        Alcotest.test_case "pipelined depth-8 = sequential (differential)"
          `Quick test_rpc_pipelined_differential;
        Alcotest.test_case "pipelined validation" `Quick
          test_rpc_pipelined_validation;
        Alcotest.test_case "zero-alloc steady-state round-trip" `Quick
          (test_rpc_zero_alloc_steady_state ~nservers:1);
        Alcotest.test_case "zero-alloc steady-state round-trip, pooled serve"
          `Quick
          (test_rpc_zero_alloc_steady_state ~nservers:2);
        Alcotest.test_case "batch plane allocation pins, int codec" `Quick
          (fun () ->
            within_domain ~timeout_s:20.0 "batch plane allocation pins"
              test_rpc_batch_alloc_pins);
        Alcotest.test_case "batch calls in one domain: chunks and order"
          `Quick (fun () ->
            within_domain ~timeout_s:20.0 "batch calls in one domain"
              test_rpc_batch_one_domain);
        Alcotest.test_case "BSS back-off restarts after an idle spell" `Quick
          test_rpc_ladder_restarts;
        Alcotest.test_case "BSS and BSWY 500 round trips under 2 s" `Quick
          test_rpc_one_cpu_guard;
      ]
      @ Rpc_cases.cases ~spawn:in_domain ~within:within_domain ()
      @ [
          Alcotest.test_case "batch lists, boxed codec" `Quick (fun () ->
              within_domain ~timeout_s:20.0 "batch lists, boxed codec"
                (Rpc_cases.batch_lists ~codec:(Rpc.boxed_codec ())
                   ~spawn:in_domain));
        ] );
  ]
