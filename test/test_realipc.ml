(* Tests for the real OCaml-5-domains implementation: the two-lock queue,
   the lock-free SPSC/MPSC ring transports, the Mutex/Condition semaphore,
   and the Send/Receive/Reply protocols over both transports. *)

open Ulipc_real

(* ------------------------------------------------------------------ *)
(* Tl_queue *)

let test_tlq_fifo () =
  let q = Tl_queue.create ~capacity:8 () in
  List.iter (fun v -> ignore (Tl_queue.enqueue q v : bool)) [ 1; 2; 3 ];
  (* bind in sequence: list literals evaluate right to left *)
  let a = Tl_queue.dequeue q in
  let b = Tl_queue.dequeue q in
  let c = Tl_queue.dequeue q in
  let d = Tl_queue.dequeue q in
  Alcotest.(check (list (option int)))
    "fifo then empty"
    [ Some 1; Some 2; Some 3; None ]
    [ a; b; c; d ]

let test_tlq_capacity () =
  let q = Tl_queue.create ~capacity:2 () in
  Alcotest.(check bool) "1st" true (Tl_queue.enqueue q 1);
  Alcotest.(check bool) "2nd" true (Tl_queue.enqueue q 2);
  Alcotest.(check bool) "3rd rejected" false (Tl_queue.enqueue q 3);
  ignore (Tl_queue.dequeue q : int option);
  Alcotest.(check bool) "room again" true (Tl_queue.enqueue q 4);
  Alcotest.(check int) "length" 2 (Tl_queue.length q)

let test_tlq_is_empty () =
  let q = Tl_queue.create ~capacity:4 () in
  Alcotest.(check bool) "empty" true (Tl_queue.is_empty q);
  ignore (Tl_queue.enqueue q 1 : bool);
  Alcotest.(check bool) "non-empty" false (Tl_queue.is_empty q)

let test_tlq_concurrent_transfer () =
  let q = Tl_queue.create ~capacity:32 () in
  let per_producer = 2_000 in
  let producer p () =
    for i = 1 to per_producer do
      while not (Tl_queue.enqueue q ((p * 1_000_000) + i)) do
        Domain.cpu_relax ()
      done
    done
  in
  let received = ref [] in
  let consumer () =
    let remaining = ref (2 * per_producer) in
    while !remaining > 0 do
      match Tl_queue.dequeue q with
      | Some v ->
        received := v :: !received;
        decr remaining
      | None -> Domain.cpu_relax ()
    done
  in
  let d1 = Domain.spawn (producer 1) in
  let d2 = Domain.spawn (producer 2) in
  let dc = Domain.spawn consumer in
  Domain.join d1;
  Domain.join d2;
  Domain.join dc;
  let received = List.rev !received in
  Alcotest.(check int) "no loss, no duplication" (2 * per_producer)
    (List.length (List.sort_uniq compare received));
  let ordered p =
    let mine = List.filter (fun v -> v / 1_000_000 = p) received in
    mine = List.sort compare mine
  in
  Alcotest.(check bool) "producer 1 fifo" true (ordered 1);
  Alcotest.(check bool) "producer 2 fifo" true (ordered 2)

let prop_tlq_model =
  QCheck.Test.make ~name:"Tl_queue matches a FIFO model" ~count:200
    QCheck.(list (option (int_bound 100)))
    (fun program ->
      let q = Tl_queue.create ~capacity:8 () in
      let model = Queue.create () in
      List.for_all
        (function
          | Some v ->
            let accepted = Tl_queue.enqueue q v in
            let model_accepts = Queue.length model < 8 in
            if model_accepts then Queue.add v model;
            accepted = model_accepts
          | None -> Tl_queue.dequeue q = Queue.take_opt model)
        program)

(* ------------------------------------------------------------------ *)
(* Spsc_ring: must be observationally identical to Tl_queue under one
   producer and one consumer — FIFO, exact capacity boundary, the nil
   sentinel when empty — including at non-power-of-two capacities, where
   the slot array is bigger than the logical bound. *)

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

(* The sentinel-returning dequeue against an option-returning model:
   [nil] must appear exactly when the model is empty. *)
let deq_matches_model dequeue nil q model =
  let got = dequeue q in
  match Queue.take_opt model with
  | Some v -> got = v
  | None -> got = nil

(* Capacities 1..9 put the full check at both boundaries: [cap = ring]
   (1, 2, 4, 8) and [cap < ring] (3, 5, 6, 7, 9), where the producer's
   snapshot of the consumer's index must be refreshed to report room. *)
let model_capacity = QCheck.int_range 1 9

(* Multipush against a model with an explicit pending buffer: a value is
   published (visible to [length]/[dequeue]) only by a flush that fits
   as a whole; the buffer auto-flushes at [min 8 cap]; a plain enqueue
   flushes first. *)
let spsc_op =
  QCheck.(
    frequency
      [
        (3, map (fun v -> `Enq v) (int_bound 100));
        (2, map (fun v -> `Local v) (int_bound 100));
        (1, always `Flush);
        (4, always `Deq);
      ])

let prop_spsc_model =
  QCheck.Test.make ~name:"Spsc_ring matches a FIFO model" ~count:300
    QCheck.(pair model_capacity (list spsc_op))
    (fun (cap, program) ->
      let q = Spsc_ring.create ~capacity:cap () in
      let model = Queue.create () and pending = Queue.create () in
      let mp_k = min 8 cap in
      let flush_model () =
        Queue.is_empty pending
        || Queue.length model + Queue.length pending <= cap
           && (Queue.transfer pending model;
               true)
      in
      let step = function
        | `Enq v ->
          let accepted = Spsc_ring.enqueue q v in
          let model_accepts =
            flush_model ()
            && Queue.length model < cap
            && (Queue.add v model;
                true)
          in
          accepted = model_accepts
        | `Local v ->
          let accepted = Spsc_ring.enqueue_local q v in
          let model_accepts =
            if Queue.length pending < mp_k then begin
              Queue.add v pending;
              if Queue.length pending = mp_k then ignore (flush_model () : bool);
              true
            end
            else
              flush_model ()
              && (Queue.add v pending;
                  true)
          in
          accepted = model_accepts
        | `Flush -> Spsc_ring.flush q = flush_model ()
        | `Deq -> deq_matches_model Spsc_ring.dequeue Spsc_ring.nil q model
      in
      List.for_all
        (fun op ->
          step op
          && Spsc_ring.pending_local q = Queue.length pending
          && Spsc_ring.length q = Queue.length model)
        program)

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

(* Multipush (Torquati): locally buffered values are invisible until a
   flush publishes them, publication is all-or-nothing, and FIFO order
   holds across mixed local/plain use. *)

let test_spsc_multipush_visibility () =
  let q = Spsc_ring.create ~capacity:16 () in
  Alcotest.(check bool) "buffered" true (Spsc_ring.enqueue_local q 1);
  Alcotest.(check bool) "buffered" true (Spsc_ring.enqueue_local q 2);
  Alcotest.(check int) "pending" 2 (Spsc_ring.pending_local q);
  Alcotest.(check bool) "invisible before flush" true (Spsc_ring.is_empty q);
  Alcotest.(check bool) "flush publishes" true (Spsc_ring.flush q);
  Alcotest.(check int) "pending drained" 0 (Spsc_ring.pending_local q);
  Alcotest.(check int) "first" 1 (Spsc_ring.dequeue q);
  Alcotest.(check int) "second" 2 (Spsc_ring.dequeue q);
  Alcotest.(check int) "empty" Spsc_ring.nil (Spsc_ring.dequeue q)

let test_spsc_multipush_autoflush () =
  (* The local buffer holds at most min 8 capacity: the 8th append must
     publish the whole span on its own. *)
  let q = Spsc_ring.create ~capacity:16 () in
  for v = 1 to 8 do
    Alcotest.(check bool) "accepted" true (Spsc_ring.enqueue_local q v)
  done;
  Alcotest.(check int) "auto-flushed" 0 (Spsc_ring.pending_local q);
  Alcotest.(check int) "published" 8 (Spsc_ring.length q);
  for v = 1 to 8 do
    Alcotest.(check int) "fifo" v (Spsc_ring.dequeue q)
  done

let test_spsc_multipush_mixed_fifo () =
  (* A plain enqueue must first flush leftovers so order is preserved. *)
  let q = Spsc_ring.create ~capacity:16 () in
  ignore (Spsc_ring.enqueue_local q 1 : bool);
  ignore (Spsc_ring.enqueue_local q 2 : bool);
  Alcotest.(check bool) "plain enqueue flushes first" true
    (Spsc_ring.enqueue q 3);
  (* bind in sequence: list literals evaluate right to left *)
  let a = Spsc_ring.dequeue q in
  let b = Spsc_ring.dequeue q in
  let c = Spsc_ring.dequeue q in
  Alcotest.(check (list int)) "fifo across mixed use" [ 1; 2; 3 ] [ a; b; c ]

let test_spsc_multipush_full () =
  (* All-or-nothing publication at the flow-control boundary. *)
  let q = Spsc_ring.create ~capacity:3 () in
  ignore (Spsc_ring.enqueue q 10 : bool);
  ignore (Spsc_ring.enqueue q 11 : bool);
  ignore (Spsc_ring.enqueue_local q 12 : bool);
  ignore (Spsc_ring.enqueue_local q 13 : bool);
  Alcotest.(check bool) "span of 2 does not fit in 1 slot" false
    (Spsc_ring.flush q);
  Alcotest.(check int) "span stays buffered" 2 (Spsc_ring.pending_local q);
  Alcotest.(check int) "room appears" 10 (Spsc_ring.dequeue q);
  Alcotest.(check bool) "now it fits" true (Spsc_ring.flush q);
  (* bind in sequence: list literals evaluate right to left *)
  let a = Spsc_ring.dequeue q in
  let b = Spsc_ring.dequeue q in
  let c = Spsc_ring.dequeue q in
  Alcotest.(check (list int)) "fifo preserved" [ 11; 12; 13 ] [ a; b; c ]

let test_spsc_multipush_concurrent_transfer () =
  (* The multipush producer against a batch consumer: same exact-FIFO
     guarantee as the plain transfer test. *)
  let q = Spsc_ring.create ~capacity:16 () in
  let n = 20_000 in
  let producer () =
    for i = 1 to n do
      while not (Spsc_ring.enqueue_local q i) do
        ignore (Spsc_ring.flush q : bool);
        Domain.cpu_relax ()
      done
    done;
    while not (Spsc_ring.flush q) do
      Domain.cpu_relax ()
    done
  in
  let consumer () =
    let buf = Array.make 8 0 in
    let next = ref 1 in
    let ok = ref true in
    while !next <= n do
      let k = Spsc_ring.dequeue_batch q buf ~pos:0 ~max:8 in
      if k = 0 then Domain.cpu_relax ()
      else
        for j = 0 to k - 1 do
          if buf.(j) <> !next then ok := false;
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

(* ------------------------------------------------------------------ *)
(* Mpsc_ring: Tl_queue semantics sequentially, and no loss, duplication
   or per-producer reordering under concurrent producers. *)

let prop_mpsc_model =
  QCheck.Test.make ~name:"Mpsc_ring matches a FIFO model" ~count:300
    QCheck.(pair model_capacity (list (option (int_bound 100))))
    (fun (cap, program) ->
      let q = Mpsc_ring.create ~capacity:cap () in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some v ->
            let accepted = Mpsc_ring.enqueue q v in
            let model_accepts = Queue.length model < cap in
            if model_accepts then Queue.add v model;
            accepted = model_accepts
          | None -> deq_matches_model Mpsc_ring.dequeue Mpsc_ring.nil q model)
          && Mpsc_ring.length q = Queue.length model)
        program)

(* The producer's snapshot of the consumer's index goes stale the moment
   the consumer moves: filled to [capacity] and drained by one, the ring
   has exactly one free slot, which only a refreshed snapshot can see.
   Run at [cap = ring] and [cap < ring]. *)
let stale_snapshot_case ~capacity create enqueue dequeue nil () =
  let q = create ~capacity () in
  for i = 1 to capacity do
    Alcotest.(check bool) "fill" true (enqueue q i)
  done;
  Alcotest.(check int) "drain one" 1 (dequeue q);
  Alcotest.(check bool) "the freed slot is seen" true (enqueue q 100);
  Alcotest.(check bool) "and then the ring is full" false (enqueue q 101);
  for i = 2 to capacity do
    Alcotest.(check int) "fifo" i (dequeue q)
  done;
  Alcotest.(check int) "last" 100 (dequeue q);
  Alcotest.(check int) "empty" nil (dequeue q)

let stale_snapshot_cases name create enqueue dequeue nil =
  List.map
    (fun capacity ->
      Alcotest.test_case
        (Printf.sprintf "%s stale snapshot at capacity %d" name capacity)
        `Quick
        (stale_snapshot_case ~capacity create enqueue dequeue nil))
    [ 4; 3 ]

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

(* ------------------------------------------------------------------ *)
(* Batch operations: on every transport, a batch must be observationally
   identical to n single ops — FIFO, no loss/duplication, exact capacity
   boundary (the accepted count is the model's free space, even when the
   batch straddles it). *)

let batch_program =
  QCheck.(
    list
      (oneof
         [
           map (fun vs -> `Enq vs) (list (int_bound 100));
           map (fun n -> `Deq n) (int_bound 12);
         ]))

let prop_batch_model name create enqueue_batch dequeue_batch =
  QCheck.Test.make ~name ~count:300
    QCheck.(pair model_capacity batch_program)
    (fun (cap, program) ->
      let q = create ~capacity:cap () in
      let model = Queue.create () in
      List.for_all
        (function
          | `Enq vs ->
            let k = enqueue_batch q vs in
            let expect = min (List.length vs) (cap - Queue.length model) in
            let rec add i = function
              | v :: rest when i < expect ->
                Queue.add v model;
                add (i + 1) rest
              | _ -> ()
            in
            add 0 vs;
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

(* The rings' batch seam is array spans; adapt it to the list shape the
   generic model drives (and Tl_queue still exposes natively). *)
let array_batch_ops enqueue_batch dequeue_batch =
  let enq q vs =
    let a = Array.of_list vs in
    enqueue_batch q a ~pos:0 ~len:(Array.length a)
  in
  let deq q ~max =
    let buf = Array.make (Stdlib.max max 1) Slab.nil in
    let k = dequeue_batch q buf ~pos:0 ~max in
    Array.to_list (Array.sub buf 0 k)
  in
  (enq, deq)

let prop_tlq_batch_model =
  prop_batch_model "Tl_queue batch ops match n single ops" Tl_queue.create
    Tl_queue.enqueue_batch Tl_queue.dequeue_batch

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
  let buf = Array.make 10 0 in
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
  Alcotest.check_raises "negative value in span"
    (Invalid_argument "Spsc_ring.enqueue_batch: negative value") (fun () ->
      ignore (Spsc_ring.enqueue_batch q [| 1; -2 |] ~pos:0 ~len:2 : int));
  Alcotest.(check int) "empty batch" 0 (Spsc_ring.enqueue_batch q [||] ~pos:0 ~len:0);
  (* Prefix semantics at the boundary: capacity 4, 2 occupied, a 5-batch
     accepts exactly 2. *)
  Alcotest.(check int) "fill 2" 2 (Spsc_ring.enqueue_batch q [| 1; 2 |] ~pos:0 ~len:2);
  Alcotest.(check int) "prefix at boundary" 2
    (Spsc_ring.enqueue_batch q [| 3; 4; 5; 6; 7 |] ~pos:0 ~len:5);
  Alcotest.(check int) "fifo across batches" 4
    (Spsc_ring.dequeue_batch q buf ~pos:0 ~max:10);
  Alcotest.(check (list int)) "fifo contents" [ 1; 2; 3; 4 ]
    (Array.to_list (Array.sub buf 0 4))

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
    let batch = Array.make 7 0 in
    let sent = ref 0 in
    while !sent < per_producer do
      let k = min (1 + (!sent mod 7)) (per_producer - !sent) in
      for i = 0 to k - 1 do
        batch.(i) <- (p * 1_000_000) + !sent + i + 1
      done;
      let accepted = Mpsc_ring.enqueue_batch q batch ~pos:0 ~len:k in
      if accepted = 0 then Domain.cpu_relax ();
      sent := !sent + accepted
    done
  in
  let received = ref [] in
  let consumer () =
    let buf = Array.make 8 0 in
    let remaining = ref (nproducers * per_producer) in
    while !remaining > 0 do
      match Mpsc_ring.dequeue_batch q buf ~pos:0 ~max:8 with
      | 0 -> Domain.cpu_relax ()
      | k ->
        for i = 0 to k - 1 do
          received := buf.(i) :: !received
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

(* ------------------------------------------------------------------ *)
(* Slab: the lock-free free-list behind the zero-copy message plane. *)

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

let test_slab_payload_roundtrip () =
  let s = Slab.create ~slots:4 () in
  let i = Slab.try_alloc s in
  Slab.set_client s i 3;
  Slab.set_tag s i 7;
  Slab.set_data s i 123456;
  Slab.set_aux s i (-9);
  Slab.set_arg s i 2.5;
  Alcotest.(check int) "client" 3 (Slab.get_client s i);
  Alcotest.(check int) "tag" 7 (Slab.get_tag s i);
  Alcotest.(check int) "data" 123456 (Slab.get_data s i);
  Alcotest.(check int) "aux" (-9) (Slab.get_aux s i);
  Alcotest.(check (float 0.0)) "arg" 2.5 (Slab.get_arg s i)

(* 4-domain stress: each domain brands every slot it allocates with a
   value unique to (domain, iteration), spins briefly, and verifies the
   brand before releasing.  If the free list ever hands the same slot to
   two domains (ABA or a lost CAS), a brand check fails; the final
   in_use_count confirms nothing leaked. *)
let test_slab_no_aliasing_under_stress () =
  let s = Slab.create ~slots:8 () in
  let ndomains = 4 in
  let iters = 20_000 in
  let worker d () =
    let ok = ref true in
    for k = 1 to iters do
      let i = Slab.try_alloc s in
      if i <> Slab.nil then begin
        let brand = (d * 100_000_000) + k in
        Slab.set_data s i brand;
        Slab.set_aux s i (lnot brand);
        Domain.cpu_relax ();
        if Slab.get_data s i <> brand || Slab.get_aux s i <> lnot brand then
          ok := false;
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
  Alcotest.(check int) "no leaked slots" 0 (Slab.in_use_count s)

let test_slab_rejects_bad_sizes () =
  Alcotest.check_raises "zero slots"
    (Invalid_argument "Slab.create: slots must be positive") (fun () ->
      ignore (Slab.create ~slots:0 () : Slab.t))

(* ------------------------------------------------------------------ *)
(* Rsem *)

let test_rsem_counting () =
  let s = Rsem.create 2 in
  Rsem.p s;
  Rsem.p s;
  Alcotest.(check int) "drained" 0 (Rsem.value s);
  Rsem.v s;
  Rsem.v s;
  Rsem.v s;
  Alcotest.(check int) "accumulates" 3 (Rsem.value s)

let test_rsem_pending_v_prevents_block () =
  (* Interleaving 1 of the paper: a V posted before the P must remain
     pending.  If it did not, this test would hang. *)
  let s = Rsem.create 0 in
  Rsem.v s;
  Rsem.p s;
  Alcotest.(check int) "consumed" 0 (Rsem.value s)

let test_rsem_blocks_until_v () =
  let s = Rsem.create 0 in
  let woke = Atomic.make false in
  let waiter =
    Domain.spawn (fun () ->
        Rsem.p s;
        Atomic.set woke true)
  in
  (* Give the waiter a chance to block, then wake it. *)
  Unix.sleepf 0.02;
  Alcotest.(check bool) "still blocked" false (Atomic.get woke);
  Rsem.v s;
  Domain.join waiter;
  Alcotest.(check bool) "woke after V" true (Atomic.get woke)

let test_rsem_rejects_negative () =
  Alcotest.check_raises "negative" (Invalid_argument "Rsem.create: negative initial count")
    (fun () -> ignore (Rsem.create (-1)))

let test_rsem_try_p () =
  let s = Rsem.create 2 in
  Alcotest.(check bool) "takes 1st" true (Rsem.try_p s);
  Alcotest.(check bool) "takes 2nd" true (Rsem.try_p s);
  Alcotest.(check bool) "refuses on zero" false (Rsem.try_p s);
  Alcotest.(check int) "count untouched by refusal" 0 (Rsem.value s);
  Rsem.v s;
  Alcotest.(check bool) "takes after V" true (Rsem.try_p s)

let test_rsem_try_p_never_blocks () =
  (* try_p on an empty semaphore must return, not wait: run it on this
     domain with no V anywhere in flight. *)
  let s = Rsem.create 0 in
  for _ = 1 to 1_000 do
    if Rsem.try_p s then Alcotest.fail "took from an empty semaphore"
  done;
  Alcotest.(check int) "still zero" 0 (Rsem.value s)

let test_rsem_v_n_counting () =
  let s = Rsem.create 0 in
  Rsem.v_n s 0;
  Alcotest.(check int) "v_n 0 is a no-op" 0 (Rsem.value s);
  Rsem.v_n s 5;
  Alcotest.(check int) "batched credits" 5 (Rsem.value s);
  for _ = 1 to 5 do
    Rsem.p s
  done;
  Alcotest.(check int) "all consumable" 0 (Rsem.value s);
  Alcotest.check_raises "negative n"
    (Invalid_argument "Rsem.v_n: negative credit count") (fun () ->
      Rsem.v_n s (-1))

let test_rsem_v_n_no_lost_wakeup () =
  (* 4-domain stress: 2 producers publish credits in batches of 1..7 via
     v_n, 2 consumers take them one P at a time.  Every credit must be
     consumed exactly once — a lost wake-up hangs a consumer (and the
     join), an invented one leaves value <> 0. *)
  let s = Rsem.create 0 in
  let per_side = 3_000 in
  let producer seed () =
    let sent = ref 0 in
    let k = ref seed in
    while !sent < per_side do
      let n = min (1 + (!k mod 7)) (per_side - !sent) in
      Rsem.v_n s n;
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

(* The folded word ([2*count + flag]) against a [(count, flag)] model:
   each operation's own result must match, and after every step [value]
   is the model count — never showing the flag — and [flag_get] the
   model flag.  A [P] runs only on a positive model count; on zero it
   would wait for a V nobody posts. *)
type rsem_op =
  | V
  | V_n of int
  | Try_p
  | P
  | Flag_tas
  | Flag_clear
  | Flag_set
  | Flag_get

let rsem_op_name = function
  | V -> "v"
  | V_n n -> Printf.sprintf "v_n %d" n
  | Try_p -> "try_p"
  | P -> "p"
  | Flag_tas -> "flag_test_and_set"
  | Flag_clear -> "flag_clear"
  | Flag_set -> "flag_set"
  | Flag_get -> "flag_get"

let prop_rsem_flag_model =
  let op =
    QCheck.Gen.(
      frequency
        [
          (3, return V);
          (2, map (fun n -> V_n n) (int_bound 4));
          (3, return Try_p);
          (3, return P);
          (2, return Flag_tas);
          (2, return Flag_clear);
          (1, return Flag_set);
          (1, return Flag_get);
        ])
  in
  let arb =
    QCheck.make
      QCheck.Gen.(pair (int_bound 3) (list op))
      ~print:(fun (init, ops) ->
        Printf.sprintf "create %d; %s" init
          (String.concat "; " (List.map rsem_op_name ops)))
  in
  QCheck.Test.make ~name:"Rsem count and flag bit match a (count, flag) model"
    ~count:300 arb (fun (init, ops) ->
      let s = Rsem.create init in
      let count = ref init and flag = ref false in
      let step = function
        | V ->
          Rsem.v s;
          incr count;
          true
        | V_n n ->
          Rsem.v_n s n;
          count := !count + n;
          true
        | Try_p ->
          let expect = !count > 0 in
          if expect then decr count;
          Rsem.try_p s = expect
        | P ->
          if !count > 0 then begin
            Rsem.p s;
            decr count
          end;
          true
        | Flag_tas ->
          let was = !flag in
          flag := true;
          Rsem.flag_test_and_set s = was
        | Flag_clear ->
          Rsem.flag_clear s;
          flag := false;
          true
        | Flag_set ->
          Rsem.flag_set s;
          flag := true;
          true
        | Flag_get -> Rsem.flag_get s = !flag
      in
      List.for_all
        (fun op -> step op && Rsem.value s = !count && Rsem.flag_get s = !flag)
        ops)

(* Two domains on one word: the toggler writes the flag (test-and-set,
   clear, set in turn) and posts one credit after each write; the taker
   takes each credit with a P and, every fourth round, runs a V/try_p
   pair of its own.  [~spin:0] makes every P that finds no credit commit
   at once, so flag CASes also land while the count is negative and the
   taker is parked.  No flag write may add or eat a credit and no V or
   P may change the flag: at quiescence the count is 0, every park was
   granted, and the flag is the toggler's last write. *)
let test_rsem_flag_vs_credits () =
  let s = Rsem.create ~spin:0 0 in
  let rounds = 20_000 in
  let toggler =
    Domain.spawn (fun () ->
        for i = 1 to rounds do
          (match i mod 3 with
          | 0 -> ignore (Rsem.flag_test_and_set s : bool)
          | 1 -> Rsem.flag_clear s
          | _ -> Rsem.flag_set s);
          Rsem.v s
        done)
  in
  let taker =
    Domain.spawn (fun () ->
        let missed = ref 0 in
        for i = 1 to rounds do
          Rsem.p s;
          if i mod 4 = 0 then begin
            Rsem.v s;
            if not (Rsem.try_p s) then incr missed
          end
        done;
        !missed)
  in
  Domain.join toggler;
  let missed = Domain.join taker in
  Alcotest.(check int) "own V always taken back by try_p" 0 missed;
  Alcotest.(check int) "credits balance" 0 (Rsem.value s);
  Alcotest.(check int) "nobody parked" 0 (Rsem.parked s);
  Alcotest.(check int) "every park granted" (Rsem.parks s) (Rsem.grants s);
  Alcotest.(check bool) "flag is the last write" (rounds mod 3 <> 1)
    (Rsem.flag_get s)

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
   Fails if any [await] cleared the flag or a message went astray. *)
let await_bursts sub ch ~delay_ns ~rounds ~timeout_s ok =
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
            ignore (Real_substrate.enqueue sub ch !next : bool);
            incr next
          end
        done)
  in
  let rec take () =
    let m = Real_substrate.dequeue sub ch in
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
      let m = Real_substrate.await sub ch in
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

let echo_exchange ?(messages = 500) ?transport waiting () =
  let nclients = 2 in
  let t : (int, int) Rpc.t = Rpc.create ?transport ~nclients waiting in
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
  Alcotest.(check (list int)) "all echoes correct" [ 0; 0 ] bads;
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
    (Invalid_argument "Rpc.reply_channel: no channel 9") (fun () ->
      ignore (Rpc.post t ~client:9 0));
  Alcotest.check_raises "bad nclients"
    (Invalid_argument "Rpc.create: nclients must be positive") (fun () ->
      ignore (Rpc.create ~nclients:0 Rpc.Block : (int, int) Rpc.t));
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Rpc.create: capacity must be positive") (fun () ->
      ignore (Rpc.create ~capacity:0 ~nclients:1 Rpc.Block : (int, int) Rpc.t));
  Alcotest.check_raises "bad max_spin"
    (Invalid_argument "Rpc.create: max_spin must be non-negative") (fun () ->
      ignore (Rpc.create ~nclients:1 (Rpc.Limited_spin (-1)) : (int, int) Rpc.t))

let test_rpc_no_stale_wakeups transport () =
  (* The C.4 drain (Rsem.try_p after a successful second dequeue) must
     absorb every wake-up raced against a non-sleeping consumer: after a
     blocking exchange fully quiesces, no semaphore may hold residue —
     on either transport.  Quiescence must also return every payload
     slot: a slab leak means a send/receive/reply path dropped a slot
     without releasing it. *)
  let t : (int, int) Rpc.t = Rpc.create ~transport ~nclients:2 Rpc.Block in
  echo_through t ~messages:300;
  Alcotest.(check int) "no stale V residue" 0 (Rpc.wake_residue t);
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

let test_rpc_zero_alloc_steady_state () =
  (* The tentpole property: with immediate-int codecs on the ring
     transport, a steady-state synchronous round-trip allocates nothing
     on the client's minor heap — indices through flat rings, payloads
     in flat slab fields.  minor_words is per-domain in OCaml 5, so the
     server's allocations (its domain spawn, its own warm-up) cannot
     contaminate the reading; the calibration pair subtracts what the
     Gc.minor_words calls themselves charge. *)
  let t : (int, int) Rpc.t =
    Rpc.create ~transport:Real_substrate.Ring ~req_codec:Rpc.int_codec
      ~rep_codec:Rpc.int_codec ~nclients:1 Rpc.Block
  in
  let server =
    Domain.spawn (fun () ->
        (* Bind the handler once — a closure built inside the loop would
           be allocated per serve turn (server-side, but keep the server
           turn zero-allocation too). *)
        let stop = ref false in
        let handler ~client:_ v =
          if v = -1 then stop := true;
          v + 1
        in
        while not !stop do
          Rpc.serve t handler
        done)
  in
  (* Warm-up faults in the domain-local backoff state and any lazy
     initialisation on both sides. *)
  for i = 1 to 64 do
    if Rpc.call t ~client:0 i <> i + 1 then Alcotest.fail "echo mismatch"
  done;
  let calib =
    let a = Gc.minor_words () in
    Gc.minor_words () -. a
  in
  let ops = 512 in
  let w0 = Gc.minor_words () in
  for i = 1 to ops do
    ignore (Rpc.call t ~client:0 i : int)
  done;
  let w1 = Gc.minor_words () in
  let per_op = (w1 -. w0 -. calib) /. float_of_int ops in
  ignore (Rpc.call t ~client:0 (-1) : int);
  Domain.join server;
  Alcotest.(check (float 0.0))
    (Printf.sprintf "0 minor words per round-trip (got %g)" per_op)
    0.0 per_op;
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

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
let test_rpc_batched_server transport () =
  let nclients = 2 in
  let messages = 300 in
  let t : (int, int) Rpc.t =
    Rpc.create ~transport ~nclients (Rpc.Adaptive 4096)
  in
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
  Alcotest.(check (list int)) "all echoes correct" [ 0; 0 ] bads

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
    ( "realipc.tl_queue",
      [
        Alcotest.test_case "fifo" `Quick test_tlq_fifo;
        Alcotest.test_case "capacity" `Quick test_tlq_capacity;
        Alcotest.test_case "is_empty" `Quick test_tlq_is_empty;
        Alcotest.test_case "concurrent transfer" `Quick
          test_tlq_concurrent_transfer;
        QCheck_alcotest.to_alcotest prop_tlq_model;
        QCheck_alcotest.to_alcotest prop_tlq_batch_model;
      ] );
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
        QCheck_alcotest.to_alcotest prop_spsc_model;
        QCheck_alcotest.to_alcotest prop_spsc_batch_model;
        Alcotest.test_case "batch validation + prefix boundary" `Quick
          test_batch_validation;
        Alcotest.test_case "multipush invisible until flush" `Quick
          test_spsc_multipush_visibility;
        Alcotest.test_case "multipush auto-flush at 8" `Quick
          test_spsc_multipush_autoflush;
        Alcotest.test_case "multipush mixed-use fifo" `Quick
          test_spsc_multipush_mixed_fifo;
        Alcotest.test_case "multipush all-or-nothing at full" `Quick
          test_spsc_multipush_full;
        Alcotest.test_case "multipush concurrent 1p/1c transfer" `Quick
          test_spsc_multipush_concurrent_transfer;
      ]
      @ stale_snapshot_cases "spsc" Spsc_ring.create Spsc_ring.enqueue
          Spsc_ring.dequeue Spsc_ring.nil );
    ( "realipc.slab",
      [
        QCheck_alcotest.to_alcotest prop_slab_model;
        Alcotest.test_case "exhaustion returns nil/None" `Quick
          test_slab_exhaustion;
        Alcotest.test_case "double release rejected" `Quick
          test_slab_double_release_rejected;
        Alcotest.test_case "payload field round-trip" `Quick
          test_slab_payload_roundtrip;
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
        QCheck_alcotest.to_alcotest prop_mpsc_model;
        QCheck_alcotest.to_alcotest prop_mpsc_batch_model;
        Alcotest.test_case "concurrent batch 2p/1c, no loss/dup" `Quick
          test_mpsc_batch_concurrent;
        Alcotest.test_case "concurrent 2p/1c at capacity 3 (ring 4)" `Quick
          (mpsc_concurrent ~capacity:3 ~nproducers:2);
        Alcotest.test_case "concurrent 2p/1c at capacity 4 (ring 4)" `Quick
          (mpsc_concurrent ~capacity:4 ~nproducers:2);
      ]
      @ stale_snapshot_cases "mpsc" Mpsc_ring.create Mpsc_ring.enqueue
          Mpsc_ring.dequeue Mpsc_ring.nil );
    ( "realipc.rsem",
      [
        Alcotest.test_case "counting" `Quick test_rsem_counting;
        Alcotest.test_case "pending V (Interleaving 1)" `Quick
          test_rsem_pending_v_prevents_block;
        Alcotest.test_case "blocks until V" `Quick test_rsem_blocks_until_v;
        Alcotest.test_case "rejects negative" `Quick test_rsem_rejects_negative;
        Alcotest.test_case "try_p counting" `Quick test_rsem_try_p;
        Alcotest.test_case "try_p never blocks" `Quick
          test_rsem_try_p_never_blocks;
        Alcotest.test_case "v_n counting + validation" `Quick
          test_rsem_v_n_counting;
        Alcotest.test_case "v_n 4-domain no-lost-wakeup stress" `Quick
          test_rsem_v_n_no_lost_wakeup;
        Alcotest.test_case "channel semaphores park at once" `Quick
          test_channel_sem_parks_at_once;
        Alcotest.test_case "grace catches a V a few us late" `Quick
          test_rsem_grace_catches_late_v;
        Alcotest.test_case "spin 0 parks at once" `Quick test_rsem_spin0_parks;
        QCheck_alcotest.to_alcotest prop_rsem_flag_model;
        Alcotest.test_case "flag writes race V/P, 2 domains" `Quick
          test_rsem_flag_vs_credits;
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
      ] );
    ( "realipc.rpc",
      [
        (* Spinning on an oversubscribed host costs an OS quantum per
           round-trip; keep the spin runs short.  The default transport is
           the ring; the two-lock variants pin the classic backend. *)
        Alcotest.test_case "echo, spin (BSS)" `Quick
          (echo_exchange ~messages:50 Rpc.Spin);
        Alcotest.test_case "echo, spin (BSS, two-lock)" `Quick
          (echo_exchange ~messages:50 ~transport:Real_substrate.Two_lock
             Rpc.Spin);
        Alcotest.test_case "echo, block (BSW)" `Quick (echo_exchange Rpc.Block);
        Alcotest.test_case "echo, block (BSW, two-lock)" `Quick
          (echo_exchange ~transport:Real_substrate.Two_lock Rpc.Block);
        Alcotest.test_case "echo, block+yield (BSWY)" `Quick
          (echo_exchange Rpc.Block_yield);
        Alcotest.test_case "echo, limited spin (BSLS)" `Quick
          (echo_exchange (Rpc.Limited_spin 100));
        Alcotest.test_case "echo, handoff" `Quick (echo_exchange Rpc.Handoff);
        Alcotest.test_case "echo, adaptive (ADAPT)" `Quick
          (echo_exchange (Rpc.Adaptive 4096));
        Alcotest.test_case "echo, adaptive (ADAPT, two-lock)" `Quick
          (echo_exchange ~transport:Real_substrate.Two_lock (Rpc.Adaptive 4096));
        Alcotest.test_case "async post/collect" `Quick test_rpc_async;
        Alcotest.test_case "validation" `Quick test_rpc_validation;
        Alcotest.test_case "no stale wake-ups (try_p drain, ring)" `Quick
          (test_rpc_no_stale_wakeups Real_substrate.Ring);
        Alcotest.test_case "no stale wake-ups (try_p drain, two-lock)" `Quick
          (test_rpc_no_stale_wakeups Real_substrate.Two_lock);
        Alcotest.test_case "counters" `Quick test_rpc_counters;
        Alcotest.test_case "batched server (receive_batch/reply_batch, ring)"
          `Quick
          (test_rpc_batched_server Real_substrate.Ring);
        Alcotest.test_case
          "batched server (receive_batch/reply_batch, two-lock)" `Quick
          (test_rpc_batched_server Real_substrate.Two_lock);
        Alcotest.test_case "pipelined depth-8 = sequential (differential)"
          `Quick test_rpc_pipelined_differential;
        Alcotest.test_case "pipelined validation" `Quick
          test_rpc_pipelined_validation;
        Alcotest.test_case "zero-alloc steady-state round-trip" `Quick
          test_rpc_zero_alloc_steady_state;
      ] );
  ]
