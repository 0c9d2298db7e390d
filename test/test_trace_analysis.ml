(* Tests for the unified trace pipeline: exact recovery of planted wake
   latencies and block durations from synthetic event streams, each
   invariant-checker violation triggered in isolation, end-to-end real
   and simulated runs coming back violation-free, and the Perfetto
   export parsing as real JSON. *)

open Ulipc_workload
module Event = Ulipc_observe.Event
module A = Ulipc_observe.Trace_analysis

let ev ~t ~actor ~seq ~chan kind =
  { Event.t_us = t; actor; seq; chan; kind }

let violation_strings (r : A.t) =
  List.map (Fmt.str "%a" A.pp_violation) r.A.violations

let check_clean what r =
  Alcotest.(check (list string)) (what ^ ": no violations") []
    (violation_strings r)

(* ------------------------------------------------------------------ *)
(* Exact recovery on synthetic streams *)

(* One planted episode on channel [c]: the consumer blocks at [t0], the
   producer enqueues [d1] later and wakes one tick after that, and the
   woken consumer dequeues [d2] after the wake.  The analysis must
   recover block duration [d1 + 1] and wake latency [d2] exactly. *)
let episode ~c ~t0 ~d1 ~d2 =
  let consumer = 100 + c and producer = 200 + c in
  [
    ev ~t:t0 ~actor:consumer ~seq:0 ~chan:c Event.Block;
    ev ~t:(t0 +. d1) ~actor:producer ~seq:0 ~chan:c Event.Enqueue;
    ev ~t:(t0 +. d1 +. 1.0) ~actor:producer ~seq:1 ~chan:c Event.Wake;
    ev ~t:(t0 +. d1 +. 1.0 +. d2) ~actor:consumer ~seq:1 ~chan:c Event.Dequeue;
  ]

let sorted_floats l = List.sort Float.compare l

let prop_exact_recovery =
  QCheck.Test.make ~name:"planted latencies recovered exactly" ~count:200
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 500) (int_range 0 500)))
    (fun delays ->
      (* Channel [c] gets its own actors and a disjoint time window, so
         episodes are independent; feeding the events newest-first
         checks that the analysis does its own causal sort. *)
      let events =
        List.concat
          (List.mapi
             (fun c (d1, d2) ->
               episode ~c ~t0:(float_of_int (c * 10_000))
                 ~d1:(float_of_int d1) ~d2:(float_of_int d2))
             delays)
        |> List.rev
      in
      let r = A.analyse ~complete:true events in
      let planted_blocks =
        sorted_floats (List.map (fun (d1, _) -> float_of_int d1 +. 1.0) delays)
      and planted_wakes =
        sorted_floats (List.map (fun (_, d2) -> float_of_int d2) delays)
      in
      r.A.violations = []
      && sorted_floats (List.map A.pair_us r.A.block_pairs) = planted_blocks
      && sorted_floats (List.map A.pair_us r.A.wake_pairs) = planted_wakes
      && r.A.blocks = List.length delays
      && r.A.wakes = List.length delays)

let test_raced_wake_recovery () =
  (* V before P: the wake banks a credit, the block consumes it
     immediately (duration clamps to 0) and the wake still pairs with
     the dequeue it enabled. *)
  let events =
    [
      ev ~t:0.0 ~actor:2 ~seq:0 ~chan:0 Event.Enqueue;
      ev ~t:1.0 ~actor:2 ~seq:1 ~chan:0 Event.Wake;
      ev ~t:2.0 ~actor:1 ~seq:0 ~chan:0 Event.Block;
      ev ~t:5.0 ~actor:1 ~seq:1 ~chan:0 Event.Dequeue;
    ]
  in
  let r = A.analyse ~complete:true events in
  check_clean "raced wake" r;
  Alcotest.(check int) "one wake pair" 1 (List.length r.A.wake_pairs);
  Alcotest.(check (float 1e-9)) "wake latency is wake->dequeue" 4.0
    (A.pair_us (List.hd r.A.wake_pairs));
  Alcotest.(check int) "one block pair" 1 (List.length r.A.block_pairs);
  Alcotest.(check (float 1e-9)) "raced block duration clamps to 0" 0.0
    (A.pair_us (List.hd r.A.block_pairs))

let test_wake_drain_balances () =
  (* The C.3' drain: the consumer never sleeps, absorbs the raced V with
     sem_try_p, and dequeues without a wake pair.  The credit algebra
     must balance — no Lost_wake, no wake-latency sample. *)
  let events =
    [
      ev ~t:0.0 ~actor:2 ~seq:0 ~chan:0 Event.Enqueue;
      ev ~t:1.0 ~actor:2 ~seq:1 ~chan:0 Event.Wake;
      ev ~t:2.0 ~actor:1 ~seq:0 ~chan:0 Event.Wake_drain;
      ev ~t:3.0 ~actor:1 ~seq:1 ~chan:0 Event.Dequeue;
    ]
  in
  let r = A.analyse ~complete:true events in
  check_clean "drained wake" r;
  Alcotest.(check int) "raced wakes counted" 1 r.A.raced_wakes;
  Alcotest.(check int) "no wake pair for a drained wake" 0
    (List.length r.A.wake_pairs)

(* ------------------------------------------------------------------ *)
(* Each violation, triggered in isolation *)

let kinds_of_violations (r : A.t) =
  List.map
    (function
      | A.Queue_underflow _ -> "underflow"
      | A.Orphan_block _ -> "orphan-block"
      | A.Lost_wake _ -> "lost-wake"
      | A.Drain_without_wake _ -> "drain-without-wake"
      | A.Wake_without_dequeue _ -> "wake-without-dequeue"
      | A.Non_monotonic_actor _ -> "non-monotonic"
      | A.Seq_gap _ -> "seq-gap")
    r.A.violations

let check_kinds what expected events =
  let r = A.analyse ~complete:true events in
  Alcotest.(check (list string)) what expected (kinds_of_violations r)

let test_violation_detection () =
  check_kinds "dequeue from an empty queue" [ "underflow" ]
    [ ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Dequeue ];
  check_kinds "block never woken" [ "orphan-block" ]
    [ ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Block ];
  check_kinds "wake never consumed" [ "lost-wake" ]
    [ ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Wake ];
  check_kinds "drain with no credit" [ "drain-without-wake" ]
    [ ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Wake_drain ];
  check_kinds "woken sleeper never dequeues" [ "wake-without-dequeue" ]
    [
      ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Block;
      ev ~t:1.0 ~actor:2 ~seq:0 ~chan:0 Event.Wake;
    ];
  check_kinds "actor clock steps backwards" [ "non-monotonic"; "lost-wake" ]
    [
      ev ~t:10.0 ~actor:1 ~seq:0 ~chan:0 Event.Enqueue;
      ev ~t:5.0 ~actor:1 ~seq:1 ~chan:0 Event.Wake;
    ];
  check_kinds "per-actor sequence hole" [ "seq-gap" ]
    [
      ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Enqueue;
      ev ~t:1.0 ~actor:1 ~seq:2 ~chan:0 Event.Dequeue;
    ]

(* A simulated trace: one planted episode whose actors' sequences also
   number kernel events.  The kernel events fill the sequence (dropping
   them first would open gaps), stay out of the pairing, may carry a
   stamp later than a protocol event recorded after them (a preemption
   inside an enqueue that was stamped when it began), and do not break
   a handoff's adjacency to the dequeue it bought. *)
let test_kernel_events_integrity_only () =
  let consumer = 1 and producer = 2 in
  let events =
    [
      ev ~t:0.0 ~actor:consumer ~seq:0 ~chan:0 Event.Block;
      ev ~t:0.0 ~actor:consumer ~seq:1 ~chan:2 Event.Syscall;
      ev ~t:0.0 ~actor:consumer ~seq:2 ~chan:2 Event.Sleep;
      ev ~t:1.0 ~actor:producer ~seq:0 ~chan:0 Event.Switch;
      ev ~t:7.0 ~actor:producer ~seq:1 ~chan:0 Event.Preempt;
      ev ~t:9.0 ~actor:producer ~seq:2 ~chan:0 Event.Switch;
      ev ~t:5.0 ~actor:producer ~seq:3 ~chan:0 Event.Enqueue;
      ev ~t:10.0 ~actor:producer ~seq:4 ~chan:0 Event.Wake;
      ev ~t:10.0 ~actor:producer ~seq:5 ~chan:3 Event.Syscall;
      ev ~t:11.0 ~actor:producer ~seq:6 ~chan:(-1) Event.Handoff;
      ev ~t:11.0 ~actor:producer ~seq:7 ~chan:1 Event.Syscall;
      ev ~t:12.0 ~actor:consumer ~seq:3 ~chan:0 Event.Switch;
      ev ~t:14.0 ~actor:consumer ~seq:4 ~chan:0 Event.Dequeue;
      ev ~t:15.0 ~actor:producer ~seq:8 ~chan:0 Event.Switch;
      ev ~t:16.0 ~actor:producer ~seq:9 ~chan:(-1) Event.Dequeue;
      ev ~t:16.0 ~actor:0 ~seq:0 ~chan:0 Event.Idle;
    ]
  in
  (* The producer's dequeue on the request channel needs an enqueue. *)
  let events =
    ev ~t:0.5 ~actor:3 ~seq:0 ~chan:(-1) Event.Enqueue :: events
  in
  let r = A.analyse ~complete:true events in
  check_clean "kernel events beside the protocol's" r;
  Alcotest.(check int) "every event counted" 17 r.A.events;
  Alcotest.(check (list int)) "protocol channels only" [ -1; 0 ]
    (List.map (fun (c : A.channel_report) -> c.A.chan) r.A.channels);
  Alcotest.(check (float 1e-9)) "wake latency" 4.0 r.A.wake_latency.A.p50_us;
  Alcotest.(check (float 1e-9)) "block duration" 10.0
    r.A.block_duration.A.p50_us;
  Alcotest.(check int) "the handoff was taken" 1 r.A.handoffs_taken;
  check_kinds "a kernel event's clock still must not run backwards"
    [ "non-monotonic" ]
    [
      ev ~t:5.0 ~actor:1 ~seq:0 ~chan:0 Event.Switch;
      ev ~t:4.0 ~actor:1 ~seq:1 ~chan:0 Event.Switch;
    ]

let test_truncated_trace_suppresses_end_checks () =
  (* A truncated ring legitimately loses the closing events; with
     [complete:false] the end-state checks (and underflow/drain, whose
     counterparts may have been overwritten) must not fire. *)
  let events =
    [
      ev ~t:0.0 ~actor:1 ~seq:0 ~chan:0 Event.Dequeue;
      ev ~t:1.0 ~actor:1 ~seq:1 ~chan:0 Event.Block;
      ev ~t:2.0 ~actor:1 ~seq:2 ~chan:0 Event.Wake_drain;
    ]
  in
  let r = A.analyse ~complete:false events in
  check_clean "truncated trace" r;
  Alcotest.(check bool) "report marked incomplete" false r.A.complete

(* ------------------------------------------------------------------ *)
(* End to end: both backends come back violation-free *)

let test_real_run_clean ?depth ?nservers (waiting, name) () =
  let events_out = ref [] and dropped_out = ref (-1) in
  let m =
    Real_driver.run ~peers:Domains ?depth ?nservers ~events_out ~dropped_out
      ~nclients:2 ~messages:100 waiting
  in
  Alcotest.(check int) "all messages echoed" 200 m.Metrics.messages;
  Alcotest.(check int) "nothing dropped" 0 !dropped_out;
  let r = A.analyse ~complete:true !events_out in
  check_clean name r;
  Alcotest.(check bool) "trace is non-trivial" true (r.A.events > 0)

(* A BSW echo whose server takes longer than the consumer grace: every
   client wait exhausts [await] on its reply channel and then blocks, so
   the client's own event stream shows a spin-exhaust right before each
   block — where it stopped waiting on the message and started the
   Figure 5 sequence — and the run stays violation-free. *)
let test_await_exhaust_before_block () =
  if Ulipc_real.Grace.default = 0 then Alcotest.skip ();
  let module Rpc = Ulipc_real.Rpc in
  let sink = Ulipc_real.Trace_ring.create ~capacity:4096 () in
  let t : (int, int) Rpc.t =
    Rpc.create ~trace:sink ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
      ~nclients:1 Rpc.Block
  in
  let calls = 20 in
  let slow_echo ~client:_ v =
    Unix.sleepf 200e-6;
    v + 1
  in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to calls do
          Rpc.serve t slow_echo
        done)
  in
  for i = 1 to calls do
    if Rpc.call t ~client:0 i <> i + 1 then Alcotest.fail "echo mismatch"
  done;
  Domain.join server;
  Alcotest.(check int) "nothing dropped" 0 (Ulipc_real.Trace_ring.dropped sink);
  let events = Ulipc_real.Trace_ring.events sink in
  check_clean "slow-server BSW" (A.analyse ~complete:true events);
  (* The reply channel of client 0 is channel 0; only its consumer, the
     client, blocks on it. *)
  let blocks =
    List.filter (fun e -> e.Event.chan = 0 && e.Event.kind = Event.Block) events
  in
  Alcotest.(check bool) "the client blocked" true (blocks <> []);
  let client = (List.hd blocks).Event.actor in
  let mine =
    List.filter (fun e -> e.Event.actor = client) events
    |> List.sort (fun a b -> compare a.Event.seq b.Event.seq)
  in
  let rec unannounced prev = function
    | [] -> 0
    | e :: rest ->
      let bad =
        e.Event.kind = Event.Block
        && not
             (match prev with
             | Some p -> p.Event.kind = Event.Spin_exhaust && p.Event.chan = 0
             | None -> false)
      in
      Bool.to_int bad + unannounced (Some e) rest
  in
  Alcotest.(check int) "every block follows a spin-exhaust" 0
    (unannounced None mine)

(* [p50]/[p99] are the wake latencies this run reported before the
   kernel recorded into the same ring: its events join the per-actor
   sequences but not the causal pairing, so the figures hold. *)
let test_sim_run_clean machine ~p50 ~p99 () =
  let ring = Ulipc_observe.Trace_ring.create ~capacity:65536 () in
  let m =
    Driver.run
      (Driver.config ~events:ring ~machine ~kind:Ulipc.Protocol_kind.BSW
         ~nclients:3 ~messages_per_client:50 ())
  in
  Alcotest.(check int) "all messages echoed" 150 m.Metrics.messages;
  Alcotest.(check int) "nothing dropped" 0
    (Ulipc_observe.Trace_ring.dropped ring);
  let r = A.analyse ~complete:true (Ulipc_observe.Trace_ring.events ring) in
  check_clean (machine.Ulipc_machines.Machine.name ^ " BSW") r;
  Alcotest.(check bool) "simulated run blocked at least once" true
    (r.A.blocks > 0);
  (* The driver distils the same trace into the metrics row. *)
  Alcotest.(check (float 1e-6)) "wake p50 (us)" p50 m.Metrics.wake_latency_p50_us;
  Alcotest.(check (float 1e-6)) "wake p99 (us)" p99 m.Metrics.wake_latency_p99_us;
  Alcotest.(check (float 1e-6)) "analysis p50 = Metrics p50"
    m.Metrics.wake_latency_p50_us r.A.wake_latency.A.p50_us;
  let kernel_events =
    List.filter
      (fun e -> not (Event.is_protocol e.Event.kind))
      (Ulipc_observe.Trace_ring.events ring)
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Event.kind_name kind ^ " events in the ring")
        true
        (List.exists (fun e -> e.Event.kind = kind) kernel_events))
    Event.[ Spawn; Switch; Syscall; Sleep; Exit ]

(* ------------------------------------------------------------------ *)
(* Perfetto export parses as real JSON *)

let test_perfetto_export () =
  let events =
    List.concat
      [
        episode ~c:0 ~t0:0.0 ~d1:3.0 ~d2:2.0;
        episode ~c:1 ~t0:100.0 ~d1:1.0 ~d2:7.0;
      ]
  in
  let r = A.analyse ~complete:true events in
  let path = Filename.temp_file "ulipc_trace" ".json" in
  Ulipc_observe.Perfetto.write ~process_name:"test \"quoted\"" ~report:r ~path
    events;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let module J = Ulipc_observe.Json_min in
  let j =
    match J.parse_result contents with
    | Ok v -> v
    | Error msg -> Alcotest.failf "perfetto json: %s" msg
  in
  match J.member_opt "traceEvents" j with
  | Some (J.Arr records) ->
    (* 1 process + 4 thread metadata records, 8 instants, 2 slices and
       2 flow pairs. *)
    Alcotest.(check int) "record count" 19 (List.length records);
    let phases =
      List.filter_map
        (fun rec_ ->
          match J.member_opt "ph" rec_ with Some (J.Str p) -> Some p | _ -> None)
      records
    in
    Alcotest.(check int) "all records carry a phase" (List.length records)
      (List.length phases);
    List.iter
      (fun ph ->
        Alcotest.(check bool) ("known phase " ^ ph) true
          (List.mem ph [ "M"; "i"; "X"; "s"; "f" ]))
      phases;
    List.iter
      (fun rec_ ->
        match J.member_opt "ts" rec_ with
        | Some (J.Num ts) ->
          Alcotest.(check bool) "timestamps normalised to >= 0" true (ts >= 0.0)
        | Some _ -> Alcotest.fail "ts is not a number"
        | None -> ())
      records
  | _ -> Alcotest.fail "traceEvents missing or not an array"

(* ------------------------------------------------------------------ *)

let real_protocols =
  [
    (Ulipc_real.Rpc.Block, "BSW");
    (Ulipc_real.Rpc.Block_yield, "BSWY");
    (Ulipc_real.Rpc.Limited_spin 50, "BSLS 50");
    (Ulipc_real.Rpc.Adaptive 4096, "ADAPT 4096");
  ]

let suites =
  [
    ( "observe.trace_analysis",
      [
        QCheck_alcotest.to_alcotest prop_exact_recovery;
        Alcotest.test_case "raced wake pairs via the credit bank" `Quick
          test_raced_wake_recovery;
        Alcotest.test_case "drained wake balances the algebra" `Quick
          test_wake_drain_balances;
        Alcotest.test_case "each violation detected in isolation" `Quick
          test_violation_detection;
        Alcotest.test_case "truncated trace suppresses end checks" `Quick
          test_truncated_trace_suppresses_end_checks;
        Alcotest.test_case "kernel events: integrity checks only" `Quick
          test_kernel_events_integrity_only;
      ] );
    ( "observe.end_to_end",
      List.map
        (fun (waiting, name) ->
          Alcotest.test_case
            (Printf.sprintf "%s clean (ring)" name)
            `Quick
            (test_real_run_clean (waiting, name)))
        real_protocols
      @ [
          Alcotest.test_case "handoff clean (ring)" `Quick
            (test_real_run_clean (Ulipc_real.Rpc.Handoff, "handoff"));
          Alcotest.test_case "BSLS 0 clean (ring)" `Quick
            (test_real_run_clean (Ulipc_real.Rpc.Limited_spin 0, "BSLS 0"));
          Alcotest.test_case "BSW clean (ring, 2 servers)" `Quick
            (test_real_run_clean ~nservers:2 (Ulipc_real.Rpc.Block, "BSW"));
          Alcotest.test_case "BSW clean (ring, depth 4)" `Quick
            (test_real_run_clean ~depth:4 (Ulipc_real.Rpc.Block, "BSW"));
          Alcotest.test_case "simulated BSW clean (uniprocessor)" `Quick
            (test_sim_run_clean Ulipc_machines.Sgi_indy.machine ~p50:55.65
               ~p99:249.8);
          Alcotest.test_case "simulated BSW clean (multiprocessor)" `Quick
            (test_sim_run_clean Ulipc_machines.Sgi_challenge.machine
               ~p50:37.65 ~p99:51.65);
          Alcotest.test_case "BSW slow server: spin-exhaust before block"
            `Quick test_await_exhaust_before_block;
        ] );
    ( "observe.perfetto",
      [ Alcotest.test_case "export parses as JSON" `Quick test_perfetto_export ]
    );
  ]
