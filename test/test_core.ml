(* Tests for the user-level IPC core: message format, sessions, the five
   protocols, the asynchronous extension, the ablation variants and the
   overload throttle. *)

open Ulipc_engine
open Ulipc_os
open Ulipc_workload

let sgi = Ulipc_machines.Sgi_indy.machine
let ibm = Ulipc_machines.Ibm_p4.machine
let challenge = Ulipc_machines.Sgi_challenge.machine

(* ------------------------------------------------------------------ *)
(* Message *)

let test_message_roundtrip () =
  let m = Ulipc.Message.make ~opcode:Echo ~reply_chan:3 ~seq:7 1.5 in
  let r = Ulipc.Message.echo_reply m in
  Alcotest.(check bool) "reply equals request" true (Ulipc.Message.equal m r);
  Alcotest.(check int) "reply chan kept" 3 r.Ulipc.Message.reply_chan

let test_message_opcode_equal () =
  let open Ulipc.Message in
  Alcotest.(check bool) "custom equal" true (opcode_equal (Custom 2) (Custom 2));
  Alcotest.(check bool) "custom differs" false (opcode_equal (Custom 2) (Custom 3));
  Alcotest.(check bool) "connect vs echo" false (opcode_equal Connect Echo)

let test_counters_add_reset () =
  let a = Ulipc.Counters.create () in
  let b = Ulipc.Counters.create () in
  a.Ulipc.Counters.sends <- 3;
  b.Ulipc.Counters.sends <- 4;
  b.Ulipc.Counters.race_fix_p <- 2;
  Ulipc.Counters.add a b;
  Alcotest.(check int) "sends summed" 7 a.Ulipc.Counters.sends;
  Alcotest.(check int) "race fixes summed" 2 a.Ulipc.Counters.race_fix_p;
  Ulipc.Counters.reset a;
  Alcotest.(check int) "reset" 0 a.Ulipc.Counters.sends

(* The record's field order is a cache layout (counters.ml): every field
   a client bumps per message must sit at least 8 words, one 64-byte
   line, from every field a server bumps per message, whatever the
   record's alignment.  Each field's word index is found by setting it
   alone in a fresh record and looking for the value. *)
let test_counters_layout () =
  let open Ulipc.Counters in
  let index (name, set) =
    let c = create () in
    set c 0x5eed;
    let r = Obj.repr c in
    let rec find i =
      if i >= Obj.size r then Alcotest.failf "field %s not found" name
      else if Obj.field r i = Obj.repr 0x5eed then i
      else find (i + 1)
    in
    (name, find 0)
  in
  let client =
    List.map index
      [
        ("sends", fun c v -> c.sends <- v);
        ("client_blocks", fun c v -> c.client_blocks <- v);
        ("server_wakeups", fun c v -> c.server_wakeups <- v);
        ("spin_iterations", fun c v -> c.spin_iterations <- v);
        ("spin_fallthroughs", fun c v -> c.spin_fallthroughs <- v);
      ]
  and server =
    List.map index
      [
        ("receives", fun c v -> c.receives <- v);
        ("replies", fun c v -> c.replies <- v);
        ("server_blocks", fun c v -> c.server_blocks <- v);
        ("client_wakeups", fun c v -> c.client_wakeups <- v);
        ("race_fix_p", fun c v -> c.race_fix_p <- v);
        ("server_spin_iterations", fun c v -> c.server_spin_iterations <- v);
        ("server_spin_fallthroughs", fun c v -> c.server_spin_fallthroughs <- v);
      ]
  in
  List.iter
    (fun (cn, ci) ->
      List.iter
        (fun (sn, si) ->
          if abs (si - ci) < 8 then
            Alcotest.failf "%s (word %d) and %s (word %d) are %d words apart"
              cn ci sn si
              (abs (si - ci)))
        server)
    client

(* ------------------------------------------------------------------ *)
(* Session *)

let make_session ?(nclients = 2) ?(kind = Ulipc.Protocol_kind.BSW) () =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_fixed.create Sched_fixed.default_params)
      ~costs:Costs.default ()
  in
  ( kernel,
    Ulipc.Session.create ~kernel ~costs:Costs.default ~multiprocessor:false
      ~kind ~nclients ~capacity:8 () )

let test_session_validation () =
  let _, session = make_session () in
  Alcotest.(check int) "nclients" 2 (Ulipc.Session.nclients session);
  Alcotest.check_raises "bad channel"
    (Invalid_argument "Session.reply_channel: no channel 5") (fun () ->
      ignore (Ulipc.Session.reply_channel session 5));
  Alcotest.check_raises "bad nclients"
    (Invalid_argument "Session.create: nclients must be positive") (fun () ->
      ignore (make_session ~nclients:0 ()));
  Alcotest.check_raises "bad max_spin"
    (Invalid_argument "Session.create: max_spin must be non-negative")
    (fun () ->
      ignore (make_session ~kind:(Ulipc.Protocol_kind.BSLS (-1)) ()))

let test_session_mtype () =
  Alcotest.(check int) "mtype positive" 1 (Ulipc.Session.sysv_reply_mtype ~client:0);
  Alcotest.(check int) "mtype distinct" 4 (Ulipc.Session.sysv_reply_mtype ~client:3)

(* ------------------------------------------------------------------ *)
(* Every protocol passes the echo workload on both machine classes. *)

let all_protocols =
  Ulipc.Protocol_kind.
    [ BSS; BSW; BSWY; BSLS 5; BSLS 20; SYSV; HANDOFF; CSEM ]

let echo_test machine kind () =
  let nclients = 3 and messages = 150 in
  let m =
    Driver.run
      (Driver.config ~machine ~kind ~nclients ~messages_per_client:messages ())
  in
  Alcotest.(check int) "all messages echoed" (nclients * messages)
    m.Metrics.messages;
  let c = m.Metrics.counters in
  (* Connects and disconnects also go through Send/Receive/Reply. *)
  let expected = (nclients * messages) + (2 * nclients) in
  Alcotest.(check int) "sends" expected c.Ulipc.Counters.sends;
  Alcotest.(check int) "receives" expected c.Ulipc.Counters.receives;
  Alcotest.(check int) "replies" expected c.Ulipc.Counters.replies

let protocol_cases machine tag =
  List.map
    (fun kind ->
      Alcotest.test_case
        (Printf.sprintf "%s echo on %s" (Ulipc.Protocol_kind.name kind) tag)
        `Quick (echo_test machine kind))
    all_protocols

(* Single client, single message: the degenerate case every protocol must
   also handle (connect, one echo, disconnect). *)
let test_single_message () =
  List.iter
    (fun kind ->
      let m =
        Driver.run
          (Driver.config ~machine:sgi ~kind ~nclients:1 ~messages_per_client:1 ())
      in
      Alcotest.(check int)
        (Ulipc.Protocol_kind.name kind ^ " one message")
        1 m.Metrics.messages)
    all_protocols

(* Zero echo messages: connect + disconnect only. *)
let test_zero_messages () =
  List.iter
    (fun kind ->
      let m =
        Driver.run
          (Driver.config ~machine:sgi ~kind ~nclients:2 ~messages_per_client:0 ())
      in
      Alcotest.(check int)
        (Ulipc.Protocol_kind.name kind ^ " zero messages")
        0 m.Metrics.messages)
    all_protocols

(* The blocking protocols actually block: with one slow client the server
   must sleep rather than burn the CPU. *)
let test_bsw_blocks_when_idle () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:1
         ~messages_per_client:50
         ~client_think:(Sim_time.ms 1) ())
  in
  let c = m.Metrics.counters in
  Alcotest.(check bool)
    (Printf.sprintf "server slept (%d blocks)" c.Ulipc.Counters.server_blocks)
    true
    (c.Ulipc.Counters.server_blocks >= 45);
  (* The server sleeps through the clients' think time, so its CPU use is
     a small fraction of the elapsed time. *)
  Alcotest.(check bool)
    "blocking saves server CPU (cpu << elapsed)" true
    (float_of_int m.Metrics.server_usage.Syscall.cpu_time
    < 0.5 *. float_of_int m.Metrics.elapsed)

(* BSS by contrast never blocks and consumes the whole machine. *)
let test_bss_burns_cpu () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS ~nclients:1
         ~messages_per_client:50
         ~client_think:(Sim_time.us 100) ())
  in
  let c = m.Metrics.counters in
  Alcotest.(check int) "no blocks" 0
    (c.Ulipc.Counters.server_blocks + c.Ulipc.Counters.client_blocks)

(* Queue-full flow control: a tiny queue forces the one-second sleep. *)
let test_queue_full_sleep () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:4
         ~messages_per_client:30 ~capacity:1 ())
  in
  Alcotest.(check int) "completed despite tiny queue" 120 m.Metrics.messages;
  Alcotest.(check bool)
    (Printf.sprintf "flow-control sleeps happened (%d)"
       m.Metrics.counters.Ulipc.Counters.queue_full_sleeps)
    true
    (m.Metrics.counters.Ulipc.Counters.queue_full_sleeps > 0)

(* ------------------------------------------------------------------ *)
(* Asynchronous extension *)

let test_async_batch () =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false ~kind:Ulipc.Protocol_kind.BSW ~nclients:1
      ~capacity:16 ()
  in
  let batch = 10 in
  let got = ref [] in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        for _ = 1 to batch do
          let m = Ulipc.Dispatch.receive session in
          Ulipc.Dispatch.reply session ~client:m.Ulipc.Message.reply_chan
            (Ulipc.Message.echo_reply m)
        done)
  in
  let _client =
    Kernel.spawn kernel ~name:"client" (fun () ->
        let requests =
          List.init batch (fun i ->
              Ulipc.Message.make ~opcode:Echo ~reply_chan:0 ~seq:i
                (float_of_int i))
        in
        let replies = Ulipc.Async.call_batch session ~client:0 requests in
        got := List.map (fun (m : Ulipc.Message.t) -> m.Ulipc.Message.seq) replies)
  in
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "async run: %a" Kernel.pp_result r);
  Alcotest.(check (list int))
    "replies in order" (List.init batch Fun.id) !got

let test_async_try_collect () =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_fixed.create Sched_fixed.default_params)
      ~costs:Costs.default ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Costs.default ~multiprocessor:false
      ~kind:Ulipc.Protocol_kind.BSW ~nclients:1 ~capacity:8 ()
  in
  let observed_empty = ref false in
  let collected = ref (-1) in
  let _client =
    Kernel.spawn kernel ~name:"client" (fun () ->
        observed_empty := Ulipc.Async.try_collect session ~client:0 = None;
        Ulipc.Async.post session ~client:0
          (Ulipc.Message.make ~opcode:Echo ~reply_chan:0 ~seq:5 0.0);
        let m = Ulipc.Dispatch.receive session in
        Ulipc.Dispatch.reply session ~client:0 (Ulipc.Message.echo_reply m);
        match Ulipc.Async.try_collect session ~client:0 with
        | Some r -> collected := r.Ulipc.Message.seq
        | None -> ())
  in
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "run: %a" Kernel.pp_result r);
  Alcotest.(check bool) "initially empty" true !observed_empty;
  Alcotest.(check int) "collected own echo" 5 !collected

(* ------------------------------------------------------------------ *)
(* Race repairs and ablations *)

(* An adversarial cost model that widens the consumer's C.1->C.2 window
   past the producer's publish->tas path, so the Figure 4 interleavings
   occur constantly. *)
let racy_machine =
  let costs =
    { challenge.Ulipc_machines.Machine.costs with flag_write = Sim_time.us 20 }
  in
  { challenge with costs }

let test_correct_bsw_survives_races () =
  let o =
    Driver.run_outcome
      (Driver.config ~machine:racy_machine ~kind:Ulipc.Protocol_kind.BSW
         ~nclients:2 ~messages_per_client:400
         ~time_limit:(Sim_time.sec 60) ())
  in
  Alcotest.(check int) "all echoed" 800 o.Driver.metrics.Metrics.messages;
  Alcotest.(check bool)
    (Printf.sprintf "interleaving-3 repairs fired (%d)"
       o.Driver.metrics.Metrics.counters.Ulipc.Counters.race_fix_p)
    true
    (o.Driver.metrics.Metrics.counters.Ulipc.Counters.race_fix_p > 0);
  Alcotest.(check int) "no semaphore residue" 0
    (Ulipc.Ablation.semaphore_residue o.Driver.session ~kernel:o.Driver.kernel)

let test_ablation_no_second_dequeue_deadlocks () =
  match
    Driver.run
      (Driver.config ~machine:racy_machine ~kind:Ulipc.Protocol_kind.BSW
         ~nclients:2 ~messages_per_client:400
         ~iface:(Ulipc.Ablation.iface Ulipc.Ablation.No_second_dequeue)
         ~time_limit:(Sim_time.sec 60) ())
  with
  | _ -> Alcotest.fail "expected the missing C.3 to lose a wake-up"
  | exception Driver.Hung (Kernel.Deadlock _) -> ()
  | exception Driver.Hung r ->
    Alcotest.failf "expected a deadlock, got %a" Kernel.pp_result r

let test_ablation_plain_store_degrades () =
  let run iface =
    Driver.run
      (Driver.config ~machine:racy_machine ~kind:Ulipc.Protocol_kind.BSW
         ~nclients:2 ~messages_per_client:400 ?iface
         ~time_limit:(Sim_time.sec 60) ())
  in
  let correct = run None in
  let broken =
    run (Some (Ulipc.Ablation.iface Ulipc.Ablation.Plain_store_wake))
  in
  Alcotest.(check int) "still completes" 800 broken.Metrics.messages;
  Alcotest.(check bool)
    (Printf.sprintf "duplicate wake-ups cost throughput (%.1f vs %.1f)"
       broken.Metrics.throughput_msg_per_ms correct.Metrics.throughput_msg_per_ms)
    true
    (broken.Metrics.throughput_msg_per_ms
    < 0.85 *. correct.Metrics.throughput_msg_per_ms)

let test_ablation_unconditional_wake_residue () =
  let o =
    Driver.run_outcome
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
         ~messages_per_client:200
         ~iface:(Ulipc.Ablation.iface Ulipc.Ablation.Unconditional_wake)
         ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "semaphore residue accumulated (%d)"
       (Ulipc.Ablation.semaphore_residue o.Driver.session ~kernel:o.Driver.kernel))
    true
    (Ulipc.Ablation.semaphore_residue o.Driver.session ~kernel:o.Driver.kernel
    > 50)

(* ------------------------------------------------------------------ *)
(* Overload throttle *)

let test_throttle_completes_and_improves () =
  let nclients = 12 and messages = 400 in
  let plain =
    Driver.run
      (Driver.config ~machine:challenge ~kind:(Ulipc.Protocol_kind.BSLS 5)
         ~nclients ~messages_per_client:messages ())
  in
  let st = Ulipc.Bsls_throttle.server_state ~max_pending:4 in
  let throttled =
    Driver.run
      (Driver.config ~machine:challenge ~kind:(Ulipc.Protocol_kind.BSLS 5)
         ~iface:(Ulipc.Bsls_throttle.iface ~max_spin:5 st)
         ~nclients ~messages_per_client:messages ())
  in
  Alcotest.(check int) "all echoed" (nclients * messages)
    throttled.Metrics.messages;
  Alcotest.(check bool)
    (Printf.sprintf "no starvation: pending drained to %d"
       (Ulipc.Bsls_throttle.pending_wakeups st))
    true
    (Ulipc.Bsls_throttle.pending_wakeups st <= nclients);
  Alcotest.(check bool)
    (Printf.sprintf "throttle does not lose throughput (%.1f vs %.1f)"
       throttled.Metrics.throughput_msg_per_ms plain.Metrics.throughput_msg_per_ms)
    true
    (throttled.Metrics.throughput_msg_per_ms
    >= 0.9 *. plain.Metrics.throughput_msg_per_ms)

let suites =
  [
    ( "core.message",
      [
        Alcotest.test_case "echo reply round trip" `Quick test_message_roundtrip;
        Alcotest.test_case "opcode equality" `Quick test_message_opcode_equal;
        Alcotest.test_case "counters add/reset" `Quick test_counters_add_reset;
        Alcotest.test_case "counters: client and server fields a line apart"
          `Quick test_counters_layout;
      ] );
    ( "core.session",
      [
        Alcotest.test_case "validation" `Quick test_session_validation;
        Alcotest.test_case "sysv mtypes" `Quick test_session_mtype;
      ] );
    ("core.protocols.sgi", protocol_cases sgi "sgi-indy");
    ("core.protocols.ibm", protocol_cases ibm "ibm-p4");
    ("core.protocols.mp", protocol_cases challenge "sgi-challenge");
    ( "core.protocols.edges",
      [
        Alcotest.test_case "single message" `Quick test_single_message;
        Alcotest.test_case "zero messages" `Quick test_zero_messages;
        Alcotest.test_case "BSW blocks when idle" `Quick test_bsw_blocks_when_idle;
        Alcotest.test_case "BSS never blocks" `Quick test_bss_burns_cpu;
        Alcotest.test_case "queue-full flow control" `Quick test_queue_full_sleep;
      ] );
    ( "core.async",
      [
        Alcotest.test_case "batched requests" `Quick test_async_batch;
        Alcotest.test_case "post / try_collect" `Quick test_async_try_collect;
      ] );
    ( "core.races",
      [
        Alcotest.test_case "correct BSW survives adversarial timing" `Quick
          test_correct_bsw_survives_races;
        Alcotest.test_case "dropping C.3 deadlocks (Interleaving 4)" `Quick
          test_ablation_no_second_dequeue_deadlocks;
        Alcotest.test_case "plain-store wake degrades (Interleavings 2-3)"
          `Quick test_ablation_plain_store_degrades;
        Alcotest.test_case "unconditional wake accumulates (semaphore overflow)"
          `Quick test_ablation_unconditional_wake_residue;
      ] );
    ( "core.throttle",
      [
        Alcotest.test_case "overload throttle completes, no starvation" `Slow
          test_throttle_completes_and_improves;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Bulk transfer (variable-sized payloads through a shared arena) *)

let bulk_fixture ~nclients ~kind =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false ~kind ~nclients ~capacity:32 ()
  in
  (kernel, Ulipc.Bulk.create session ~arena_size:4096)

let test_bulk_roundtrip () =
  let kernel, bulk = bulk_fixture ~nclients:1 ~kind:Ulipc.Protocol_kind.BSW in
  let requests = 40 in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        for _ = 1 to requests do
          Ulipc.Bulk.serve_one bulk ~handler:(fun ~client:_ payload ->
              Bytes.of_string (String.uppercase_ascii (Bytes.to_string payload)))
        done)
  in
  let ok = ref 0 in
  let _client =
    Kernel.spawn kernel ~name:"client" (fun () ->
        for i = 1 to requests do
          (* Sizes vary from empty to several hundred bytes. *)
          let payload = String.make (i * 13 mod 400) 'x' in
          let reply =
            Ulipc.Bulk.call bulk ~client:0 (Bytes.of_string payload)
          in
          if Bytes.to_string reply = String.uppercase_ascii payload then incr ok
        done)
  in
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "bulk run: %a" Kernel.pp_result r);
  Alcotest.(check int) "all payloads round-tripped" requests !ok;
  (* Ownership discipline: every block freed by its receiver. *)
  Alcotest.(check int) "arena drained" 0
    (Ulipc_shm.Arena.allocations_peek (Ulipc.Bulk.arena bulk))

let test_bulk_arena_backpressure () =
  (* An arena smaller than the burst forces the flow-control sleep but
     never corrupts payloads. *)
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
      ~capacity:32 ()
  in
  let bulk = Ulipc.Bulk.create session ~arena_size:700 in
  let per_client = 15 in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        for _ = 1 to 2 * per_client do
          Ulipc.Bulk.serve_one bulk ~handler:(fun ~client:_ payload -> payload)
        done)
  in
  let ok = ref 0 in
  for client = 0 to 1 do
    ignore
      (Kernel.spawn kernel
         ~name:(Printf.sprintf "client-%d" client)
         (fun () ->
           for i = 1 to per_client do
             let payload = Bytes.make 300 (Char.chr (65 + ((client + i) mod 26))) in
             let reply = Ulipc.Bulk.call bulk ~client payload in
             if Bytes.equal reply payload then incr ok
           done))
  done;
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "backpressure run: %a" Kernel.pp_result r);
  Alcotest.(check int) "all echoed despite tiny arena" (2 * per_client) !ok

let test_bulk_decode_rejects_non_bulk () =
  let _, bulk = bulk_fixture ~nclients:1 ~kind:Ulipc.Protocol_kind.BSW in
  ignore bulk;
  (* [decode] is internal; the public contract is that mixing plain and
     bulk traffic routes on [bulk_opcode]. *)
  Alcotest.(check bool) "bulk opcode is custom" true
    (match Ulipc.Bulk.bulk_opcode with
    | Ulipc.Message.Custom _ -> true
    | Ulipc.Message.Connect | Ulipc.Message.Echo | Ulipc.Message.Disconnect ->
      false)

(* ------------------------------------------------------------------ *)
(* Kernel-level accounting property over random protocol workloads *)

let prop_accounting_conserved =
  QCheck.Test.make ~name:"cpu time and switches conserved across protocols"
    ~count:12
    QCheck.(
      pair (int_range 1 4)
        (pair (int_range 1 60) (int_bound 5)))
    (fun (nclients, (messages, kind_idx)) ->
      let kind = List.nth all_protocols (kind_idx mod List.length all_protocols) in
      let o =
        Driver.run_outcome
          (Driver.config ~machine:sgi ~kind ~nclients
             ~messages_per_client:messages ())
      in
      let kernel = o.Driver.kernel in
      let total_cpu =
        List.fold_left
          (fun acc p -> acc + p.Proc.cpu_time)
          0
          (Kernel.procs kernel)
      in
      (* CPU consumed never exceeds wall time x CPUs, and the busy
         accounting brackets the per-process sum. *)
      total_cpu <= Kernel.now kernel
      && Kernel.cpu_busy kernel 0 >= total_cpu
      && Kernel.utilization kernel <= 1.0
      && List.for_all
           (fun p ->
             p.Proc.vcsw >= 0 && p.Proc.icsw >= 0
             && p.Proc.state = Proc.Dead)
           (Kernel.procs kernel))

let bulk_suites =
  [
    ( "core.bulk",
      [
        Alcotest.test_case "variable payload round trip" `Quick
          test_bulk_roundtrip;
        Alcotest.test_case "arena backpressure" `Quick
          test_bulk_arena_backpressure;
        Alcotest.test_case "opcode routing" `Quick test_bulk_decode_rejects_non_bulk;
      ] );
    ( "core.properties",
      [ QCheck_alcotest.to_alcotest prop_accounting_conserved ] );
  ]

let suites = suites @ bulk_suites

(* ------------------------------------------------------------------ *)
(* Guard: the §1 server-protection discipline against hostile clients *)

let test_guard_survives_malicious_client () =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
      ~capacity:32 ()
  in
  let guard = Ulipc.Guard.create session Ulipc.Guard.default_policy in
  let honest_messages = 60 and garbage = 30 in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        (* Serve exactly the honest traffic; garbage must be skipped. *)
        for _ = 1 to honest_messages do
          let m = Ulipc.Guard.receive guard in
          Ulipc.Guard.reply guard ~client:m.Ulipc.Message.reply_chan
            (Ulipc.Message.echo_reply m)
        done)
  in
  let _attacker =
    Kernel.spawn kernel ~name:"attacker" (fun () ->
        for i = 1 to garbage do
          (* Alternate an out-of-range reply channel with a forbidden
             opcode; never wait for an answer. *)
          let msg =
            if i mod 2 = 0 then
              Ulipc.Message.make ~opcode:Echo ~reply_chan:7 ~seq:i 0.0
            else
              Ulipc.Message.make ~opcode:(Custom 666) ~reply_chan:0 ~seq:i 0.0
          in
          Ulipc.Async.post session ~client:0 msg
        done)
  in
  let ok = ref 0 in
  let _honest =
    Kernel.spawn kernel ~name:"honest" (fun () ->
        for seq = 1 to honest_messages do
          let ans =
            Ulipc.Dispatch.send session ~client:1
              (Ulipc.Message.make ~opcode:Echo ~reply_chan:1 ~seq
                 (float_of_int seq))
          in
          if ans.Ulipc.Message.seq = seq then incr ok
        done)
  in
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "guard run: %a" Kernel.pp_result r);
  Alcotest.(check int) "honest client fully served" honest_messages !ok;
  Alcotest.(check int) "all garbage rejected" garbage
    (Ulipc.Guard.rejected guard)

let test_guard_credit_bound () =
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
      ~capacity:32 ()
  in
  let guard =
    Ulipc.Guard.create session
      { Ulipc.Guard.default_policy with max_outstanding = 4 }
  in
  let flood = 12 in
  let from_flooder = ref 0 and honest_served = ref false in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        (* Four receives exhaust the flooder's credit (nothing is replied);
           the fifth receive must skip the flooder's backlog and deliver
           the honest client's request. *)
        for _ = 1 to 4 do
          let m = Ulipc.Guard.receive guard in
          if m.Ulipc.Message.reply_chan = 0 then incr from_flooder
        done;
        let m = Ulipc.Guard.receive guard in
        if m.Ulipc.Message.reply_chan = 1 then begin
          honest_served := true;
          Ulipc.Guard.reply guard ~client:1 (Ulipc.Message.echo_reply m)
        end)
  in
  let _flooder =
    Kernel.spawn kernel ~name:"flooder" (fun () ->
        for seq = 1 to flood do
          Ulipc.Async.post session ~client:0
            (Ulipc.Message.make ~opcode:Echo ~reply_chan:0 ~seq 0.0)
        done)
  in
  let _honest =
    Kernel.spawn kernel ~name:"honest" (fun () ->
        (* Arrive well after the flood. *)
        Usys.sleep (Sim_time.ms 5);
        let (_ : Ulipc.Message.t) =
          Ulipc.Dispatch.send session ~client:1
            (Ulipc.Message.make ~opcode:Echo ~reply_chan:1 ~seq:1 1.0)
        in
        ())
  in
  (match Kernel.run kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "credit run: %a" Kernel.pp_result r);
  Alcotest.(check int) "first four came from the flooder" 4 !from_flooder;
  Alcotest.(check bool) "honest client served past the backlog" true
    !honest_served;
  Alcotest.(check int) "backlog beyond the credit dropped" (flood - 4)
    (Ulipc.Guard.rejected guard)

let guard_suites =
  [
    ( "core.guard",
      [
        Alcotest.test_case "survives a malicious client" `Quick
          test_guard_survives_malicious_client;
        Alcotest.test_case "per-client credit bound" `Quick
          test_guard_credit_bound;
      ] );
  ]

let suites = suites @ guard_suites

(* ------------------------------------------------------------------ *)
(* Golden simulator runs.  Every protocol through the driver on
   sgi-indy, 2 clients x 200 messages: the simulator is deterministic,
   so the elapsed simulated time and every counter are exact, and a
   change to any protocol's step sequence moves at least one of them.
   Fields absent from a row are 0; sends/receives/replies are 404 for
   all (2 x 200 echoes plus a connect and a disconnect per client). *)

let bsls10_fields =
  [
    ("client_blocks", 10);
    ("server_blocks", 3);
    ("client_wakeups", 10);
    ("server_wakeups", 3);
    ("spin_iterations", 1788);
    ("spin_fallthroughs", 15);
    ("server_spin_iterations", 844);
    ("server_spin_fallthroughs", 3);
  ]

let golden =
  Ulipc.Protocol_kind.
    [
      (BSS, 57_359_950, []);
      ( BSW,
        47_389_300,
        [
          ("client_blocks", 404);
          ("server_blocks", 7);
          ("client_wakeups", 404);
          ("server_wakeups", 7);
        ] );
      ( BSWY,
        53_457_700,
        [
          ("client_blocks", 404);
          ("server_blocks", 1);
          ("client_wakeups", 404);
          ("server_wakeups", 1);
        ] );
      (BSLS 10, 57_262_650, bsls10_fields);
      (* The simulator runs ADAPT n as BSLS n. *)
      (ADAPT 10, 57_262_650, bsls10_fields);
      ( HANDOFF,
        67_055_150,
        [ ("client_blocks", 392); ("client_wakeups", 392) ] );
      (SYSV, 58_855_000, []);
      (CSEM, 60_506_200, []);
    ]

let golden_case (kind, elapsed, fields) =
  let name = Ulipc.Protocol_kind.name kind in
  Alcotest.test_case (name ^ " exact on sgi-indy") `Quick (fun () ->
      let m =
        Driver.run
          (Driver.config ~machine:sgi ~kind ~nclients:2
             ~messages_per_client:200 ())
      in
      Alcotest.(check int) (name ^ " elapsed ns") elapsed m.Metrics.elapsed;
      let expect =
        [ ("sends", 404); ("receives", 404); ("replies", 404) ] @ fields
      in
      List.iter
        (fun (field, v) ->
          Alcotest.(check int)
            (name ^ " " ^ field)
            (Option.value ~default:0 (List.assoc_opt field expect))
            v)
        (Ulipc.Counters.to_fields m.Metrics.counters))

(* [Limited_spin 0] skips the poll loop: no fall-through is charged on
   either side, however often the queues run dry. *)
let test_bsls0_never_falls_through () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:(Ulipc.Protocol_kind.BSLS 0)
         ~nclients:2 ~messages_per_client:200 ())
  in
  let c = m.Metrics.counters in
  Alcotest.(check int) "all echoed" 400 m.Metrics.messages;
  Alcotest.(check int)
    "client fall-throughs" 0 c.Ulipc.Counters.spin_fallthroughs;
  Alcotest.(check int) "server fall-throughs" 0
    c.Ulipc.Counters.server_spin_fallthroughs;
  Alcotest.(check int) "client iterations" 0 c.Ulipc.Counters.spin_iterations

(* [Async.collect] is exactly the client half of a synchronous send: BSLS
   has no post-wake hint, so [post] + [collect] must replay a [send]
   step for step — same simulated time, same spins, same blocks. *)
let test_collect_is_send_client_half () =
  let run ~async =
    let kernel =
      Kernel.create ~ncpus:1
        ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
        ~costs:Ulipc_machines.Sgi_indy.costs ()
    in
    let session =
      Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
        ~multiprocessor:false ~kind:(Ulipc.Protocol_kind.BSLS 3) ~nclients:1
        ~capacity:8 ()
    in
    let n = 50 in
    let _server =
      Kernel.spawn kernel ~name:"server" (fun () ->
          for _ = 1 to n do
            let m = Ulipc.Dispatch.receive session in
            Ulipc.Dispatch.reply session ~client:0 (Ulipc.Message.echo_reply m)
          done)
    in
    let _client =
      Kernel.spawn kernel ~name:"client" (fun () ->
          for seq = 1 to n do
            let msg = Ulipc.Message.make ~opcode:Echo ~reply_chan:0 ~seq 0.0 in
            let r =
              if async then begin
                Ulipc.Async.post session ~client:0 msg;
                Ulipc.Async.collect session ~client:0
              end
              else Ulipc.Dispatch.send session ~client:0 msg
            in
            if r.Ulipc.Message.seq <> seq then failwith "echo mismatch"
          done)
    in
    (match Kernel.run kernel with
    | Kernel.Completed -> ()
    | r -> Alcotest.failf "run: %a" Kernel.pp_result r);
    (Kernel.now kernel, session.Ulipc.Session.counters)
  in
  let t_send, c_send = run ~async:false in
  let t_async, c_async = run ~async:true in
  let open Ulipc.Counters in
  Alcotest.(check bool)
    (Printf.sprintf "send polls its reply (%d iterations)"
       c_send.spin_iterations)
    true (c_send.spin_iterations > 0);
  Alcotest.(check int) "same simulated time" t_send t_async;
  Alcotest.(check int) "same spin iterations" c_send.spin_iterations
    c_async.spin_iterations;
  Alcotest.(check int) "same fall-throughs" c_send.spin_fallthroughs
    c_async.spin_fallthroughs;
  Alcotest.(check int) "same client blocks" c_send.client_blocks
    c_async.client_blocks

let test_session_rejects_negative_adapt_cap () =
  Alcotest.check_raises "bad adaptive cap"
    (Invalid_argument "Session.create: adaptive spin cap must be non-negative")
    (fun () -> ignore (make_session ~kind:(Ulipc.Protocol_kind.ADAPT (-1)) ()))

let test_protocol_spellings () =
  let open Ulipc.Protocol_kind in
  List.iter
    (fun (s, k) ->
      match of_string s with
      | Ok k' when equal k k' -> ()
      | Ok k' -> Alcotest.failf "%s parsed as %s" s (name k')
      | Error (`Msg e) -> Alcotest.failf "%s rejected: %s" s e)
    [
      ("bss", BSS); ("BSW", BSW); ("bswy", BSWY); ("bsls", BSLS 10);
      ("bsls:3", BSLS 3); ("adapt", ADAPT 4096); ("adapt:0", ADAPT 0);
      ("sysv", SYSV); ("handoff", HANDOFF); ("csem", CSEM);
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s ^ " rejected") true
        (Result.is_error (of_string s)))
    [ "bsls:-1"; "adapt:x"; "bogus"; "bsls:" ];
  (* Every waiting mode round-trips through its kind. *)
  List.iter
    (fun k ->
      match to_waiting k with
      | Some w ->
        Alcotest.(check bool)
          (name k ^ " round trip") true
          (equal k (of_waiting w))
      | None -> Alcotest.failf "%s has no waiting mode" (name k))
    [ BSS; BSW; BSWY; BSLS 5; ADAPT 7; HANDOFF ];
  Alcotest.(check bool) "SYSV/CSEM are not waiting modes" true
    (to_waiting SYSV = None && to_waiting CSEM = None)
[@@ocamlformat "disable"]

let suites =
  suites
  @ [
      ("core.golden", List.map golden_case golden);
      ( "core.waiting",
        [
          Alcotest.test_case "BSLS(0) never falls through" `Quick
            test_bsls0_never_falls_through;
          Alcotest.test_case "collect is the client half of send" `Quick
            test_collect_is_send_client_half;
          Alcotest.test_case "negative ADAPT cap rejected" `Quick
            test_session_rejects_negative_adapt_cap;
          Alcotest.test_case "protocol spellings" `Quick
            test_protocol_spellings;
        ] );
    ]
