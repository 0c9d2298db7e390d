(* Differential tests: the protocol core is one body of code instantiated
   over two substrates — the simulator and real OCaml 5 domains.  For any
   protocol and any trace of requests, both must compute identical
   per-client reply sequences, and neither may deadlock or leak
   wake-ups: each property runs the simulator once and replays the same
   trace on real domains.

   Server transform: reply = 2 * v + client — client-dependent, so a reply
   delivered to the wrong channel or out of order is caught, not masked. *)

open Ulipc_engine
open Ulipc_os

let transform ~client v = (2 * v) + client

(* ------------------------------------------------------------------ *)
(* One trace through the simulator *)

let run_sim waiting (traces : int list array) =
  let nclients = Array.length traces in
  let kernel =
    Kernel.create ~ncpus:1
      ~policy:(Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel ~costs:Ulipc_machines.Sgi_indy.costs
      ~multiprocessor:false
      ~kind:(Ulipc.Protocol_kind.of_waiting waiting)
      ~nclients ~capacity:8 ()
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 traces in
  let _server =
    Kernel.spawn kernel ~name:"server" (fun () ->
        for _ = 1 to total do
          let m = Ulipc.Dispatch.receive session in
          let client = m.Ulipc.Message.reply_chan in
          let v = int_of_float m.Ulipc.Message.arg in
          Ulipc.Dispatch.reply session ~client
            (Ulipc.Message.make ~opcode:Echo ~reply_chan:client
               (float_of_int (transform ~client v)))
        done)
  in
  let replies = Array.make nclients [] in
  Array.iteri
    (fun c trace ->
      ignore
        (Kernel.spawn kernel
           ~name:(Printf.sprintf "client-%d" c)
           (fun () ->
             List.iter
               (fun v ->
                 let r =
                   Ulipc.Dispatch.send session ~client:c
                     (Ulipc.Message.make ~opcode:Echo ~reply_chan:c
                        (float_of_int v))
                 in
                 replies.(c) <-
                   int_of_float r.Ulipc.Message.arg :: replies.(c))
               trace)))
    traces;
  (match Kernel.run ~until:(Sim_time.sec 600) kernel with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "simulated run did not complete: %a" Kernel.pp_result r);
  Array.map List.rev replies

(* ------------------------------------------------------------------ *)
(* The same trace on real domains *)

let run_real waiting (traces : int list array) =
  let nclients = Array.length traces in
  let t : (int, int) Ulipc_real.Rpc.t =
    Ulipc_real.Rpc.create ~capacity:8 ~nclients waiting
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 traces in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to total do
          let client, v = Ulipc_real.Rpc.receive t in
          Ulipc_real.Rpc.reply t ~client (transform ~client v)
        done)
  in
  let clients =
    Array.mapi
      (fun c trace ->
        Domain.spawn (fun () ->
            List.map (fun v -> Ulipc_real.Rpc.send t ~client:c v) trace))
      traces
  in
  let replies = Array.map Domain.join clients in
  Domain.join server;
  (replies, Ulipc_real.Rpc.wake_residue t)

(* ------------------------------------------------------------------ *)
(* qcheck: random client counts and traces, every protocol *)

let traces_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun nclients ->
    array_repeat nclients (list_size (int_bound 12) (int_bound 1000)))

let traces_arb =
  QCheck.make traces_gen
    ~print:(fun traces ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun l -> "[" ^ String.concat "," (List.map string_of_int l) ^ "]")
              traces)))

let prop_backends_agree name waiting =
  QCheck.Test.make ~count:110
    ~name:(Printf.sprintf "sim and real agree: %s" name)
    traces_arb
    (fun traces ->
      let sim = run_sim waiting traces in
      let real, residue = run_real waiting traces in
      if sim <> real then
        QCheck.Test.fail_reportf "reply sequences differ for %s" name;
      (* Spin leaves no wake-ups by construction; the blocking protocols
         must have drained every raced V. *)
      if residue <> 0 then
        QCheck.Test.fail_reportf "wake residue %d after quiescence" residue;
      (* The same checks hold against the oracle directly: every client's
         reply list is its trace, transformed, in order. *)
      Array.iteri
        (fun c trace ->
          let expect = List.map (fun v -> transform ~client:c v) trace in
          if sim.(c) <> expect then
            QCheck.Test.fail_reportf "sim replies wrong for client %d" c)
        traces;
      true)

(* ------------------------------------------------------------------ *)
(* Stress: Limited_spin counters on real domains.

   One client, so the client-side counter fields have a single writer and
   the totals are exact (Domain.join orders the final reads).  A spin
   fall-through implies the full max_spin poll iterations were spent in
   that invocation, so iterations >= fallthroughs * max_spin; and neither
   side can fall through more often than it waited.  Run at 7 and at 1,
   the smallest budget that still polls. *)

let test_limited_spin_counters max_spin () =
  let messages = 3_000 in
  let t : (int, int) Ulipc_real.Rpc.t =
    Ulipc_real.Rpc.create ~nclients:1 (Ulipc_real.Rpc.Limited_spin max_spin)
  in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to messages do
          let client, v = Ulipc_real.Rpc.receive t in
          Ulipc_real.Rpc.reply t ~client (v + 1)
        done)
  in
  let client =
    Domain.spawn (fun () ->
        for i = 1 to messages do
          if Ulipc_real.Rpc.send t ~client:0 i <> i + 1 then
            failwith "echo mismatch"
        done)
  in
  Domain.join client;
  Domain.join server;
  let c = Ulipc_real.Rpc.counters t in
  let open Ulipc.Counters in
  Alcotest.(check int) "sends" messages c.sends;
  Alcotest.(check int) "receives" messages c.receives;
  Alcotest.(check int) "replies" messages c.replies;
  Alcotest.(check bool) "client falls <= sends" true
    (c.spin_fallthroughs <= c.sends);
  Alcotest.(check bool) "server falls <= receives" true
    (c.server_spin_fallthroughs <= c.receives);
  Alcotest.(check bool) "client iters bounded above" true
    (c.spin_iterations <= c.sends * max_spin);
  Alcotest.(check bool) "server iters bounded above" true
    (c.server_spin_iterations <= c.receives * max_spin);
  Alcotest.(check bool) "client falls imply full spins" true
    (c.spin_iterations >= c.spin_fallthroughs * max_spin);
  Alcotest.(check bool) "server falls imply full spins" true
    (c.server_spin_iterations >= c.server_spin_fallthroughs * max_spin);
  Alcotest.(check int) "no stale wake-ups" 0 (Ulipc_real.Rpc.wake_residue t)

(* [Limited_spin 0] skips the poll loop on real domains too: no
   fall-through is charged however often a queue runs dry. *)
let test_bsls0_never_falls_through () =
  let messages = 500 in
  let t : (int, int) Ulipc_real.Rpc.t =
    Ulipc_real.Rpc.create ~nclients:1 (Ulipc_real.Rpc.Limited_spin 0)
  in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to messages do
          Ulipc_real.Rpc.serve t (fun ~client:_ v -> v + 1)
        done)
  in
  for i = 1 to messages do
    if Ulipc_real.Rpc.send t ~client:0 i <> i + 1 then failwith "echo mismatch"
  done;
  Domain.join server;
  let c = Ulipc_real.Rpc.counters t in
  Alcotest.(check int)
    "client fall-throughs" 0 c.Ulipc.Counters.spin_fallthroughs;
  Alcotest.(check int) "server fall-throughs" 0
    c.Ulipc.Counters.server_spin_fallthroughs

(* [Rpc.collect] is the client half of [send], BSLS polls included: with
   the server holding each reply back for 20 ms, both paths run the poll
   loop before they block.  On a single-CPU host the session clamps the
   budget to 0 and neither may poll. *)
let test_collect_polls_like_send () =
  let rounds = 3 in
  let polls ~async =
    let t : (int, int) Ulipc_real.Rpc.t =
      Ulipc_real.Rpc.create ~nclients:1 (Ulipc_real.Rpc.Limited_spin 3)
    in
    let server =
      Domain.spawn (fun () ->
          for _ = 1 to rounds do
            Ulipc_real.Rpc.serve t (fun ~client:_ v ->
                Unix.sleepf 0.02;
                v + 1)
          done)
    in
    for i = 1 to rounds do
      let r =
        if async then begin
          Ulipc_real.Rpc.post t ~client:0 i;
          Ulipc_real.Rpc.collect t ~client:0
        end
        else Ulipc_real.Rpc.send t ~client:0 i
      in
      if r <> i + 1 then failwith "echo mismatch"
    done;
    Domain.join server;
    let c = Ulipc_real.Rpc.counters t in
    c.Ulipc.Counters.spin_iterations + c.Ulipc.Counters.spin_fallthroughs
  in
  let multicore = Domain.recommended_domain_count () > 1 in
  List.iter
    (fun (what, n) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s polls (%d) iff multicore" what n)
        multicore (n > 0))
    [ ("send", polls ~async:false); ("post+collect", polls ~async:true) ]

let suites =
  [
    ( "differential",
      [
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "BSS (spin)" Ulipc_real.Rpc.Spin);
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "BSW (block)" Ulipc_real.Rpc.Block);
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "BSWY (block+yield)" Ulipc_real.Rpc.Block_yield);
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "BSLS(3)" (Ulipc_real.Rpc.Limited_spin 3));
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "BSLS(0)" (Ulipc_real.Rpc.Limited_spin 0));
        QCheck_alcotest.to_alcotest
          (prop_backends_agree "handoff" Ulipc_real.Rpc.Handoff);
        Alcotest.test_case "BSLS counters under stress (real domains, ring)"
          `Slow
          (test_limited_spin_counters 7);
        Alcotest.test_case
          "BSLS counters under stress (real domains, max_spin 1)" `Slow
          (test_limited_spin_counters 1);
        Alcotest.test_case "BSLS(0) never falls through (real domains)" `Quick
          test_bsls0_never_falls_through;
        Alcotest.test_case "collect polls like send (real domains)" `Quick
          test_collect_polls_like_send;
      ] );
  ]
