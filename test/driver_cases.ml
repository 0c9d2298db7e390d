(* The echo driver's end-to-end cases, run by both binaries: with
   domains as peers (main) and with fork'd processes (main_proc).
   Real_driver.run is one code path for both kinds of peer, so the same
   checks must hold for each: the counters balance, the merged trace is
   causally clean, [Limited_spin 0] never charges a spin fall-through,
   and pipelined calls on a pool keep each client's order.  The driver
   itself fails on a wrong echo.  This module
   is linked into both test binaries, so it spawns neither domains nor
   processes except through the driver under test. *)

open Ulipc_workload

(* [Counters] fields are plain per-session fields: with domains they
   are exact only while one client domain writes the client-side ones.
   Fork'd peers each count into their own copy, which the driver adds
   up, so two clients stay exact there. *)
let counters_balance ~peers () =
  let nclients = match peers with Real_driver.Domains -> 1 | Processes -> 2 in
  let messages = 100 in
  List.iter
    (fun depth ->
      let residue = ref (-1) in
      let m =
        Real_driver.run ~peers ~depth ~wake_residue_out:residue ~nclients
          ~messages Ulipc_real.Rpc.Block
      in
      let c = m.Metrics.counters in
      let open Ulipc.Counters in
      Alcotest.(check int) "driver reports all messages" (nclients * messages)
        m.Metrics.messages;
      Alcotest.(check bool) "sends cover the workload" true
        (c.sends >= nclients * messages);
      Alcotest.(check int) "replies match sends" c.sends c.replies;
      Alcotest.(check bool) "throughput is finite" true
        (Float.is_finite m.Metrics.throughput_msg_per_ms);
      Alcotest.(check int) "no wake residue" 0 !residue)
    [ 1; 8 ]

(* Every peer records its own actor — a domain its domain id, a fork'd
   process its pid-namespaced one — and so does the parent, which posts
   the shutdown poison. *)
let trace_invariants ~peers () =
  let nclients = 2 in
  let events_out = ref [] and dropped_out = ref (-1) in
  let _m =
    Real_driver.run ~peers ~nclients ~messages:150 ~events_out ~dropped_out
      Ulipc_real.Rpc.Block
  in
  let events = !events_out in
  Alcotest.(check bool) "trace non-empty" true (events <> []);
  Alcotest.(check int) "nothing dropped" 0 !dropped_out;
  let actors =
    List.sort_uniq compare
      (List.map (fun e -> e.Ulipc_observe.Event.actor) events)
  in
  Alcotest.(check int) "one actor per peer and the parent" (nclients + 2)
    (List.length actors);
  let r = Ulipc_observe.Trace_analysis.analyse ~complete:true events in
  Alcotest.(check int) "no causal violations" 0
    (List.length r.Ulipc_observe.Trace_analysis.violations);
  Alcotest.(check bool) "blocks were observed" true
    (r.Ulipc_observe.Trace_analysis.blocks > 0)

(* [Limited_spin 0] skips the poll loop: no fall-through is ever
   charged, on either side. *)
let bsls0_never_falls_through ~peers ~within () =
  within ~timeout_s:20.0 "BSLS(0) echo" (fun () ->
      let m =
        Real_driver.run ~peers ~nclients:1 ~messages:500
          (Ulipc_real.Rpc.Limited_spin 0)
      in
      let c = m.Metrics.counters in
      if
        c.Ulipc.Counters.spin_fallthroughs <> 0
        || c.Ulipc.Counters.server_spin_fallthroughs <> 0
      then failwith "BSLS(0) charged a spin fall-through")

(* Pipelining on a pool: 4 clients 8 deep against 2 servers, so each
   shard serves two clients' bursts interleaved.  The driver pairs each
   burst's replies with its requests by position and fails on the
   first mismatch, so the run passes only if every client's replies
   come back in request order. *)
let pooled_pipelining ~peers ~within () =
  within ~timeout_s:20.0 "depth-8 echo on 2 servers" (fun () ->
      let nclients = 4 and messages = 400 in
      let residue = ref (-1) in
      let m =
        Real_driver.run ~peers ~depth:8 ~nservers:2 ~wake_residue_out:residue
          ~nclients ~messages Ulipc_real.Rpc.Block
      in
      Alcotest.(check int) "driver reports all messages" (nclients * messages)
        m.Metrics.messages;
      Alcotest.(check int) "no wake residue" 0 !residue)
