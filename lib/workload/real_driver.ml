(* The §2.2 echo workload on real OCaml 5 domains: a pool of [nservers]
   server domains behind the sharded request plane, [nclients] logical
   clients issuing [messages] calls each through Ulipc_real.Rpc.  The
   same protocol core the simulator runs, measured in wall-clock time,
   reported through the same Metrics record.

   Client multiplexing: OCaml caps a process at 128 live domains, and
   the F2/F11 sweeps need 512 clients against a 4-server pool.  Logical
   clients are therefore folded onto at most [max_client_domains] real
   domains: a domain hosting one client runs the classic timed send
   loop; a domain hosting k > 1 clients runs post-all/collect-all rounds
   — every hosted client keeps exactly one request outstanding, so
   per-client FIFO and the one-outstanding-call contract both hold, and
   the round duration is each hosted client's observed round-trip (its
   request is posted when the round opens and its reply is in hand when
   it closes).

   Shutdown: with a pool no server can know its share of the traffic in
   advance (stealing moves work between shards), so servers are stopped
   by poison rather than by counting.  After every client domain has
   joined — i.e. every request has been replied to and the rings are
   empty — the main domain posts one poison request per shard, payload
   [-1 - shard].  A server that receives a poison naming its own shard
   exits; one naming a sibling (possible only if a steal moved it, which
   the [steal_min >= 2] floor prevents once rings hold a single poison
   each) is forwarded to its target with [Rpc.post ~shard].  Poisons are
   never replied to.

   Timing discipline: a start barrier keeps Domain.spawn cost out of the
   measured interval — every client domain parks on an atomic flag after
   spawning, [t0] is taken once all are parked, and the flag releases
   them together (the wall-clock analogue of the simulator driver's
   Connect barrier).  [t1] is taken after joining the client domains but
   before poisoning the servers, so the interval covers exactly the
   messaging phase: last reply received, not last domain torn down.

   Each client also times every individual send with gettimeofday and
   records it into its own Ulipc_observe.Histogram (per-domain, unsynchronised);
   the rings are merged after the joins, so real runs report the same
   p50/p99/max percentiles the simulator does.  gettimeofday granularity
   is ~1 µs on most hosts: sub-µs round-trips quantise to 0/1 µs ticks,
   so the percentiles are honest at µs resolution and the throughput
   numbers remain the precise measurement.

   Pipelining: [depth] > 1 switches each client to a sliding window of
   [depth] outstanding requests (Rpc.call_pipelined, issued in bursts of
   [depth] so every burst yields a latency sample) and the server to the
   batched receive/reply path (one span claim and at most one wake-up
   per batch).  The histogram then records mean per-message latency per
   burst — the per-message number a pipelined client actually observes.
   call_pipelined pairs replies with requests by queue position, which
   stealing may permute, so depth > 1 requires nservers = 1.

   Utilization: each server accumulates the time it spends waiting
   inside receive for calls that return a real request (the final
   poison wait is post-measurement and excluded); busy time is the
   measured interval minus that waiting, so per-server utilization is
   1 - waiting/elapsed.  The metrics row reports the pool mean and the
   busiest server — the gap between them is the imbalance stealing did
   not smooth.  The waits are the well-measurable part (block/backoff
   episodes are µs-scale and up, far above gettimeofday's tick), which
   keeps the subtraction honest even though individual service times
   are sub-µs. *)

let probe_warmup = 32
let probe_ops = 512

(* 128-domain runtime cap, minus the servers, the main domain and
   headroom for whatever the process is already running. *)
let max_client_domains nservers = max 1 (min 96 (120 - nservers))

let run ?(machine = "domains") ?trace ?telemetry ?(depth = 1) ?(nservers = 1)
    ?wake_residue_out ~nclients ~messages waiting =
  if depth <= 0 then invalid_arg "Real_driver.run: depth must be positive";
  if depth > 1 && nservers > 1 then
    invalid_arg
      "Real_driver.run: depth > 1 requires nservers = 1 (stealing reorders \
       a client's in-flight requests, which breaks pipelined pairing)";
  (* Every run is traced: with no caller-supplied sink we attach our own,
     sized so a typical bench run (a few messages × a handful of events
     each, per domain) fits without overwrite, and distil the trace into
     the wake-latency percentiles of the metrics row. *)
  let trace =
    match trace with
    | Some sink -> sink
    | None -> Ulipc_real.Trace_ring.create ~capacity:65536 ()
  in
  let t : (int, int) Ulipc_real.Rpc.t =
    (* Immediate-int codecs: each echo payload is its message's word in
       the ring cell, so the steady-state round-trip is the
       zero-allocation path the probe below certifies. *)
    Ulipc_real.Rpc.create ~trace ~req_codec:Ulipc_real.Rpc.int_codec
      ~rep_codec:Ulipc_real.Rpc.int_codec ~nservers ~nclients waiting
  in
  (* Telemetry plane: every run is sampled into a Series ring (a
     caller-supplied registry — ulipc_top's — just brings its own
     interval and on_frame hook; use a fresh registry per run).  The
     hot-path instruments ride the measured loops only: the messages
     counter is one fetch-and-add per echo and the latency whist records
     next to the per-domain histogram, so the pre-barrier allocation
     probe below still certifies the bare send path.  Gauges read the
     live session (per-shard ring depth, slab occupancy, trace drops)
     and the counter batch diffs Counters snapshots — parks, grants,
     steals, backoff sleeps per window.  The sampler domain starts with
     the barrier release and stops after the post-join harvests, so its
     final frame carries the sem-park/grant and slab-high-water
     deltas. *)
  let tel =
    match telemetry with
    | Some tel -> tel
    | None -> Ulipc_observe.Telemetry.create ()
  in
  let msgs_c = Ulipc_observe.Telemetry.counter tel "messages" in
  let lat_w = Ulipc_observe.Telemetry.whist tel "latency_us" in
  for k = 0 to nservers - 1 do
    Ulipc_observe.Telemetry.gauge tel
      (Printf.sprintf "ring_depth_%d" k)
      (fun () -> float_of_int (Ulipc_real.Rpc.request_depth t k))
  done;
  Ulipc_observe.Telemetry.gauge tel "slab_in_use" (fun () ->
      float_of_int (Ulipc_real.Slab.in_use_count (Ulipc_real.Rpc.slab t)));
  Ulipc_observe.Telemetry.gauge tel "trace_dropped" (fun () ->
      float_of_int (Ulipc_real.Trace_ring.dropped trace));
  Ulipc_observe.Telemetry.ext_counters tel (fun () ->
      Ulipc.Counters.to_fields
        (Ulipc.Counters.snapshot (Ulipc_real.Rpc.counters t)));
  (* Allocation probe: before the barrier releases the timed phase, the
     domain hosting client 0 runs a short warm-up (faulting in its
     lazily initialised trace state) and then [probe_ops] bare
     sends between two [Gc.minor_words] readings.  minor_words is
     per-domain in OCaml 5, so the delta is exactly the issuing client's
     allocation; the calibration pair subtracts what the readings
     themselves charge.  Running pre-barrier keeps the probe traffic out
     of the measured interval — client 0's home server just serves
     [probe_total] extra messages. *)
  let probe_total = if depth = 1 then probe_warmup + probe_ops else 0 in
  let minor_words_per_op = ref nan in
  (* Slot k is written by server domain k alone, read after its join. *)
  let server_waiting_s = Array.make nservers 0.0 in
  let servers =
    if depth = 1 then
      Array.init nservers (fun k ->
          Domain.spawn (fun () ->
              let waiting_s = ref 0.0 in
              let live = ref true in
              while !live do
                let before = Unix.gettimeofday () in
                let client, v = Ulipc_real.Rpc.receive ~server:k t in
                if v >= 0 then begin
                  waiting_s := !waiting_s +. (Unix.gettimeofday () -. before);
                  Ulipc_real.Rpc.reply t ~client (v + 1)
                end
                else begin
                  let target = -1 - v in
                  if target = k then live := false
                  else Ulipc_real.Rpc.post ~shard:target t ~client:0 v
                end
              done;
              server_waiting_s.(k) <- !waiting_s))
    else
      (* Pipelined path: single server (enforced above), which can count
         its traffic exactly — no poison needed. *)
      [|
        Domain.spawn (fun () ->
            let remaining = ref ((nclients * messages) + probe_total) in
            let waiting_s = ref 0.0 in
            while !remaining > 0 do
              let before = Unix.gettimeofday () in
              let batch =
                Ulipc_real.Rpc.receive_batch t ~max:(depth * nclients)
              in
              waiting_s := !waiting_s +. (Unix.gettimeofday () -. before);
              Ulipc_real.Rpc.reply_batch t
                (List.map (fun (client, v) -> (client, v + 1)) batch);
              remaining := !remaining - List.length batch
            done;
            server_waiting_s.(0) <- !waiting_s);
      |]
  in
  (* Fold the logical clients onto at most [max_client_domains] real
     domains, in contiguous blocks as even as the division allows. *)
  let ndomains =
    if depth > 1 then nclients else min nclients (max_client_domains nservers)
  in
  let block d =
    let base = nclients / ndomains and rem = nclients mod ndomains in
    let lo = (d * base) + min d rem in
    (lo, lo + base + if d < rem then 1 else 0)
  in
  let ready = Atomic.make 0 in
  let go = Atomic.make false in
  let client_domains =
    List.init ndomains (fun d ->
        Domain.spawn (fun () ->
            let lo, hi = block d in
            let hist = Ulipc_observe.Histogram.create "round-trip (us)" in
            if lo = 0 && probe_total > 0 then begin
              for i = 1 to probe_warmup do
                if Ulipc_real.Rpc.send t ~client:0 i <> i + 1 then
                  failwith "Real_driver.run: echo mismatch"
              done;
              let calib =
                let a = Gc.minor_words () in
                Gc.minor_words () -. a
              in
              let w0 = Gc.minor_words () in
              for i = 1 to probe_ops do
                ignore (Ulipc_real.Rpc.send t ~client:0 i : int)
              done;
              let w1 = Gc.minor_words () in
              minor_words_per_op :=
                Float.max 0.0 ((w1 -. w0 -. calib) /. float_of_int probe_ops)
            end;
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            if depth = 1 then
              if hi - lo = 1 then
                for i = 1 to messages do
                  let before = Unix.gettimeofday () in
                  let ans = Ulipc_real.Rpc.send t ~client:lo i in
                  let after = Unix.gettimeofday () in
                  if ans <> i + 1 then
                    failwith "Real_driver.run: echo mismatch";
                  let rt_us = (after -. before) *. 1.0e6 in
                  Ulipc_observe.Histogram.record hist rt_us;
                  Ulipc_observe.Telemetry.record lat_w rt_us;
                  Ulipc_observe.Telemetry.incr msgs_c
                done
              else
                for i = 1 to messages do
                  let before = Unix.gettimeofday () in
                  for c = lo to hi - 1 do
                    Ulipc_real.Rpc.post t ~client:c i
                  done;
                  for c = lo to hi - 1 do
                    if Ulipc_real.Rpc.collect t ~client:c <> i + 1 then
                      failwith "Real_driver.run: echo mismatch"
                  done;
                  let per_msg_us = (Unix.gettimeofday () -. before) *. 1.0e6 in
                  for _ = lo to hi - 1 do
                    Ulipc_observe.Histogram.record hist per_msg_us;
                    Ulipc_observe.Telemetry.record lat_w per_msg_us
                  done;
                  Ulipc_observe.Telemetry.add msgs_c (hi - lo)
                done
            else begin
              let sent = ref 0 in
              while !sent < messages do
                let k = min depth (messages - !sent) in
                let burst = List.init k (fun j -> !sent + j + 1) in
                let before = Unix.gettimeofday () in
                let answers =
                  Ulipc_real.Rpc.call_pipelined t ~client:lo ~depth burst
                in
                let after = Unix.gettimeofday () in
                List.iter2
                  (fun req ans ->
                    if ans <> req + 1 then
                      failwith "Real_driver.run: echo mismatch")
                  burst answers;
                let per_msg_us =
                  (after -. before) *. 1.0e6 /. float_of_int k
                in
                for _ = 1 to k do
                  Ulipc_observe.Histogram.record hist per_msg_us;
                  Ulipc_observe.Telemetry.record lat_w per_msg_us
                done;
                Ulipc_observe.Telemetry.add msgs_c k;
                sent := !sent + k
              done
            end;
            hist))
  in
  while Atomic.get ready < ndomains do
    Domain.cpu_relax ()
  done;
  Ulipc_observe.Telemetry.start_sampler tel;
  let t0 = Unix.gettimeofday () in
  Atomic.set go true;
  let hists = List.map Domain.join client_domains in
  let t1 = Unix.gettimeofday () in
  if depth = 1 then
    for k = 0 to nservers - 1 do
      Ulipc_real.Rpc.post ~shard:k t ~client:0 (-1 - k)
    done;
  Array.iter Domain.join servers;
  let elapsed_s = t1 -. t0 in
  let utilization, utilization_max =
    if elapsed_s <= 0.0 then (nan, nan)
    else begin
      (* A server also waits before the barrier releases the clients, so
         its waiting total can exceed the measured interval — clamp per
         server, then take the pool mean and the busiest shard. *)
      let sum = ref 0.0 and umax = ref 0.0 in
      Array.iter
        (fun w ->
          let u = Float.max 0.0 (Float.min 1.0 (1.0 -. (w /. elapsed_s))) in
          sum := !sum +. u;
          if u > !umax then umax := u)
        server_waiting_s;
      (!sum /. float_of_int nservers, !umax)
    end
  in
  let latency = Ulipc_observe.Histogram.create "round-trip (us)" in
  List.iter (fun h -> Ulipc_observe.Histogram.merge_into ~dst:latency h) hists;
  let counters = Ulipc_real.Rpc.counters t in
  counters.Ulipc.Counters.slab_hwm <-
    Ulipc_real.Slab.high_water (Ulipc_real.Rpc.slab t);
  Ulipc_real.Rpc.harvest_sem_counters t;
  Option.iter (fun r -> r := Ulipc_real.Rpc.wake_residue t) wake_residue_out;
  (* Post-harvest stop: the final frame's counter batch carries the
     sem-park/grant and slab-high-water deltas, and summed per-window
     message deltas equal the row's messages exactly. *)
  Ulipc_observe.Telemetry.stop_sampler tel;
  let series = Ulipc_observe.Telemetry.frames tel in
  (* All recording domains are joined: the drain is race-free. *)
  let wake_latency_p50_us, wake_latency_p99_us =
    let report =
      Ulipc_observe.Trace_analysis.analyse
        ~complete:(Ulipc_real.Trace_ring.dropped trace = 0)
        (Ulipc_real.Trace_ring.events trace)
    in
    let d = report.Ulipc_observe.Trace_analysis.wake_latency in
    ( d.Ulipc_observe.Trace_analysis.p50_us,
      d.Ulipc_observe.Trace_analysis.p99_us )
  in
  Metrics.of_real ~latency ~utilization ~utilization_max ~depth ~nservers
    ~wake_latency_p50_us ~wake_latency_p99_us
    ~minor_words_per_op:!minor_words_per_op ~series ~machine
    ~protocol:(Ulipc.Protocol_kind.of_waiting waiting)
    ~nclients
    ~messages:(nclients * messages)
    ~elapsed_s ~counters ()
