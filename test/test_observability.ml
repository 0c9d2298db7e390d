(* Tests for the real-backend observability layer: the log-bucketed
   Ulipc_observe.Histogram (vs the exact Stat accumulator), the per-domain
   Trace_ring event sink, per-call latency in Real_driver, and the
   Bench_json writer parsed back as actual JSON. *)

open Ulipc_engine
open Ulipc_workload

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_basics () =
  let h = Ulipc_observe.Histogram.create "t" in
  Alcotest.(check int) "empty" 0 (Ulipc_observe.Histogram.count h);
  List.iter (Ulipc_observe.Histogram.record h) [ 1.0; 2.0; 4.0; 8.0 ];
  Alcotest.(check int) "count" 4 (Ulipc_observe.Histogram.count h);
  Alcotest.(check (float 1e-9)) "total" 15.0 (Ulipc_observe.Histogram.total h);
  Alcotest.(check (float 1e-9)) "mean" 3.75 (Ulipc_observe.Histogram.mean h);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Ulipc_observe.Histogram.min_value h);
  Alcotest.(check (float 1e-9)) "max" 8.0 (Ulipc_observe.Histogram.max_value h);
  (* p0/p100 are exact: clamped to the recorded extremes. *)
  Alcotest.(check (float 1e-9))
    "p0" 1.0
    (Ulipc_observe.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9))
    "p100" 8.0
    (Ulipc_observe.Histogram.percentile h 100.0)

let test_histogram_guards () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Histogram.percentile: no samples") (fun () ->
      ignore
        (Ulipc_observe.Histogram.percentile
           (Ulipc_observe.Histogram.create "t")
           50.0));
  let h = Ulipc_observe.Histogram.create "t" in
  Ulipc_observe.Histogram.record h 1.0;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Histogram.percentile: p out of range") (fun () ->
      ignore (Ulipc_observe.Histogram.percentile h 101.0));
  Alcotest.check_raises "bad lo"
    (Invalid_argument "Histogram.create: lo must be positive") (fun () ->
      ignore (Ulipc_observe.Histogram.create ~lo:0.0 "t"));
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Histogram.merge_into: bucket geometries differ")
    (fun () ->
      Ulipc_observe.Histogram.merge_into
        ~dst:(Ulipc_observe.Histogram.create "dst")
        (Ulipc_observe.Histogram.create ~buckets_per_decade:8 "src"))

let test_histogram_out_of_range () =
  (* Values outside the regular bucket range (and non-finite ones) land
     in the under/overflow buckets but stay inside min/max. *)
  let h = Ulipc_observe.Histogram.create ~lo:1.0 ~decades:2 "t" in
  List.iter (Ulipc_observe.Histogram.record h) [ 1e-9; 5.0; 1e6 ];
  Alcotest.(check int) "count" 3 (Ulipc_observe.Histogram.count h);
  Alcotest.(check (float 1e-12)) "p0 is the underflow value" 1e-9
    (Ulipc_observe.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-3)) "p100 is the overflow value" 1e6
    (Ulipc_observe.Histogram.percentile h 100.0);
  let mid = Ulipc_observe.Histogram.percentile h 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.3f within one bucket of 5.0" mid)
    true
    (Float.abs (mid -. 5.0) /. 5.0
    < Ulipc_observe.Histogram.bucket_ratio h -. 1.0)

(* The tentpole accuracy contract: histogram percentiles agree with the
   exact sample percentiles of Stat ~keep_samples:true within one
   bucket's relative error.  Both use the same interpolated rank, so the
   bound holds pointwise at every p. *)
let prop_histogram_matches_stat =
  QCheck.Test.make ~name:"Histogram percentiles ~ Stat percentiles" ~count:200
    QCheck.(
      pair (float_range 0.01 100_000.0)
        (list_of_size Gen.(1 -- 300) (float_range 0.01 100_000.0)))
    (fun (x, xs) ->
      let samples = x :: xs in
      let h = Ulipc_observe.Histogram.create "h" in
      let s = Stat.create ~keep_samples:true "s" in
      List.iter
        (fun v ->
          Ulipc_observe.Histogram.record h v;
          Stat.add s v)
        samples;
      let tol = Ulipc_observe.Histogram.bucket_ratio h -. 1.0 in
      List.for_all
        (fun p ->
          let exact = Stat.percentile s p in
          let approx = Ulipc_observe.Histogram.percentile h p in
          Float.abs (approx -. exact) <= (tol *. Float.abs exact) +. 1e-9)
        [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ])

let test_histogram_merge_across_domains () =
  (* Per-domain recording, merge after join: 4 domains record disjoint
     ranges concurrently into their own histograms; the merge must lose
     nothing and match a sequentially-built Stat. *)
  let per_domain = 10_000 in
  let value d i = float_of_int (((d + 1) * 1000) + (i mod 997)) +. 0.5 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            let h = Ulipc_observe.Histogram.create "h" in
            for i = 1 to per_domain do
              Ulipc_observe.Histogram.record h (value d i)
            done;
            h))
  in
  let hists = List.map Domain.join domains in
  let merged = Ulipc_observe.Histogram.create "h" in
  List.iter (fun h -> Ulipc_observe.Histogram.merge_into ~dst:merged h) hists;
  Alcotest.(check int) "no lost samples" (4 * per_domain)
    (Ulipc_observe.Histogram.count merged);
  let s = Stat.create ~keep_samples:true "s" in
  List.init 4 (fun d -> d)
  |> List.iter (fun d ->
         for i = 1 to per_domain do
           Stat.add s (value d i)
         done);
  Alcotest.(check (float 1e-6))
    "totals add up" (Stat.total s)
    (Ulipc_observe.Histogram.total merged);
  Alcotest.(check (float 1e-9)) "min" (Stat.min_value s)
    (Ulipc_observe.Histogram.min_value merged);
  Alcotest.(check (float 1e-9)) "max" (Stat.max_value s)
    (Ulipc_observe.Histogram.max_value merged);
  let tol = Ulipc_observe.Histogram.bucket_ratio merged -. 1.0 in
  List.iter
    (fun p ->
      let exact = Stat.percentile s p in
      let approx = Ulipc_observe.Histogram.percentile merged p in
      Alcotest.(check bool)
        (Printf.sprintf "merged p%.0f %.1f ~ exact %.1f" p approx exact)
        true
        (Float.abs (approx -. exact) <= tol *. exact))
    [ 50.0; 99.0 ]

(* ------------------------------------------------------------------ *)
(* Trace ring *)

let test_trace_ring_bounds () =
  let sink = Ulipc_observe.Trace_ring.create ~capacity:8 () in
  for i = 1 to 20 do
    Ulipc_observe.Trace_ring.record sink Ulipc_observe.Event.Enqueue ~chan:i
  done;
  Alcotest.(check int) "recorded" 20 (Ulipc_observe.Trace_ring.recorded sink);
  Alcotest.(check int) "dropped" 12 (Ulipc_observe.Trace_ring.dropped sink);
  let events = Ulipc_observe.Trace_ring.events sink in
  Alcotest.(check int) "retains the last capacity events" 8
    (List.length events);
  Alcotest.(check (list int))
    "oldest-to-newest"
    [ 13; 14; 15; 16; 17; 18; 19; 20 ]
    (List.map (fun e -> e.Ulipc_observe.Event.chan) events);
  (* Ring drops oldest-first, so retained per-actor seqs stay contiguous
     — the property Trace_analysis.Seq_gap relies on. *)
  Alcotest.(check (list int))
    "sequence numbers contiguous"
    [ 12; 13; 14; 15; 16; 17; 18; 19 ]
    (List.map (fun e -> e.Ulipc_observe.Event.seq) events);
  Alcotest.check_raises "bad capacity"
    (Invalid_argument "Trace_ring.create: capacity must be positive")
    (fun () -> ignore (Ulipc_observe.Trace_ring.create ~capacity:0 ()))

(* [record_as]: one writer, many explicit actors — each actor's ring
   numbers its own events from 0 and drops its own oldest. *)
let test_trace_ring_record_as () =
  let module R = Ulipc_observe.Trace_ring in
  let module Event = Ulipc_observe.Event in
  let sink = R.create ~capacity:4 () in
  for i = 0 to 5 do
    R.record_as sink Event.Syscall ~actor:7 ~t_ns:(1000 * i) ~chan:i;
    if i < 3 then R.record_as sink Event.Switch ~actor:3 ~t_ns:(1000 * i) ~chan:0
  done;
  Alcotest.(check int) "recorded" 9 (R.recorded sink);
  Alcotest.(check int) "actor 7's ring drops its 2 oldest" 2 (R.dropped sink);
  let of_actor a =
    List.filter (fun e -> e.Event.actor = a) (R.events sink)
  in
  Alcotest.(check (list int)) "actor 3: seq from 0" [ 0; 1; 2 ]
    (List.map (fun e -> e.Event.seq) (of_actor 3));
  Alcotest.(check (list int)) "actor 7: its last 4, contiguous" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Event.seq) (of_actor 7));
  Alcotest.(check (list int)) "actor 7: payloads follow" [ 2; 3; 4; 5 ]
    (List.map (fun e -> e.Event.chan) (of_actor 7));
  Alcotest.(check (list (float 0.0))) "stamps in us" [ 2.0; 3.0; 4.0; 5.0 ]
    (List.map (fun e -> e.Event.t_us) (of_actor 7));
  let r = Ulipc_observe.Trace_analysis.analyse ~complete:false (R.events sink) in
  Alcotest.(check int) "no sequence gaps" 0
    (List.length r.Ulipc_observe.Trace_analysis.violations)

let all_kinds =
  Ulipc_observe.Event.
    [
      Enqueue; Dequeue; Block; Wake; Wake_drain; Handoff; Spin_exhaust; Spawn;
      Exit; Switch; Preempt; Idle; Syscall; Sleep; Msgq_deliver;
    ]

let test_kind_tags_round_trip () =
  let module Event = Ulipc_observe.Event in
  List.iter
    (fun k ->
      Alcotest.(check string) (Event.kind_name k) (Event.kind_name k)
        (Event.kind_name (Event.kind_of_tag (Event.kind_tag k)));
      Alcotest.(check bool) (Event.kind_name k ^ " round-trips") true
        (Event.kind_of_tag (Event.kind_tag k) = k))
    all_kinds;
  Alcotest.(check (list int)) "dense codes"
    (List.init (List.length all_kinds) Fun.id)
    (List.sort compare (List.map Event.kind_tag all_kinds));
  Alcotest.check_raises "unknown code"
    (Invalid_argument "Event.kind_of_tag: 15") (fun () ->
      ignore (Event.kind_of_tag 15 : Event.kind))

let test_trace_through_real_run () =
  let open Ulipc_real in
  let nclients = 2 and messages = 100 in
  let events_out = ref [] and dropped_out = ref (-1) in
  let m =
    Real_driver.run ~peers:Domains ~events_out ~dropped_out ~nclients
      ~messages Rpc.Block
  in
  Alcotest.(check int) "all messages echoed" (nclients * messages)
    m.Metrics.messages;
  let events = !events_out in
  Alcotest.(check int) "nothing dropped" 0 !dropped_out;
  let count k =
    List.length
      (List.filter (fun e -> e.Ulipc_observe.Event.kind = k) events)
  in
  (* Every request and every reply is one enqueue and one dequeue — the
     driver's pre-barrier allocation probe included: probe round-trips
     run outside the measured interval but inside the trace.  The
     shutdown poison (one per shard, never replied to) adds a final
     enqueue/dequeue pair of its own. *)
  let total =
    2 * ((nclients * messages) + Real_driver.probe_warmup
       + Real_driver.probe_ops)
    + 1
  in
  Alcotest.(check int) "enqueue events" total
    (count Ulipc_observe.Event.Enqueue);
  Alcotest.(check int) "dequeue events" total
    (count Ulipc_observe.Event.Dequeue);
  (* Every completed block consumed a wake; raced wakes are drained
     without blocking (and show up as Wake_drain), so wakes dominate
     blocks. *)
  Alcotest.(check bool)
    (Printf.sprintf "wakes (%d) >= blocks (%d)"
       (count Ulipc_observe.Event.Wake)
       (count Ulipc_observe.Event.Block))
    true
    (count Ulipc_observe.Event.Wake >= count Ulipc_observe.Event.Block);
  List.iter
    (fun e ->
      Alcotest.(check bool) "channel id in range" true
        (e.Ulipc_observe.Event.chan >= -1
        && e.Ulipc_observe.Event.chan < nclients))
    events;
  let ts = List.map (fun e -> e.Ulipc_observe.Event.t_us) events in
  Alcotest.(check bool) "timestamps sorted" true
    (List.sort Float.compare ts = ts);
  (* The unified analysis over a real run: the invariant checker must
     come back clean and every block must have recovered a wake pair. *)
  let report =
    Ulipc_observe.Trace_analysis.analyse ~complete:true events
  in
  Alcotest.(check (list string))
    "no invariant violations" []
    (List.map
       (Fmt.str "%a" Ulipc_observe.Trace_analysis.pp_violation)
       report.Ulipc_observe.Trace_analysis.violations)

(* ------------------------------------------------------------------ *)
(* Real_driver latency *)

(* A failed fork'd peer is named by how it ended: the signals by their
   POSIX names, not by OCaml's negative ids (SIGKILL is -7). *)
let test_status_text () =
  let text = Ulipc_workload.Real_driver.status_text in
  Alcotest.(check string) "SIGKILL" "killed by SIGKILL"
    (text (Unix.WSIGNALED Sys.sigkill));
  Alcotest.(check string) "SIGSEGV" "killed by SIGSEGV"
    (text (Unix.WSIGNALED Sys.sigsegv));
  Alcotest.(check string) "a signal OCaml does not name" "killed by signal 34"
    (text (Unix.WSIGNALED 34));
  Alcotest.(check string) "stopped" "stopped by SIGSTOP"
    (text (Unix.WSTOPPED Sys.sigstop));
  Alcotest.(check string) "exit code" "exited with 2" (text (Unix.WEXITED 2))

let test_real_driver_latency ?nservers () =
  let nclients = 2 and messages = 50 in
  let m =
    Real_driver.run ~peers:Domains ?nservers ~nclients ~messages
      Ulipc_real.Rpc.Block
  in
  Alcotest.(check int) "messages" (nclients * messages) m.Metrics.messages;
  match m.Metrics.latency_us with
  | None -> Alcotest.fail "real run did not collect latency"
  | Some hist ->
    Alcotest.(check int)
      "one sample per message" (nclients * messages)
      (Ulipc_observe.Histogram.count hist);
    let p50 = Ulipc_observe.Histogram.percentile hist 50.0 in
    let p99 = Ulipc_observe.Histogram.percentile hist 99.0 in
    let maxv = Ulipc_observe.Histogram.max_value hist in
    Alcotest.(check bool)
      (Printf.sprintf "percentiles ordered (p50 %.1f <= p99 %.1f <= max %.1f)"
         p50 p99 maxv)
      true
      (p50 <= p99 && p99 <= maxv *. 1.0000001);
    Alcotest.(check bool) "latencies are non-negative" true
      (Ulipc_observe.Histogram.min_value hist >= 0.0);
    (match Metrics.latency_percentile m 50.0 with
    | Some _ -> ()
    | None -> Alcotest.fail "latency_percentile empty for a real row")

(* ------------------------------------------------------------------ *)
(* Bench_json: emitted file parses as JSON, percentiles are non-null *)

(* The shared minimal reader (Ulipc_observe.Json_min) validates real
   syntax — a raw [nan] token fails the parse — without a JSON
   dependency.  Thin wrappers turn parse/lookup failures into test
   failures. *)
module J = Ulipc_observe.Json_min

let parse_json s =
  match J.parse_result s with
  | Ok v -> v
  | Error msg -> Alcotest.failf "json parse: %s" msg

let member k j =
  match J.member_opt k j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let test_json_float_non_finite () =
  Alcotest.(check string) "nan" "null" (Bench_json.json_float nan);
  Alcotest.(check string) "+inf" "null" (Bench_json.json_float infinity);
  Alcotest.(check string) "-inf" "null" (Bench_json.json_float neg_infinity);
  Alcotest.(check string) "finite" "1.500" (Bench_json.json_float 1.5)

let test_bench_json_roundtrip () =
  let protocols = Ulipc_real.Rpc.[ Block; Block_yield ] in
  let real =
    List.map
      (fun waiting ->
        ( "inproc",
          "ring",
          Real_driver.run ~peers:Domains ~nclients:2 ~messages:50 waiting ))
      protocols
  in
  (* Non-finite micro rows exercise the null path end to end. *)
  let micro =
    [ ("spsc pair", 25.1); ("nan row", nan); ("inf row", infinity) ]
  in
  (* Schema 7: the semaphore directed-wake-latency sweep rides along. *)
  let sem =
    [ Ulipc_workload.Sem_bench.wake_latency ~target_samples:16 ~waiters:2 () ]
  in
  let path = Filename.temp_file "bench_real" ".json" in
  Bench_json.write ~path ~quick:true ~micro ~sem ~real ();
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  let j = parse_json contents in
  (match member "schema" j with
  | J.Str "ulipc-bench-real/9" -> ()
  | _ -> Alcotest.fail "wrong schema");
  (match member "sem_wake_latency" j with
  | J.Arr [ row ] ->
    (match
       (member "waiters" row, member "p99_us" row, member "violations" row)
     with
    | J.Num w, J.Num p99, J.Num v ->
      Alcotest.(check (float 0.0)) "sem row waiters" 2.0 w;
      Alcotest.(check bool) "sem row p99 positive" true (p99 > 0.0);
      Alcotest.(check (float 0.0)) "sem row clean trace" 0.0 v
    | _ -> Alcotest.fail "sem row fields not numbers")
  | _ -> Alcotest.fail "sem_wake_latency not a one-row array");
  (match member "micro_ns_per_op" j with
  | J.Arr rows ->
    let ns name =
      member "ns_per_op"
        (List.find (fun r -> member "name" r = J.Str name) rows)
    in
    (match ns "spsc pair" with
    | J.Num v -> Alcotest.(check (float 1e-6)) "finite ns survives" 25.1 v
    | _ -> Alcotest.fail "finite ns row not a number");
    Alcotest.(check bool) "nan serialises as null" true (ns "nan row" = J.Null);
    Alcotest.(check bool) "inf serialises as null" true (ns "inf row" = J.Null)
  | _ -> Alcotest.fail "micro_ns_per_op not an array");
  match member "real_driver" j with
  | J.Arr rows ->
    Alcotest.(check int) "one row per protocol" (List.length protocols)
      (List.length rows);
    List.iter
      (fun row ->
        (* The acceptance criterion: non-null latency percentiles. *)
        let num k =
          match member k row with
          | J.Num v -> v
          | _ -> Alcotest.failf "%s is not a number" k
        in
        let p50 = num "latency_p50_us" in
        let p99 = num "latency_p99_us" in
        let maxv = num "latency_max_us" in
        Alcotest.(check bool)
          (Printf.sprintf "percentiles ordered (%.1f/%.1f/%.1f)" p50 p99 maxv)
          true
          (p50 <= p99 && p99 <= maxv *. 1.0000001);
        (* Schema 3: depth column, and a measured (finite, in-range)
           utilization instead of schema 2's null. *)
        (match member "depth" row with
        | J.Num d -> Alcotest.(check (float 0.0)) "depth" 1.0 d
        | _ -> Alcotest.fail "depth is not a number");
        (* Schema 8: the backend column that keys cross-process rows
           apart from the in-process domains rows. *)
        (match member "backend" row with
        | J.Str "inproc" -> ()
        | _ -> Alcotest.fail "backend is not \"inproc\"");
        let u = num "utilization" in
        Alcotest.(check bool)
          (Printf.sprintf "utilization in [0,1] (%.3f)" u)
          true
          (u >= 0.0 && u <= 1.0);
        (* Schema 6: (nclients, nservers)-keyed rows and the pool's
           busiest-server utilization alongside the mean. *)
        (match member "nservers" row with
        | J.Num n -> Alcotest.(check (float 0.0)) "nservers" 1.0 n
        | _ -> Alcotest.fail "nservers is not a number");
        let umax = num "utilization_max" in
        Alcotest.(check bool)
          (Printf.sprintf "utilization_max in [mean, 1] (%.3f)" umax)
          true
          (umax >= u && umax <= 1.0);
        (* Schema 4: wake-latency percentiles recovered from the trace.
           The rows are BSW (a blocking protocol), so they must be
           non-null, non-negative and ordered. *)
        let w50 = num "wake_latency_p50_us" in
        let w99 = num "wake_latency_p99_us" in
        Alcotest.(check bool)
          (Printf.sprintf "wake latency ordered (%.1f/%.1f)" w50 w99)
          true
          (0.0 <= w50 && w50 <= w99);
        (* Schema 5: per-op minor-heap allocation probe.  Present and
           non-negative on every row; the ring row must be exactly zero
           — the tentpole property the CI gate holds the line on. *)
        let mw = num "minor_words_per_op" in
        Alcotest.(check bool)
          (Printf.sprintf "minor_words_per_op non-negative (%.3f)" mw)
          true (mw >= 0.0);
        if member "transport" row = J.Str "ring" then
          Alcotest.(check (float 0.0)) "ring row allocation-free" 0.0 mw;
        (* Schema 9: the sampled telemetry timeline.  Real rows are
           live-sampled, so the series must be present with strictly
           increasing timestamps, and the summed per-window "messages"
           deltas must reproduce the row's message total exactly (the
           counter is bumped once per measured message and the final
           tick closes the partial window). *)
        match member "series" row with
        | J.Arr frames ->
          Alcotest.(check bool) "series non-empty" true (frames <> []);
          let prev_t = ref neg_infinity in
          let summed = ref 0.0 in
          List.iter
            (fun fr ->
              (match member "t_us" fr with
              | J.Num t ->
                Alcotest.(check bool)
                  (Printf.sprintf "t_us monotonic (%.1f > %.1f)" t !prev_t)
                  true (t > !prev_t);
                prev_t := t
              | _ -> Alcotest.fail "frame t_us is not a number");
              (* Counter points are per-window deltas, so the timeline
                 sums back to the cumulative total. *)
              match member "messages" (member "points" fr) with
              | J.Num m -> summed := !summed +. m
              | _ -> Alcotest.fail "frame messages point is not a number")
            frames;
          Alcotest.(check (float 0.0))
            "summed window deltas reproduce row messages" (num "messages")
            !summed
        | _ -> Alcotest.fail "series is not an array")
      rows
  | _ -> Alcotest.fail "real_driver not an array"

let suites =
  [
    ( "core.histogram",
      [
        Alcotest.test_case "basics" `Quick test_histogram_basics;
        Alcotest.test_case "guards" `Quick test_histogram_guards;
        Alcotest.test_case "under/overflow" `Quick test_histogram_out_of_range;
        QCheck_alcotest.to_alcotest prop_histogram_matches_stat;
        Alcotest.test_case "concurrent record, merge at join" `Quick
          test_histogram_merge_across_domains;
      ] );
    ( "realipc.trace_ring",
      [
        Alcotest.test_case "bounded, keeps the newest" `Quick
          test_trace_ring_bounds;
        Alcotest.test_case "events through a real run" `Quick
          test_trace_through_real_run;
        Alcotest.test_case "record_as: per-actor seq and drops" `Quick
          test_trace_ring_record_as;
        Alcotest.test_case "every kind's tag round-trips" `Quick
          test_kind_tags_round_trip;
      ] );
    ( "workload.real_driver",
      [
        Alcotest.test_case "latency histogram (ring)" `Quick
          (test_real_driver_latency ?nservers:None);
        Alcotest.test_case "latency histogram (ring, 2 servers)" `Quick
          (test_real_driver_latency ~nservers:2);
        Alcotest.test_case "driver counters balance" `Quick
          (Driver_cases.counters_balance ~peers:Domains);
        Alcotest.test_case "driver trace invariants" `Quick
          (Driver_cases.trace_invariants ~peers:Domains);
        Alcotest.test_case "BSLS(0) never falls through" `Quick
          (Driver_cases.bsls0_never_falls_through ~peers:Domains
             ~within:Test_realipc.within_domain);
        Alcotest.test_case "a peer's exit status names its signal" `Quick
          test_status_text;
      ] );
    ( "workload.bench_json",
      [
        Alcotest.test_case "json_float non-finite -> null" `Quick
          test_json_float_non_finite;
        Alcotest.test_case "emit, parse back, percentiles non-null" `Quick
          test_bench_json_roundtrip;
      ] );
  ]
