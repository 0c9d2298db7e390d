(* Tests for the live telemetry plane (PR 10): the Series frame ring,
   the instrument registry with its double-buffered windowed histograms,
   the Prometheus exposition, and the Counters snapshot/diff algebra the
   ext-counter instruments ride on. *)

module T = Ulipc_observe.Telemetry
module S = Ulipc_observe.Series
module H = Ulipc_observe.Histogram
module C = Ulipc.Counters

(* ------------------------------------------------------------------ *)
(* Series ring. *)

let test_series_ring () =
  let s = S.create ~capacity:4 () in
  Alcotest.(check int) "empty recorded" 0 (S.recorded s);
  Alcotest.(check bool) "empty latest" true (S.latest s = None);
  let mk i =
    {
      S.t_us = float_of_int i;
      window_us = 1.0;
      points = [| ("x", float_of_int (10 * i)) |];
    }
  in
  for i = 1 to 6 do
    S.push s (mk i)
  done;
  Alcotest.(check int) "recorded counts overwrites" 6 (S.recorded s);
  Alcotest.(check int) "dropped = recorded - capacity" 2 (S.dropped s);
  let frames = S.frames s in
  Alcotest.(check (list (float 0.0)))
    "oldest first, oldest two overwritten" [ 3.0; 4.0; 5.0; 6.0 ]
    (List.map (fun f -> f.S.t_us) frames);
  (match S.latest s with
  | Some f -> Alcotest.(check (option (float 0.0))) "point" (Some 60.0)
                (S.point f "x")
  | None -> Alcotest.fail "latest after pushes");
  Alcotest.(check (option (float 0.0)))
    "missing point" None
    (S.point (mk 1) "absent")

(* ------------------------------------------------------------------ *)
(* Counter / gauge deltas through tick. *)

let test_tick_deltas () =
  let t = T.create () in
  let c = T.counter t "msgs" in
  let g = ref 7.0 in
  T.gauge t "depth" (fun () -> !g);
  let total = ref [ ("harvested", 0) ] in
  T.ext_counters t (fun () -> !total);
  T.add c 5;
  let f1 = T.tick t in
  Alcotest.(check (option (float 0.0))) "first delta" (Some 5.0)
    (S.point f1 "msgs");
  Alcotest.(check (option (float 0.0))) "gauge read" (Some 7.0)
    (S.point f1 "depth");
  Alcotest.(check (option (float 0.0))) "ext first" (Some 0.0)
    (S.point f1 "harvested");
  T.add c 3;
  T.incr c;
  g := 2.0;
  total := [ ("harvested", 11) ];
  let f2 = T.tick t in
  Alcotest.(check (option (float 0.0))) "second delta" (Some 4.0)
    (S.point f2 "msgs");
  Alcotest.(check (option (float 0.0))) "gauge re-read" (Some 2.0)
    (S.point f2 "depth");
  Alcotest.(check (option (float 0.0))) "ext delta" (Some 11.0)
    (S.point f2 "harvested");
  Alcotest.(check int) "cumulative value" 9 (T.counter_value c);
  Alcotest.(check bool) "window_us positive" true (f2.S.window_us > 0.0);
  Alcotest.(check bool) "t_us advances" true (f2.S.t_us > f1.S.t_us)

(* ------------------------------------------------------------------ *)
(* Windowed histogram: N windows of flip-merge must equal one
   unwindowed histogram over the same stream.  Flips happen on the
   recording thread, so there is no in-flight race and the equality is
   exact — count, sum, and every percentile (same bucket geometry). *)

let prop_whist_flip_merge =
  QCheck.Test.make ~count:50 ~name:"N-window flip-merge == unwindowed"
    QCheck.(
      pair (list_of_size Gen.(1 -- 8) (list (float_range 0.5 5e6)))
        (float_range 0.0 100.0))
    (fun (windows, p) ->
      let t = T.create () in
      let w = T.whist t "lat" in
      let reference = H.create "ref" in
      let window_counts =
        List.map
          (fun samples ->
            List.iter
              (fun v ->
                T.record w v;
                H.record reference v)
              samples;
            let f = T.tick t in
            match S.point f "lat_count" with
            | Some c -> int_of_float c
            | None -> -1)
          windows
      in
      let cum = T.whist_cumulative w in
      let total = List.fold_left ( + ) 0 window_counts in
      H.count cum = H.count reference
      && total = H.count reference
      (* Sums are accumulated in different orders (per-window partials
         merged vs. one running total), so compare them relatively. *)
      && abs_float (H.total cum -. H.total reference)
         <= 1e-9 *. Float.max 1.0 (abs_float (H.total reference))
      && (H.count cum = 0
         || H.percentile cum p = H.percentile reference p))

(* Writers hammer [record] from several domains while the main thread
   flips concurrently.  The documented race bound: each writer can lose
   or double-count at most one in-flight sample per flip, so the
   cumulative count after the final quiescent tick must land within
   [writers * flips] of the true total — and in practice almost exactly
   on it.  (A torn or out-of-thin-air value would crash percentile.) *)
let test_whist_record_during_flip () =
  let t = T.create () in
  let w = T.whist t "race" in
  let writers = 4 and per_writer = 20_000 in
  let flips = ref 0 in
  let running = Atomic.make writers in
  let domains =
    List.init writers (fun i ->
        Domain.spawn (fun () ->
            for k = 1 to per_writer do
              T.record w (float_of_int (((i * per_writer) + k) mod 1000 + 1))
            done;
            Atomic.decr running))
  in
  while Atomic.get running > 0 do
    ignore (T.tick t);
    incr flips;
    Domain.cpu_relax ()
  done;
  List.iter Domain.join domains;
  ignore (T.tick t) (* quiescent: collects every straggler *);
  let total = writers * per_writer in
  let bound = writers * (!flips + 1) in
  let got = H.count (T.whist_cumulative w) in
  Alcotest.(check bool)
    (Printf.sprintf "count %d within %d of %d (%d flips)" got bound total
       !flips)
    true
    (abs (got - total) <= bound);
  (* The histogram itself must be internally consistent. *)
  Alcotest.(check bool)
    "p99 within recorded range" true
    (let p = H.percentile (T.whist_cumulative w) 99.0 in
     p >= 1.0 && p <= H.max_value (T.whist_cumulative w) *. 1.0000001)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition. *)

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_prometheus () =
  let t = T.create () in
  let c = T.counter t "messages" in
  T.add c 42;
  T.gauge t "ring depth/0" (fun () -> 3.0);
  T.ext_counters t (fun () -> [ ("sem_parks", 7) ]);
  let w = T.whist t "latency_us" in
  T.record w 10.0;
  T.record w 20.0;
  ignore (T.tick t);
  let out = T.to_prometheus t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (contains ~needle out))
    [
      "# TYPE ulipc_messages_total counter";
      "ulipc_messages_total 42";
      (* Invalid metric characters sanitised to '_'. *)
      "# TYPE ulipc_ring_depth_0 gauge";
      "ulipc_ring_depth_0 3";
      "ulipc_sem_parks_total 7";
      "# TYPE ulipc_latency_us summary";
      "ulipc_latency_us{quantile=\"0.99\"}";
      "ulipc_latency_us_count 2";
    ];
  (* The summary quotes the cumulative histogram: the flip above moved
     both samples into it, and sum is exact. *)
  Alcotest.(check bool) "summary sum" true
    (contains ~needle:"ulipc_latency_us_sum 30" out)

(* ------------------------------------------------------------------ *)
(* Counters snapshot/diff: [add before (diff after before) = after]
   whenever [after] descends from [before] (all monotonic fields grew,
   hwm never regressed) — the harvest algebra the drivers rely on. *)

let counters_gen =
  QCheck.Gen.(
    let field = 0 -- 10_000 in
    let* base = array_repeat 17 field in
    let* inc = array_repeat 17 field in
    return (base, inc))

let prop_counters_diff_roundtrip =
  QCheck.Test.make ~count:200 ~name:"add before (diff after before) = after"
    (QCheck.make counters_gen) (fun (base, inc) ->
      let mk a =
        let c = C.create () in
        List.iteri
          (fun i (name, _) ->
            (* Drive each field through the public mutable record. *)
            match name with
            | "sends" -> c.C.sends <- a.(i)
            | "receives" -> c.C.receives <- a.(i)
            | "replies" -> c.C.replies <- a.(i)
            | "client_blocks" -> c.C.client_blocks <- a.(i)
            | "server_blocks" -> c.C.server_blocks <- a.(i)
            | "client_wakeups" -> c.C.client_wakeups <- a.(i)
            | "server_wakeups" -> c.C.server_wakeups <- a.(i)
            | "race_fix_p" -> c.C.race_fix_p <- a.(i)
            | "queue_full_sleeps" -> c.C.queue_full_sleeps <- a.(i)
            | "spin_iterations" -> c.C.spin_iterations <- a.(i)
            | "spin_fallthroughs" -> c.C.spin_fallthroughs <- a.(i)
            | "server_spin_iterations" -> c.C.server_spin_iterations <- a.(i)
            | "server_spin_fallthroughs" ->
              c.C.server_spin_fallthroughs <- a.(i)
            | "backoff_sleeps" -> c.C.backoff_sleeps <- a.(i)
            | "slab_hwm" -> c.C.slab_hwm <- a.(i)
            | "sem_parks" -> c.C.sem_parks <- a.(i)
            | "sem_grants" -> c.C.sem_grants <- a.(i)
            | other -> Alcotest.failf "unknown counters field %s" other)
          (C.to_fields (C.create ()));
        c
      in
      let before = mk base in
      (* [after] descends from [before]: every field grew by a
         non-negative increment (hwm included, so it never regressed). *)
      let after = mk (Array.mapi (fun i b -> b + inc.(i)) base) in
      let before' = C.snapshot before in
      let d = C.diff (C.snapshot after) before' in
      C.add before' d;
      C.to_fields before' = C.to_fields after)

let test_counters_snapshot_isolated () =
  let live = C.create () in
  live.C.sends <- 5;
  let snap = C.snapshot live in
  live.C.sends <- 9;
  Alcotest.(check int) "snapshot unaffected by later bumps" 5 snap.C.sends;
  let d = C.diff (C.snapshot live) snap in
  Alcotest.(check int) "diff picks up the delta" 4 d.C.sends;
  Alcotest.(check int) "hwm diff carries the later value" live.C.slab_hwm
    d.C.slab_hwm

let suites =
  [
    ( "observe.series",
      [
        Alcotest.test_case "bounded ring, overwrite oldest" `Quick
          test_series_ring;
      ] );
    ( "observe.telemetry",
      [
        Alcotest.test_case "counter/gauge/ext deltas" `Quick test_tick_deltas;
        QCheck_alcotest.to_alcotest prop_whist_flip_merge;
        Alcotest.test_case "record during flip (multi-domain)" `Quick
          test_whist_record_during_flip;
        Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
      ] );
    ( "core.counters",
      [
        QCheck_alcotest.to_alcotest prop_counters_diff_roundtrip;
        Alcotest.test_case "snapshot isolation + hwm diff" `Quick
          test_counters_snapshot_isolated;
      ] );
  ]
