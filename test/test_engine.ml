(* Unit and property tests for the discrete-event engine. *)

open Ulipc_engine

let q = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Sim_time *)

let test_time_units () =
  Alcotest.(check int) "us" 1_000 (Sim_time.us 1);
  Alcotest.(check int) "ms" 1_000_000 (Sim_time.ms 1);
  Alcotest.(check int) "sec" 1_000_000_000 (Sim_time.sec 1);
  Alcotest.(check int) "us_f rounds" 350 (Sim_time.us_f 0.35);
  Alcotest.(check (float 1e-9)) "to_us" 2.5 (Sim_time.to_us 2_500);
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Sim_time.to_ms 1_500_000)

let test_time_pp () =
  let s t = Format.asprintf "%a" Sim_time.pp t in
  Alcotest.(check string) "ns" "999ns" (s 999);
  Alcotest.(check string) "us" "1.50us" (s 1_500);
  Alcotest.(check string) "ms" "2.000ms" (s (Sim_time.ms 2));
  Alcotest.(check string) "s" "3.000s" (s (Sim_time.sec 3))

(* ------------------------------------------------------------------ *)
(* Event_heap *)

let test_heap_ordering () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:30 "c";
  Event_heap.push h ~time:10 "a";
  Event_heap.push h ~time:20 "b";
  Alcotest.(check (option int)) "peek" (Some 10) (Event_heap.peek_time h);
  let order = List.map snd (Event_heap.drain h) in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] order

let test_heap_fifo_ties () =
  let h = Event_heap.create ~initial_capacity:1 () in
  List.iter (fun s -> Event_heap.push h ~time:5 s) [ "1"; "2"; "3"; "4" ];
  let order = List.map snd (Event_heap.drain h) in
  Alcotest.(check (list string)) "fifo among equals" [ "1"; "2"; "3"; "4" ] order

let test_heap_interleaved () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:10 1;
  Event_heap.push h ~time:5 2;
  Alcotest.(check (option (pair int int))) "pop" (Some (5, 2)) (Event_heap.pop h);
  Event_heap.push h ~time:7 3;
  Alcotest.(check (option (pair int int))) "pop2" (Some (7, 3)) (Event_heap.pop h);
  Alcotest.(check (option (pair int int))) "pop3" (Some (10, 1)) (Event_heap.pop h);
  Alcotest.(check bool) "empty" true (Event_heap.is_empty h)

let test_heap_clear () =
  let h = Event_heap.create () in
  Event_heap.push h ~time:1 ();
  Event_heap.clear h;
  Alcotest.(check bool) "cleared" true (Event_heap.is_empty h);
  Alcotest.(check int) "len" 0 (Event_heap.length h)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap drains sorted by time, fifo ties" ~count:300
    QCheck.(list (int_bound 50))
    (fun times ->
      let h = Event_heap.create ~initial_capacity:2 () in
      List.iteri (fun i time -> Event_heap.push h ~time i) times;
      let drained = Event_heap.drain h in
      (* Sorted by time. *)
      let rec sorted = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && sorted rest
        | _ -> true
      in
      List.length drained = List.length times && sorted drained)

let prop_heap_push_pop_multiset =
  QCheck.Test.make ~name:"heap preserves elements" ~count:300
    QCheck.(list (pair (int_bound 100) small_int))
    (fun pairs ->
      let h = Event_heap.create () in
      List.iter (fun (time, v) -> Event_heap.push h ~time v) pairs;
      let drained = List.map snd (Event_heap.drain h) in
      List.sort compare drained = List.sort compare (List.map snd pairs))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create ~seed:7 in
  let c = Rng.split a in
  Alcotest.(check bool) "split differs" false (Rng.bits64 a = Rng.bits64 c)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"Rng.int in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_bounds =
  QCheck.Test.make ~name:"Rng.float in bounds" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 10.0 in
      v >= 0.0 && v < 10.0)

let test_rng_exponential_mean () =
  let r = Rng.create ~seed:13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f within 5%% of 5.0" mean)
    true
    (mean > 4.75 && mean < 5.25)

(* ------------------------------------------------------------------ *)
(* Stat *)

let test_stat_basic () =
  let s = Stat.create "x" in
  List.iter (Stat.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stat.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stat.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stat.min_value s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stat.max_value s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stat.total s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stat.variance s)

let test_stat_empty () =
  let s = Stat.create "empty" in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stat.mean s));
  Alcotest.(check bool) "var nan" true (Float.is_nan (Stat.variance s))

let test_stat_percentile () =
  let s = Stat.create ~keep_samples:true "p" in
  for i = 1 to 100 do
    Stat.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-6)) "p0" 1.0 (Stat.percentile s 0.0);
  Alcotest.(check (float 1e-6)) "p100" 100.0 (Stat.percentile s 100.0);
  Alcotest.(check (float 0.6)) "p50" 50.5 (Stat.percentile s 50.0);
  Alcotest.(check (float 1.0)) "p90" 90.1 (Stat.percentile s 90.0)

let test_stat_percentile_requires_samples () =
  let s = Stat.create "nokeep" in
  Stat.add s 1.0;
  Alcotest.check_raises "no samples kept"
    (Invalid_argument "Stat.percentile: accumulator does not keep samples")
    (fun () -> ignore (Stat.percentile s 50.0))

let test_stat_merge () =
  let a = Stat.create "a" and b = Stat.create "b" in
  List.iter (Stat.add a) [ 1.0; 2.0 ];
  List.iter (Stat.add b) [ 3.0; 4.0; 5.0 ];
  Stat.merge_into ~dst:a b;
  Alcotest.(check int) "count" 5 (Stat.count a);
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Stat.mean a);
  Alcotest.(check (float 1e-6)) "variance" 2.5 (Stat.variance a)

let prop_stat_welford_matches_naive =
  QCheck.Test.make ~name:"Welford mean/variance match naive computation"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 2 50) (float_bound_exclusive 1000.0))
    (fun xs ->
      let s = Stat.create "w" in
      List.iter (Stat.add s) xs;
      let n = float_of_int (List.length xs) in
      let mean = List.fold_left ( +. ) 0.0 xs /. n in
      let var =
        List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
        /. (n -. 1.0)
      in
      Float.abs (Stat.mean s -. mean) < 1e-6 *. (1.0 +. Float.abs mean)
      && Float.abs (Stat.variance s -. var) < 1e-6 *. (1.0 +. var))

(* ------------------------------------------------------------------ *)
(* Univ *)

let test_univ_roundtrip () =
  let inj, proj = Univ.embed () in
  let u = inj 42 in
  Alcotest.(check (option int)) "roundtrip" (Some 42) (proj u)

let test_univ_brands_distinct () =
  let inj_i, _proj_i = Univ.embed () in
  let _inj_s, proj_s = Univ.embed () in
  let u = inj_i 1 in
  Alcotest.(check (option string)) "wrong brand" None (proj_s u)

let suites =
  [
    ( "engine.sim_time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "pretty-printing" `Quick test_time_pp;
      ] );
    ( "engine.event_heap",
      [
        Alcotest.test_case "time ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "interleaved push/pop" `Quick test_heap_interleaved;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        q prop_heap_sorted;
        q prop_heap_push_pop_multiset;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        q prop_rng_int_bounds;
        q prop_rng_float_bounds;
      ] );
    ( "engine.stat",
      [
        Alcotest.test_case "basic summary" `Quick test_stat_basic;
        Alcotest.test_case "empty" `Quick test_stat_empty;
        Alcotest.test_case "percentiles" `Quick test_stat_percentile;
        Alcotest.test_case "percentile guard" `Quick
          test_stat_percentile_requires_samples;
        Alcotest.test_case "merge" `Quick test_stat_merge;
        q prop_stat_welford_matches_naive;
      ] );
    ( "engine.univ",
      [
        Alcotest.test_case "roundtrip" `Quick test_univ_roundtrip;
        Alcotest.test_case "distinct brands" `Quick test_univ_brands_distinct;
      ] );
  ]
