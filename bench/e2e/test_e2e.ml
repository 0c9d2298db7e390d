(* Unit tests of the benchmark's statistics and critical-path pairing,
   then --quick runs of the benchmark itself: the recorded workloads, the
   fork'd backend, and a hung repetition under the watchdog.  They check
   correctness only — every metric BENCHMARK.json names is reported, no
   call failed, the trace is complete and clean, the split reconciles, a
   hang is killed and counted — and assert no timing, so they cannot
   flake on a slow host.  Usage: test_e2e.exe ULIPC_BENCH_EXE BENCHMARK_JSON *)

module Stats = Ulipc_e2e.Stats
module Path = Ulipc_e2e.Path
module Event = Ulipc_observe.Event
module Json = Ulipc_observe.Json_min

let feq = Alcotest.float 1e-9

let test_median () =
  Alcotest.check feq "odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.median [||]))

(* Reference values from Python: statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let check name data (a, b, c) =
    let q1, q2, q3 = Stats.quartiles data in
    Alcotest.check feq (name ^ " q1") a q1;
    Alcotest.check feq (name ^ " q2") b q2;
    Alcotest.check feq (name ^ " q3") c q3
  in
  check "1..10" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "two values" [| 3.0; 1.0 |] (0.5, 2.0, 3.5);
  check "unsorted" [| 5.0; 1.0; 4.0; 2.0; 3.0 |] (1.5, 3.0, 4.5);
  let runs = [| 10.0; 12.5; 11.0; 30.0; 9.0; 10.5; 11.5; 10.2; 9.9; 10.1 |] in
  check "runs" runs (9.975, 10.35, 11.75);
  Alcotest.check feq "rel_iqr" ((11.75 -. 9.975) /. 10.35) (Stats.rel_iqr runs);
  Alcotest.check feq "rel_iqr of one value" 0.0 (Stats.rel_iqr [| 4.0 |])

let test_percentile () =
  let s = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "p50" 50.0 (Stats.percentile_sorted s 50.0);
  Alcotest.check feq "p99" 99.0 (Stats.percentile_sorted s 99.0);
  Alcotest.check feq "p100" 100.0 (Stats.percentile_sorted s 100.0);
  Alcotest.check feq "p0" 1.0 (Stats.percentile_sorted s 0.0)

let test_lat () =
  let h = Stats.Lat.create () in
  for v = 1 to 1000 do
    Stats.Lat.record h v
  done;
  Alcotest.check feq "exact below 1024 ns" 500.0 (Stats.Lat.percentile_ns h 50.0);
  Alcotest.check feq "p99 exact" 990.0 (Stats.Lat.percentile_ns h 99.0);
  let g = Stats.Lat.create () in
  List.iter (Stats.Lat.record g) [ 7_000; 7_000; 1_000_000; 3_000_000_000 ];
  let within v x = Float.abs (x -. v) /. v < 0.002 in
  Alcotest.(check bool) "0.2% resolution" true (within 7_000.0 (Stats.Lat.percentile_ns g 50.0));
  Alcotest.(check bool) "seconds" true (within 3e9 (Stats.Lat.percentile_ns g 100.0));
  Stats.Lat.merge_into ~dst:h g;
  Alcotest.(check int) "merged count" 1004 (Stats.Lat.count h);
  Alcotest.(check bool) "merged max" true (within 3e9 (Stats.Lat.percentile_ns h 100.0))

(* Synthetic traces: [ev actor kind chan t] appends to a stream with
   per-actor sequence numbers, as Trace_ring records them. *)
let stream () =
  let seqs = Hashtbl.create 4 and evs = ref [] in
  let ev actor kind chan t_us =
    let seq = Option.value ~default:0 (Hashtbl.find_opt seqs actor) in
    Hashtbl.replace seqs actor (seq + 1);
    evs := { Event.t_us; actor; seq; chan; kind } :: !evs
  in
  (ev, fun () -> List.sort Event.compare !evs)

let call ?(msgs = 1) client actor t_start_us t_end_us =
  { Path.client; actor; t_start_us; t_end_us; msgs }

(* One synchronous echo: client [actor] on reply channel [chan], parts
   1, 2, 3, 4, 5 µs from [t]. *)
let sync_echo ev ~client ~server ~chan t =
  ev client Event.Enqueue (-1) (t +. 1.0);
  ev server Event.Dequeue (-1) (t +. 3.0);
  ev server Event.Wake chan (t +. 5.5);
  ev server Event.Enqueue chan (t +. 6.0);
  ev client Event.Block chan (t +. 7.0);
  ev client Event.Dequeue chan (t +. 10.0)

let test_path_sync () =
  let ev, events = stream () in
  (* One warm-up call, then two timed ones. *)
  List.iter (fun t -> sync_echo ev ~client:1 ~server:2 ~chan:0 t) [ 0.0; 100.0; 200.0 ];
  let calls = [ call 0 1 100.0 115.0; call 0 1 200.0 215.0 ] in
  let p = Path.split ~skip:[| 1 |] ~calls (events ()) in
  Alcotest.(check int) "paired" 2 p.Path.paired;
  Alcotest.(check int) "misordered" 0 p.Path.misordered;
  Alcotest.check feq "client_send" 1.0 p.Path.client_send_us;
  Alcotest.check feq "request_wait" 2.0 p.Path.request_wait_us;
  Alcotest.check feq "service" 3.0 p.Path.service_us;
  Alcotest.check feq "reply_wait" 4.0 p.Path.reply_wait_us;
  Alcotest.check feq "client_recv" 5.0 p.Path.client_recv_us;
  Alcotest.check feq "rt" 15.0 p.Path.rt_mean_us;
  Alcotest.check feq "reconciles" 0.0 p.Path.unexplained_us

(* Two clients into one server: requests interleave on the shared
   channel, and each reply Enqueue claims the request Dequeue before
   it. *)
let test_path_fanin () =
  let ev, events = stream () in
  ev 1 Event.Enqueue (-1) 0.0;
  ev 3 Event.Enqueue (-1) 0.5;
  ev 2 Event.Dequeue (-1) 1.0;
  ev 2 Event.Enqueue 0 2.0;
  ev 1 Event.Dequeue 0 2.5;
  ev 2 Event.Dequeue (-1) 3.0;
  ev 2 Event.Enqueue 1 4.0;
  ev 3 Event.Dequeue 1 4.5;
  let calls = [ call 0 1 0.0 3.0; call 1 3 0.0 5.0 ] in
  let p = Path.split ~skip:[| 0; 0 |] ~calls (events ()) in
  Alcotest.(check int) "paired" 2 p.Path.paired;
  Alcotest.(check int) "misordered" 0 p.Path.misordered;
  Alcotest.check feq "request_wait" ((1.0 +. 2.5) /. 2.0) p.Path.request_wait_us;
  Alcotest.check feq "service" 1.0 p.Path.service_us;
  Alcotest.check feq "rt" 4.0 p.Path.rt_mean_us;
  Alcotest.check feq "reconciles" 0.0 p.Path.unexplained_us

(* A pipelined burst of two: each message is timed by the burst. *)
let test_path_burst () =
  let ev, events = stream () in
  ev 1 Event.Enqueue (-1) 1.0;
  ev 1 Event.Enqueue (-1) 1.0;
  ev 2 Event.Dequeue (-1) 2.0;
  ev 2 Event.Dequeue (-1) 2.1;
  ev 2 Event.Enqueue 0 3.0;
  ev 2 Event.Enqueue 0 3.1;
  ev 1 Event.Dequeue 0 4.0;
  ev 1 Event.Dequeue 0 4.1;
  let p = Path.split ~skip:[| 0 |] ~calls:[ call ~msgs:2 0 1 0.0 5.0 ] (events ()) in
  Alcotest.(check int) "paired" 2 p.Path.paired;
  Alcotest.check feq "request_wait" 1.05 p.Path.request_wait_us;
  Alcotest.check feq "client_recv" 0.95 p.Path.client_recv_us;
  Alcotest.check feq "rt is the burst" 5.0 p.Path.rt_mean_us;
  Alcotest.check feq "reconciles" 0.0 p.Path.unexplained_us

let test_path_failures () =
  let ev, events = stream () in
  sync_echo ev ~client:1 ~server:2 ~chan:0 10.0;
  (* The stamps claim the call ended before its reply was dequeued. *)
  let p = Path.split ~skip:[| 0 |] ~calls:[ call 0 1 10.0 15.0; call 0 1 30.0 40.0 ] (events ()) in
  Alcotest.(check int) "misordered" 1 p.Path.misordered;
  Alcotest.(check int) "unpaired" 1 p.Path.unpaired;
  Alcotest.(check bool) "unreconciled" true (Float.abs p.Path.unexplained_us > 1.0)

(* ------------------------------------------------------------------ *)
(* Smoke run                                                           *)
(* ------------------------------------------------------------------ *)

let bench_exe = ref ""
let benchmark_json = ref ""

let read_json file = Json.parse (In_channel.with_open_bin file In_channel.input_all)

let names section doc =
  match Json.member_opt section doc with
  | Some (Json.Arr l) ->
    List.filter_map (fun o -> match Json.member_opt "name" o with Some (Json.Str s) -> Some s | _ -> None) l
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" section

let num path doc =
  List.fold_left
    (fun acc k -> Option.bind acc (Json.member_opt k))
    (Some doc) path
  |> function
  | Some (Json.Num v) -> v
  | _ -> Alcotest.failf "missing number %s" (String.concat "." path)

let test_smoke () =
  let out = "smoke.json" in
  let args = [| !bench_exe; "--quick"; "--json"; out |] in
  let pid = Unix.create_process !bench_exe args Unix.stdin Unix.stdout Unix.stderr in
  let status = snd (Unix.waitpid [] pid) in
  Alcotest.(check bool) "benchmark exits 0" true (status = Unix.WEXITED 0);
  let spec = read_json !benchmark_json and res = read_json out in
  let wanted = names "end_to_end" spec @ names "per_layer" spec in
  let workloads = names "workloads" spec in
  List.iter
    (fun w ->
      let get path = num ("workloads" :: w :: path) res in
      List.iter (fun m -> ignore (get [ "metrics"; m; "value" ] : float)) wanted;
      Alcotest.check feq (w ^ " failed") 0.0 (get [ "failed" ]);
      Alcotest.(check bool) (w ^ " attempted") true (get [ "attempted" ] >= 1.0);
      Alcotest.check feq (w ^ " violations") 0.0 (get [ "metrics"; "trace.violations"; "value" ]);
      Alcotest.check feq (w ^ " dropped") 0.0 (get [ "metrics"; "trace.dropped"; "value" ]);
      let parts =
        List.fold_left
          (fun a p -> a +. get [ "metrics"; "path." ^ p ^ "_us"; "value" ])
          0.0
          [ "client_send"; "request_wait"; "service"; "reply_wait"; "client_recv" ]
      in
      let unexplained = get [ "metrics"; "path.unexplained_us"; "value" ] in
      Alcotest.(check bool) (w ^ " split reconciles") true
        (Float.abs unexplained <= 0.05 *. (parts +. unexplained)))
    workloads

(* Run the benchmark with [args]; its exit status and the JSON object on
   the last line of its stdout, plus the whole stdout. *)
let run_bench args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process !bench_exe (Array.of_list (!bench_exe :: args)) Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let status = snd (Unix.waitpid [] pid) in
  print_string out;
  let lines = String.split_on_char '\n' (String.trim out) in
  (status, Json.parse (List.nth lines (List.length lines - 1)), out)

let bool_member k doc =
  match Json.member_opt k doc with Some (Json.Bool b) -> b | _ -> Alcotest.failf "no bool %s" k

(* Running processes, zombies aside, whose arguments include all of
   [args]: a repetition's forked server shares its parent's arguments. *)
let live_with_args args =
  Sys.readdir "/proc"
  |> Array.to_list
  |> List.filter (fun d ->
         int_of_string_opt d <> None
         &&
         match
           ( In_channel.with_open_bin ("/proc/" ^ d ^ "/cmdline") In_channel.input_all,
             In_channel.with_open_text ("/proc/" ^ d ^ "/stat") In_channel.input_all )
         with
         | exception Sys_error _ -> false
         | cmdline, stat ->
           let argv = String.split_on_char '\000' cmdline in
           let state = stat.[String.rindex stat ')' + 2] in
           state <> 'Z' && List.for_all (fun a -> List.mem a argv) args)

(* A repetition that hangs once its window opens, over the fork'd
   backend so that a server process is left blocked too: the watchdog
   kills the whole group, counts the call in flight as failed, and the
   run fails. *)
let test_watchdog () =
  let status, res, out =
    run_bench
      [ "--workload"; "sync-proc"; "--quick"; "--seconds"; "1"; "--trace"; "0"; "--stall" ]
  in
  Alcotest.(check bool) "exits 1" true (status = Unix.WEXITED 1);
  Alcotest.(check bool) "not correct" false (bool_member "correct" res);
  Alcotest.check feq "the call in flight failed" 1.0 (num [ "failed" ] res);
  Alcotest.check feq "attempted" 1.0 (num [ "attempted" ] res);
  let reported =
    List.exists
      (fun l -> String.starts_with ~prefix:"  FAILED CHECK: repetition 1 hung" l)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "the hang is reported" true reported;
  Alcotest.(check (list string))
    "no process of the repetition left" [] (live_with_args [ "--rep"; "--stall" ])

(* The fork'd backend end to end: window controls, the server's
   marshalled report, the merged two-process trace and its split.  Over
   BSS, which never parks, so the known lost wake-up cannot strike. *)
let test_proc () =
  let status, res, _ =
    run_bench
      [ "--workload"; "sync-proc"; "--quick"; "--seconds"; "1"; "--trace"; "1"; "--protocol"; "bss" ]
  in
  Alcotest.(check bool) "exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "correct" true (bool_member "correct" res);
  Alcotest.check feq "failed" 0.0 (num [ "failed" ] res);
  let spec = read_json !benchmark_json in
  List.iter (fun m -> ignore (num [ "metrics"; m; "value" ] res : float)) (names "per_layer" spec);
  Alcotest.check feq "violations" 0.0 (num [ "metrics"; "trace.violations"; "value" ] res);
  Alcotest.check feq "dropped" 0.0 (num [ "metrics"; "trace.dropped"; "value" ] res)

let () =
  match Sys.argv with
  | [| _; exe; spec |] ->
    bench_exe := if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe;
    benchmark_json := spec;
    Alcotest.run ~argv:[| Sys.argv.(0) |] "ulipc_bench"
      [
        ( "stats",
          [
            Alcotest.test_case "median" `Quick test_median;
            Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
            Alcotest.test_case "percentile" `Quick test_percentile;
            Alcotest.test_case "latency histogram" `Quick test_lat;
          ] );
        ( "path",
          [
            Alcotest.test_case "sync split" `Quick test_path_sync;
            Alcotest.test_case "fan-in pairing" `Quick test_path_fanin;
            Alcotest.test_case "pipelined burst" `Quick test_path_burst;
            Alcotest.test_case "misordered and unpaired" `Quick test_path_failures;
          ] );
        ( "smoke",
          [
            Alcotest.test_case "--quick run" `Slow test_smoke;
            Alcotest.test_case "fork'd backend" `Slow test_proc;
            Alcotest.test_case "watchdog kills a hung repetition" `Slow test_watchdog;
          ] );
      ]
  | _ ->
    prerr_endline "usage: test_e2e.exe ULIPC_BENCH_EXE BENCHMARK_JSON";
    exit 2
