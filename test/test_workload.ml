(* Tests for the benchmark driver, metrics, and the paper-figure
   experiments (run at reduced message counts). *)

open Ulipc_engine
open Ulipc_workload

let sgi = Ulipc_machines.Sgi_indy.machine

(* ------------------------------------------------------------------ *)
(* Driver basics *)

let test_driver_validation () =
  Alcotest.check_raises "no clients"
    (Invalid_argument "Driver.run: nclients must be positive") (fun () ->
      ignore
        (Driver.run
           (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS
              ~nclients:0 ~messages_per_client:1 ())));
  Alcotest.check_raises "fixed priority unsupported"
    (Invalid_argument
       "Driver.run: linux486-stock does not support fixed priorities")
    (fun () ->
      ignore
        (Driver.run
           (Driver.config ~machine:Ulipc_machines.Linux486.stock
              ~kind:Ulipc.Protocol_kind.BSS ~fixed_priority:true ~nclients:1
              ~messages_per_client:1 ())))

let test_driver_determinism () =
  let run () =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS ~nclients:3
         ~messages_per_client:300 ())
  in
  let a = run () and b = run () in
  Alcotest.(check int) "identical elapsed" a.Metrics.elapsed b.Metrics.elapsed;
  Alcotest.(check int) "identical steps" a.Metrics.sim_steps b.Metrics.sim_steps

let test_metrics_consistency () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
         ~messages_per_client:200 ())
  in
  Alcotest.(check int) "messages" 400 m.Metrics.messages;
  let rt = Metrics.round_trip_us m in
  let tp = m.Metrics.throughput_msg_per_ms in
  (* rt(us) = nclients * 1000 / throughput(msg/ms) by construction *)
  Alcotest.(check (float 0.01))
    "rt and throughput agree"
    (2.0 *. 1000.0 /. tp)
    rt

let test_latency_collection () =
  let m =
    Driver.run
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS ~nclients:1
         ~messages_per_client:300 ~collect_latency:true ())
  in
  match m.Metrics.latency_us with
  | None -> Alcotest.fail "latency not collected"
  | Some hist ->
    Alcotest.(check int)
      "one sample per message" 300
      (Ulipc_observe.Histogram.count hist);
    let mean = Ulipc_observe.Histogram.mean hist in
    let rt = Metrics.round_trip_us m in
    Alcotest.(check bool)
      (Printf.sprintf "latency mean %.1f ~ round-trip %.1f" mean rt)
      true
      (Float.abs (mean -. rt) /. rt < 0.25);
    (* Percentiles are available and ordered. *)
    Alcotest.(check bool)
      "p99 >= p50" true
      (Ulipc_observe.Histogram.percentile hist 99.0
      >= Ulipc_observe.Histogram.percentile hist 50.0)

let test_server_work_slows_throughput () =
  let run work =
    (Driver.run
       (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS ~nclients:2
          ~messages_per_client:200 ~server_work:work ()))
      .Metrics.throughput_msg_per_ms
  in
  let fast = run Sim_time.zero and slow = run (Sim_time.us 200) in
  Alcotest.(check bool)
    (Printf.sprintf "server work lowers throughput (%.1f -> %.1f)" fast slow)
    true (slow < 0.8 *. fast)

let test_sweep_points () =
  let ms =
    Driver.sweep
      (Driver.config ~machine:sgi ~kind:Ulipc.Protocol_kind.BSS ~nclients:1
         ~messages_per_client:100 ())
      ~clients:[ 1; 3 ]
  in
  Alcotest.(check (list int)) "client counts" [ 1; 3 ]
    (List.map (fun m -> m.Metrics.nclients) ms)

(* ------------------------------------------------------------------ *)
(* Table 1 *)

let test_table1_anchors () =
  let rows = Experiments.table1 () in
  let find op =
    List.find (fun r -> r.Experiments.operation = op) rows
  in
  let qp = find "enqueue/dequeue pair" in
  Alcotest.(check bool)
    (Printf.sprintf "SGI queue pair ~3us (measured %.1f)" qp.Experiments.sgi_us)
    true
    (qp.Experiments.sgi_us >= 2.0 && qp.Experiments.sgi_us <= 4.5);
  let mp = find "msgsnd/msgrcv pair" in
  Alcotest.(check bool)
    (Printf.sprintf "SGI msgq pair ~37us (measured %.1f)" mp.Experiments.sgi_us)
    true
    (mp.Experiments.sgi_us >= 33.0 && mp.Experiments.sgi_us <= 41.0);
  let y1 = find "concurrent yields, 1 process" in
  Alcotest.(check bool)
    (Printf.sprintf "SGI solo yield ~16us (measured %.1f)" y1.Experiments.sgi_us)
    true
    (y1.Experiments.sgi_us >= 14.0 && y1.Experiments.sgi_us <= 18.0);
  let y2 = find "concurrent yields, 2 processes" in
  let y4 = find "concurrent yields, 4 processes" in
  Alcotest.(check bool)
    "concurrent yields grow with processes" true
    (y2.Experiments.sgi_us > y1.Experiments.sgi_us
    && y4.Experiments.sgi_us >= y2.Experiments.sgi_us)

(* ------------------------------------------------------------------ *)
(* Every figure's shape checks hold (reduced message count). *)

let figure_test build () =
  let f = build () in
  match Experiments.failed_checks f with
  | [] -> ()
  | failed ->
    Alcotest.failf "%s: %d failed checks: %s" f.Experiments.id
      (List.length failed)
      (String.concat "; "
         (List.map (fun c -> c.Experiments.claim) failed))

let messages = 2_000

let figure_cases =
  let pair name (build : ?messages:int -> unit -> Experiments.figure * Experiments.figure) =
    [
      Alcotest.test_case (name ^ "a shape") `Slow
        (figure_test (fun () -> fst (build ~messages ())));
      Alcotest.test_case (name ^ "b shape") `Slow
        (figure_test (fun () -> snd (build ~messages ())));
    ]
  in
  pair "fig2" Experiments.fig2
  @ pair "fig3" Experiments.fig3
  @ pair "fig6" Experiments.fig6
  @ pair "fig8" Experiments.fig8
  @ [
      Alcotest.test_case "fig10 shape" `Slow
        (figure_test (fun () -> Experiments.fig10 ~messages ()));
      Alcotest.test_case "fig11 shape" `Slow
        (figure_test (fun () -> Experiments.fig11 ~messages ()));
      Alcotest.test_case "fig12 shape" `Slow
        (figure_test (fun () -> Experiments.fig12 ~messages ()));
    ]

(* ------------------------------------------------------------------ *)
(* Machine definitions *)

let test_machine_invariants () =
  List.iter
    (fun (m : Ulipc_machines.Machine.t) ->
      Alcotest.(check bool)
        (m.Ulipc_machines.Machine.name ^ " multiprocessor flag")
        (m.Ulipc_machines.Machine.ncpus > 1)
        m.Ulipc_machines.Machine.multiprocessor;
      (* Policies are factories: two instances must not share state. *)
      let p1 = m.Ulipc_machines.Machine.policy () in
      let p2 = m.Ulipc_machines.Machine.policy () in
      let proc = Ulipc_os.Proc.make ~pid:1 ~name:"x" ~body:(fun () -> ()) in
      p1.Ulipc_os.Policy.enqueue proc Ulipc_os.Policy.New ~now:0;
      Alcotest.(check int)
        (m.Ulipc_machines.Machine.name ^ " fresh policy state")
        0
        (p2.Ulipc_os.Policy.ready_count ()))
    Ulipc_machines.Catalog.all;
  List.iter
    (fun (m : Ulipc_machines.Machine.t) ->
      match Ulipc_machines.Catalog.find m.Ulipc_machines.Machine.name with
      | Ok found ->
        Alcotest.(check bool) (m.Ulipc_machines.Machine.name ^ " found") true
          (found == m)
      | Error (`Msg e) -> Alcotest.fail e)
    Ulipc_machines.Catalog.all;
  match Ulipc_machines.Catalog.find "pdp-11" with
  | Ok _ -> Alcotest.fail "found an unknown machine"
  | Error (`Msg e) ->
    Alcotest.(check bool) "the error lists the machines" true
      (List.for_all
         (fun m ->
           let name = m.Ulipc_machines.Machine.name in
           let rec has i =
             i + String.length name <= String.length e
             && (String.sub e i (String.length name) = name || has (i + 1))
           in
           has 0)
         Ulipc_machines.Catalog.all)

let test_fixed_priority_starvation () =
  (* The deadlock the paper warns super-users about: one fixed-priority
     spinner starves a timeshare process forever. *)
  let k =
    Ulipc_os.Kernel.create ~ncpus:1
      ~policy:(Ulipc_os.Sched_decay.create Ulipc_machines.Sgi_indy.sched_params)
      ~costs:Ulipc_machines.Sgi_indy.costs ()
  in
  let flag = ref false in
  let spinner =
    Ulipc_os.Kernel.spawn k ~name:"rt-spinner" (fun () ->
        while not !flag do
          Ulipc_os.Usys.yield ()
        done)
  in
  spinner.Ulipc_os.Proc.fixed_prio <- true;
  let _victim =
    Ulipc_os.Kernel.spawn k ~name:"timeshare" (fun () -> flag := true)
  in
  match Ulipc_os.Kernel.run ~until:(Sim_time.ms 100) k with
  | Ulipc_os.Kernel.Time_limit ->
    Alcotest.(check bool) "victim starved" false !flag
  | r ->
    Alcotest.failf "expected starvation until the horizon, got %a"
      Ulipc_os.Kernel.pp_result r

let suites =
  [
    ( "workload.driver",
      [
        Alcotest.test_case "validation" `Quick test_driver_validation;
        Alcotest.test_case "determinism" `Quick test_driver_determinism;
        Alcotest.test_case "metrics consistency" `Quick test_metrics_consistency;
        Alcotest.test_case "latency collection" `Quick test_latency_collection;
        Alcotest.test_case "server work slows" `Quick
          test_server_work_slows_throughput;
        Alcotest.test_case "sweep" `Quick test_sweep_points;
      ] );
    ("workload.table1", [ Alcotest.test_case "anchors" `Slow test_table1_anchors ]);
    ("workload.figures", figure_cases);
    ( "machines",
      [
        Alcotest.test_case "invariants" `Quick test_machine_invariants;
        Alcotest.test_case "fixed-priority starvation hazard" `Quick
          test_fixed_priority_starvation;
      ] );
  ]

(* ------------------------------------------------------------------ *)
(* Server architectures *)

let challenge = Ulipc_machines.Sgi_challenge.machine

let test_arch_all_complete () =
  List.iter
    (fun architecture ->
      let r =
        Arch.run ~machine:challenge ~kind:(Ulipc.Protocol_kind.BSLS 10)
          ~architecture ~nclients:3 ~messages_per_client:300 ()
      in
      Alcotest.(check int)
        (Arch.architecture_name architecture ^ " messages")
        900 r.Arch.messages;
      Alcotest.(check bool)
        (Arch.architecture_name architecture ^ " utilization sane")
        true
        (r.Arch.utilization > 0.0 && r.Arch.utilization <= 1.0))
    [ Arch.Single_queue; Arch.Thread_per_client; Arch.Multi_server 2 ]

let test_arch_thread_per_client_scales () =
  let tp arch =
    (Arch.run ~machine:challenge ~kind:(Ulipc.Protocol_kind.BSLS 10)
       ~architecture:arch ~nclients:4 ~messages_per_client:1000 ())
      .Arch.throughput_msg_per_ms
  in
  let single = tp Arch.Single_queue in
  let per_client = tp Arch.Thread_per_client in
  Alcotest.(check bool)
    (Printf.sprintf "thread-per-client beats the saturated single server \
                     (%.0f vs %.0f msg/ms)"
       per_client single)
    true
    (per_client > 1.5 *. single)

let test_arch_multi_server_scales_with_k () =
  let tp k =
    (Arch.run ~machine:challenge ~kind:Ulipc.Protocol_kind.CSEM
       ~architecture:(Arch.Multi_server k) ~nclients:6
       ~messages_per_client:500 ())
      .Arch.throughput_msg_per_ms
  in
  let k1 = tp 1 and k4 = tp 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 servers beat 1 (%.1f vs %.1f msg/ms)" k4 k1)
    true (k4 > 1.2 *. k1)

let test_arch_validation () =
  Alcotest.check_raises "zero servers"
    (Invalid_argument "Arch.run: server threads must be positive") (fun () ->
      ignore
        (Arch.run ~machine:challenge ~kind:Ulipc.Protocol_kind.CSEM
           ~architecture:(Arch.Multi_server 0) ~nclients:1
           ~messages_per_client:1 ()))

(* ------------------------------------------------------------------ *)
(* Background noise *)

let test_noise_slows_but_preserves_correctness () =
  let run noise =
    Driver.run
      (Driver.config ~machine:sgi ~kind:(Ulipc.Protocol_kind.BSLS 20)
         ~nclients:2 ~messages_per_client:500 ?noise ())
  in
  let quiet = run None in
  let noisy = run (Some (Noise.config ())) in
  Alcotest.(check int) "all messages under noise" 1000 noisy.Metrics.messages;
  Alcotest.(check bool)
    (Printf.sprintf "noise costs throughput (%.1f vs %.1f)"
       noisy.Metrics.throughput_msg_per_ms quiet.Metrics.throughput_msg_per_ms)
    true
    (noisy.Metrics.throughput_msg_per_ms
    < quiet.Metrics.throughput_msg_per_ms);
  (* The noise processes must terminate with the run (Completed implies it,
     but make the shutdown path explicit). *)
  Alcotest.(check bool) "utilization sane" true (noisy.Metrics.utilization <= 1.0)

let test_noise_config_validation () =
  Alcotest.check_raises "bad procs"
    (Invalid_argument "Noise.config: procs must be positive") (fun () ->
      ignore (Noise.config ~procs:0 ()));
  let c = Noise.config () in
  Alcotest.(check bool) "duty cycle sane" true
    (Noise.duty_cycle c > 0.0 && Noise.duty_cycle c < 1.0)

(* ------------------------------------------------------------------ *)
(* Open-loop latency under load *)

let test_openloop_light_load_blocking_wins () =
  let point kind =
    Openloop.run_point ~machine:sgi ~kind ~nclients:3 ~messages_per_client:300
      ~think_mean:(Sim_time.ms 2) ()
  in
  let bss = point Ulipc.Protocol_kind.BSS in
  let bsw = point Ulipc.Protocol_kind.BSW in
  Alcotest.(check bool)
    (Printf.sprintf
       "blocking beats spinning under sparse arrivals (BSW %.0f us vs BSS \
        %.0f us mean response)"
       bsw.Openloop.mean_response_us bss.Openloop.mean_response_us)
    true
    (bsw.Openloop.mean_response_us < bss.Openloop.mean_response_us);
  Alcotest.(check bool)
    (Printf.sprintf "blocking idles the machine (%.0f%% vs %.0f%%)"
       (100. *. bsw.Openloop.utilization)
       (100. *. bss.Openloop.utilization))
    true
    (bsw.Openloop.utilization < 0.8 *. bss.Openloop.utilization)

let test_openloop_response_grows_with_load () =
  let points =
    Openloop.sweep ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:3
      ~messages_per_client:300
      ~think_means:[ Sim_time.ms 5; Sim_time.us 300 ]
      ()
  in
  match points with
  | [ light; heavy ] ->
    Alcotest.(check bool)
      (Printf.sprintf "response grows with load (%.0f -> %.0f us)"
         light.Openloop.mean_response_us heavy.Openloop.mean_response_us)
      true
      (heavy.Openloop.mean_response_us > light.Openloop.mean_response_us);
    Alcotest.(check bool) "offered ordering" true
      (heavy.Openloop.offered_per_ms > light.Openloop.offered_per_ms)
  | _ -> Alcotest.fail "expected two points"

let test_openloop_deterministic () =
  let p () =
    Openloop.run_point ~machine:sgi ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
      ~messages_per_client:200 ~think_mean:(Sim_time.ms 1) ()
  in
  let a = p () and b = p () in
  Alcotest.(check (float 0.0)) "identical response means"
    a.Openloop.mean_response_us b.Openloop.mean_response_us

let extension_suites =
  [
    ( "workload.arch",
      [
        Alcotest.test_case "all architectures complete" `Quick
          test_arch_all_complete;
        Alcotest.test_case "thread-per-client scales" `Quick
          test_arch_thread_per_client_scales;
        Alcotest.test_case "multi-server scales with k" `Quick
          test_arch_multi_server_scales_with_k;
        Alcotest.test_case "validation" `Quick test_arch_validation;
      ] );
    ( "workload.noise",
      [
        Alcotest.test_case "noise slows, correctness holds" `Quick
          test_noise_slows_but_preserves_correctness;
        Alcotest.test_case "config validation" `Quick
          test_noise_config_validation;
      ] );
    ( "workload.openloop",
      [
        Alcotest.test_case "blocking wins under sparse arrivals" `Quick
          test_openloop_light_load_blocking_wins;
        Alcotest.test_case "response grows with load" `Quick
          test_openloop_response_grows_with_load;
        Alcotest.test_case "deterministic" `Quick test_openloop_deterministic;
      ] );
  ]

let suites = suites @ extension_suites
