(* The benchmark harness: regenerates every table and figure of the paper's
   evaluation from the simulator, runs the ablation comparisons DESIGN.md
   calls out, and measures the real-domains primitives with Bechamel.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- figs         # all figures
     dune exec bench/main.exe -- fig2a fig11  # specific figures
     dune exec bench/main.exe -- table1 ablations micro
     dune exec bench/main.exe -- quick        # reduced counts + short quotas
     dune exec bench/main.exe -- micro --json BENCH_real.json
                                              # also write the real-domains
                                              # results as JSON *)

open Ulipc_workload

(* ------------------------------------------------------------------ *)
(* Simulated tables and figures *)

let print_table1 () =
  Format.printf
    "=== Table 1: primitive operation costs (simulated; paper SGI column: \
     3us, 37us, 16/18/45us) ===@.";
  Format.printf "%a@." Experiments.pp_table1 (Experiments.table1 ())

let figure_builders messages : (string * (unit -> Experiments.figure)) list =
  [
    ("fig2a", fun () -> fst (Experiments.fig2 ~messages ()));
    ("fig2b", fun () -> snd (Experiments.fig2 ~messages ()));
    ("fig3a", fun () -> fst (Experiments.fig3 ~messages ()));
    ("fig3b", fun () -> snd (Experiments.fig3 ~messages ()));
    ("fig6a", fun () -> fst (Experiments.fig6 ~messages ()));
    ("fig6b", fun () -> snd (Experiments.fig6 ~messages ()));
    ("fig8a", fun () -> fst (Experiments.fig8 ~messages ()));
    ("fig8b", fun () -> snd (Experiments.fig8 ~messages ()));
    ("fig10", fun () -> Experiments.fig10 ~messages ());
    ("fig11", fun () -> Experiments.fig11 ~messages ());
    ("fig12", fun () -> Experiments.fig12 ~messages ());
  ]

let failed = ref 0

let print_figure build =
  let f = build () in
  Format.printf "%a@." Experiments.pp_figure f;
  failed := !failed + List.length (Experiments.failed_checks f)

(* ------------------------------------------------------------------ *)
(* Ablations (§3's safeguards removed, plus the §5 future-work throttle) *)

let print_ablations () =
  Format.printf
    "=== Ablations: the Figure 4 safeguards, under adversarial flag timing \
     ===@.";
  let base = Ulipc_machines.Sgi_challenge.machine in
  let racy =
    {
      base with
      costs =
        {
          base.Ulipc_machines.Machine.costs with
          flag_write = Ulipc_engine.Sim_time.us 20;
        };
    }
  in
  let run label iface =
    let cfg =
      Driver.config ~machine:racy ~kind:Ulipc.Protocol_kind.BSW ~nclients:2
        ~messages_per_client:3000 ?iface
        ~time_limit:(Ulipc_engine.Sim_time.sec 60) ()
    in
    match Driver.run_outcome cfg with
    | o ->
      Format.printf
        "%-24s %8.1f msg/ms   race-fix P: %5d   semaphore residue: %d@." label
        o.Driver.metrics.Metrics.throughput_msg_per_ms
        o.Driver.metrics.Metrics.counters.Ulipc.Counters.race_fix_p
        (Ulipc.Ablation.semaphore_residue o.Driver.session
           ~kernel:o.Driver.kernel)
    | exception Driver.Hung r ->
      Format.printf "%-24s %a  <- the race the safeguard prevents@." label
        Ulipc_os.Kernel.pp_result r
  in
  run "BSW (correct)" None;
  List.iter
    (fun v -> run (Ulipc.Ablation.name v) (Some (Ulipc.Ablation.iface v)))
    Ulipc.Ablation.[ No_second_dequeue; Plain_store_wake; Unconditional_wake ];
  Format.printf
    "@.=== Extension: overload-aware BSLS (the §5 future-work sketch) ===@.";
  Format.printf
    "8-CPU Challenge, BSLS(5); the throttle defers wake-ups behind an \
     admission window@.";
  List.iter
    (fun n ->
      let plain =
        Driver.run
          (Driver.config ~machine:Ulipc_machines.Sgi_challenge.machine
             ~kind:(Ulipc.Protocol_kind.BSLS 5) ~nclients:n
             ~messages_per_client:3000 ())
      in
      let st = Ulipc.Bsls_throttle.server_state ~max_pending:4 in
      let throttled =
        Driver.run
          (Driver.config ~machine:Ulipc_machines.Sgi_challenge.machine
             ~kind:(Ulipc.Protocol_kind.BSLS 5)
             ~iface:(Ulipc.Bsls_throttle.iface ~max_spin:5 st)
             ~nclients:n ~messages_per_client:3000 ())
      in
      Format.printf
        "  %2d clients: plain %7.1f msg/ms   throttled %7.1f msg/ms@." n
        plain.Metrics.throughput_msg_per_ms
        throttled.Metrics.throughput_msg_per_ms)
    [ 4; 8; 10; 12 ]

(* ------------------------------------------------------------------ *)
(* Beyond the paper: server architectures (2.1 discussion, 8 future
   work) and latency under offered load *)

let print_arch () =
  Format.printf
    "=== Server architectures on the 8-CPU Challenge (BSLS(10) unless \
     noted) ===@.";
  Format.printf
    "single-queue is the paper's design; thread-per-client is the \
     alternative@.of 2.1; multi-server shares one queue among k threads \
     and pays CSEM's per-item grants@.";
  List.iter
    (fun architecture ->
      List.iter
        (fun nclients ->
          let r =
            Arch.run ~machine:Ulipc_machines.Sgi_challenge.machine
              ~kind:(Ulipc.Protocol_kind.BSLS 10) ~architecture ~nclients
              ~messages_per_client:3000 ()
          in
          Format.printf "  %a@." Arch.pp_result r)
        [ 2; 4; 6 ])
    [ Arch.Single_queue; Arch.Thread_per_client; Arch.Multi_server 2;
      Arch.Multi_server 4 ];
  Format.printf "@."

let print_load () =
  Format.printf
    "=== Latency under offered load (sgi-indy, 4 clients, idle think time) \
     ===@.";
  Format.printf
    "The regime the paper motivates but does not measure: blocking wins \
     latency,@.throughput AND CPU when arrivals are sparse on a \
     uniprocessor.@.";
  let think_means =
    Ulipc_engine.Sim_time.[ ms 5; ms 2; ms 1; us 400; us 150 ]
  in
  List.iter
    (fun kind ->
      Format.printf "--- %s ---@." (Ulipc.Protocol_kind.name kind);
      List.iter
        (fun p -> Format.printf "  %a@." Openloop.pp_point p)
        (Openloop.sweep ~machine:Ulipc_machines.Sgi_indy.machine ~kind
           ~nclients:4 ~messages_per_client:1500 ~think_means ()))
    Ulipc.Protocol_kind.[ BSS; BSW; BSLS 10 ];
  Format.printf "@."

let print_noise () =
  Format.printf
    "=== Background load (BSLS(20), sgi-indy): the 4.2 statistics under \
     noise ===@.";
  List.iter
    (fun (label, noise) ->
      List.iter
        (fun nclients ->
          let m =
            Driver.run
              (Driver.config ~machine:Ulipc_machines.Sgi_indy.machine
                 ~kind:(Ulipc.Protocol_kind.BSLS 20) ~nclients
                 ~messages_per_client:4000 ?noise ())
          in
          let c = m.Metrics.counters in
          let sends = max 1 m.Metrics.messages in
          Format.printf
            "  %-12s n=%d  %6.2f msg/ms  blocks %4.1f%%  poll iters/send \
             %.1f@."
            label nclients m.Metrics.throughput_msg_per_ms
            (100.0
            *. float_of_int c.Ulipc.Counters.spin_fallthroughs
            /. float_of_int sends)
            (float_of_int c.Ulipc.Counters.spin_iterations
            /. float_of_int sends))
        [ 1; 6 ])
    [
      ("quiet", None);
      ("daemons", Some (Noise.config ()));
      ( "heavy",
        Some
          (Noise.config ~procs:3
             ~busy_mean:(Ulipc_engine.Sim_time.ms 1)
             ~idle_mean:(Ulipc_engine.Sim_time.ms 6) ()) );
    ];
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the real-domains primitives *)

let micro_tests () =
  let open Bechamel in
  let spsc_pair =
    Test.make_with_resource ~name:"spsc_ring enqueue+dequeue" Test.uniq
      ~allocate:(fun () -> Ulipc_real.Spsc_ring.create ~capacity:64 ())
      ~free:ignore
      (Staged.stage (fun q ->
           ignore (Ulipc_real.Spsc_ring.enqueue q 1 : bool);
           ignore (Ulipc_real.Spsc_ring.dequeue q : int)))
  in
  let mpsc_pair =
    Test.make_with_resource ~name:"mpsc_ring enqueue+dequeue" Test.uniq
      ~allocate:(fun () -> Ulipc_real.Mpsc_ring.create ~capacity:64 ())
      ~free:ignore
      (Staged.stage (fun q ->
           ignore (Ulipc_real.Mpsc_ring.enqueue q 1 : bool);
           ignore (Ulipc_real.Mpsc_ring.dequeue q : int)))
  in
  let slab_pair =
    Test.make_with_resource ~name:"slab alloc+release" Test.uniq
      ~allocate:(fun () -> Ulipc_real.Slab.create ~slots:64 ())
      ~free:ignore
      (Staged.stage (fun s ->
           Ulipc_real.Slab.release s (Ulipc_real.Slab.try_alloc s)))
  in
  (* Batch rows push 8 messages per span claim through flat
     (client, word) pair spans (a shared scratch is fine
     single-threaded); ns/op is divided by 8 after analysis (micro_rows)
     so the row reads per message, directly comparable with the
     single-op row above it. *)
  let eight =
    Array.init 16 (fun i -> if i land 1 = 0 then 0 else (i / 2) + 1)
  in
  let scratch8 = Array.make 16 0 in
  let spsc_batch =
    Test.make_with_resource ~name:"spsc_ring batch-8 enqueue+dequeue"
      Test.uniq
      ~allocate:(fun () -> Ulipc_real.Spsc_ring.create ~capacity:64 ())
      ~free:ignore
      (Staged.stage (fun q ->
           ignore (Ulipc_real.Spsc_ring.enqueue_batch q eight ~pos:0 ~len:8 : int);
           ignore
             (Ulipc_real.Spsc_ring.dequeue_batch q scratch8 ~pos:0 ~max:8 : int)))
  in
  let mpsc_batch =
    Test.make_with_resource ~name:"mpsc_ring batch-8 enqueue+dequeue"
      Test.uniq
      ~allocate:(fun () -> Ulipc_real.Mpsc_ring.create ~capacity:64 ())
      ~free:ignore
      (Staged.stage (fun q ->
           ignore (Ulipc_real.Mpsc_ring.enqueue_batch q eight ~pos:0 ~len:8 : int);
           ignore
             (Ulipc_real.Mpsc_ring.dequeue_batch q scratch8 ~pos:0 ~max:8 : int)))
  in
  let sem_pair =
    Test.make_with_resource ~name:"rsem V+P" Test.uniq
      ~allocate:(fun () -> Ulipc_real.Rsem.create 0)
      ~free:ignore
      (Staged.stage (fun s ->
           Ulipc_real.Rsem.v s;
           Ulipc_real.Rsem.p s))
  in
  let tas =
    Test.make_with_resource ~name:"atomic exchange (tas)" Test.uniq
      ~allocate:(fun () -> Atomic.make false)
      ~free:ignore
      (Staged.stage (fun f -> ignore (Atomic.exchange f true : bool)))
  in
  let round_trip name waiting =
    (* Resource: a live echo server domain on the in-place [serve] path
       (the zero-allocation server turn); -1 asks it to exit.  Immediate
       int codecs make the payload the message word itself, so the
       measured round-trip is the register-to-cell hot path. *)
    (* The suffix keeps the row names of the committed baselines. *)
    let name = name ^ " [ring]" in
    Test.make_with_resource ~name Test.uniq
      ~allocate:(fun () ->
        let t : (int, int) Ulipc_real.Rpc.t =
          Ulipc_real.Rpc.create ~req_codec:Ulipc_real.Rpc.int_codec
            ~rep_codec:Ulipc_real.Rpc.int_codec ~nclients:1 waiting
        in
        let d =
          Domain.spawn (fun () ->
              (* Bind the handler once: a closure built inside the loop
                 would be allocated per serve turn. *)
              let stop = ref false in
              let handler ~client:_ v =
                if v = -1 then stop := true;
                v + 1
              in
              while not !stop do
                Ulipc_real.Rpc.serve t handler
              done)
        in
        (t, d))
      ~free:(fun (t, d) ->
        ignore (Ulipc_real.Rpc.send t ~client:0 (-1) : int);
        Domain.join d)
      (Staged.stage (fun ((t, _) : (int, int) Ulipc_real.Rpc.t * unit Domain.t) ->
           ignore (Ulipc_real.Rpc.send t ~client:0 42 : int)))
  in
  [
    spsc_pair;
    spsc_batch;
    mpsc_pair;
    mpsc_batch;
    slab_pair;
    sem_pair;
    tas;
    round_trip "round-trip, spin (BSS)" Ulipc_real.Rpc.Spin;
    round_trip "round-trip, block (BSW)" Ulipc_real.Rpc.Block;
    round_trip "round-trip, block+yield (BSWY)" Ulipc_real.Rpc.Block_yield;
    round_trip "round-trip, limited spin (BSLS)"
      (Ulipc_real.Rpc.Limited_spin 500);
    round_trip "round-trip, adaptive (ADAPT)" (Ulipc_real.Rpc.Adaptive 4096);
    round_trip "round-trip, handoff" Ulipc_real.Rpc.Handoff;
  ]

(* [(bechamel name, ns/op)] rows, sorted by name.  In quick mode the
   quota drops from 500 ms to 50 ms per test and GC stabilisation is
   skipped: noisier numbers, but the whole sweep fits in CI time. *)
let micro_rows ~quick () =
  let open Bechamel in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    if quick then
      Benchmark.cfg ~limit:300 ~quota:(Time.second 0.05) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let tests = Test.make_grouped ~name:"real" (micro_tests ()) in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> (name, t) :: acc
        | Some [] | None -> acc)
      results []
  in
  (* Batch tests move 8 messages per run: report them per message. *)
  let per_message (name, ns) =
    let contains sub =
      let n = String.length name and k = String.length sub in
      let rec scan i = i + k <= n && (String.sub name i k = sub || scan (i + 1)) in
      scan 0
    in
    if contains "batch-8" then (name, ns /. 8.0) else (name, ns)
  in
  List.sort compare (List.map per_message rows)

(* The same protocol-event counters the simulator reports, now measured on
   the real backend. *)
let real_rows ~quick () =
  let messages = if quick then 300 else 2_000 in
  let row ?depth waiting =
    Real_driver.run ~machine:"ring" ?depth ~nclients:2 ~messages waiting
  in
  List.map row
    Ulipc_real.Rpc.[ Block; Block_yield; Limited_spin 50; Handoff;
                     Adaptive 4096 ]
  (* The pipelined fast path: same protocols, depth-8 windows over the
     batched enqueue/dequeue/wake operations. *)
  @ List.map (row ~depth:8) Ulipc_real.Rpc.[ Block; Adaptive 4096 ]

(* The F2/F11-scale client-count sweep on the sharded server fleet:
   per-client throughput of the blocking protocols should
   stay near-flat as the population grows — the paper's Figure 2 shape —
   while limited spinning collapses once spinners outnumber processors,
   the Figure 11 cliff (EXPERIMENTS.md records the observed collapse
   point).  Full mode sweeps 2 → 512 logical clients against a 4-server
   pool with a fixed total message budget, so every cell costs about the
   same wall time; quick mode is the CI smoke — a small client sweep
   crossed with pool sizes 1 and 4, enough to key rows by
   (nclients, nservers) and exercise stealing without the long tail. *)
let sweep_rows ~quick () =
  let nclients_list = if quick then [ 2; 8; 32 ] else [ 2; 8; 32; 128; 512 ] in
  let nservers_list = if quick then [ 1; 4 ] else [ 4 ] in
  let budget = if quick then 512 else 8192 in
  let protocols =
    Ulipc_real.Rpc.[ Block; Block_yield; Limited_spin 50; Adaptive 4096 ]
  in
  List.concat_map
    (fun nservers ->
      List.concat_map
        (fun nclients ->
          let messages = max 4 (budget / nclients) in
          List.map
            (fun waiting ->
              Real_driver.run ~machine:"ring" ~nservers ~nclients ~messages
                waiting)
            protocols)
        nclients_list)
    nservers_list

(* Cross-process rows: the paper's protocols over the mmap'd arena
   (fork'd processes, futex-backed semaphores — Proc_driver), raced
   against the kernel-IPC baselines on the same machine: a pipe pair
   and a Unix-domain socketpair, the FreeBSD-ladder comparison of
   arXiv:2008.02145.  All rows are 1 client / 1 server so round-trip
   latency is the honest head-to-head; the depth-8 row shows the
   pipelining win when the protocol overlaps requests.  The fd
   baselines block in read/select — the kernel's own sleep/wake-up —
   so shm beating pipe is user-level wake-up beating kernel wake-up on
   identical semantics, the paper's thesis measured cross-process. *)
let proc_rows ~quick () =
  let messages = if quick then 400 else 4_000 in
  let shm ?depth waiting =
    ( "proc",
      "shm",
      Proc_driver.run ~machine:"shm" ?depth ~nclients:1 ~messages waiting )
  in
  let fd transport =
    let name = Proc_driver.fd_transport_name transport in
    ( "proc",
      name,
      Proc_driver.run_fd ~machine:name ~transport ~nclients:1 ~messages () )
  in
  List.map
    (fun w -> shm w)
    Ulipc_real.Rpc.[ Spin; Block; Block_yield; Limited_spin 50; Adaptive 4096;
                     Handoff ]
  @ [ shm ~depth:8 Ulipc_real.Rpc.Block ]
  @ [ fd Proc_driver.Fd_pipe; fd Proc_driver.Fd_socket ]

(* Directed-wake-latency sweep for the waiting-array semaphore: the
   population grows 2 -> 512 (2 -> 64 in quick mode: CI hosts schedule
   hundreds of systhreads too noisily for a smoke gate) while each
   credit still wakes exactly one waiter through its private slot.  The
   row the analysis must show flat is p99: a global-mutex slow path
   degrades with population, a waiting array does not. *)
let sem_rows ~quick () =
  let populations = if quick then [ 2; 8; 64 ] else [ 2; 8; 64; 512 ] in
  let target_samples = if quick then 512 else 2048 in
  List.map
    (fun waiters -> Sem_bench.wake_latency ~target_samples ~waiters ())
    populations

let print_micro ~quick ~json () =
  (* The cross-process rows run before ANYTHING spawns a domain:
     fork() from a process whose heap and thread table still carry the
     residue of hundreds of bechamel/sweep domains is both slower
     (COW-copying a grown heap per child) and riskier (only the
     forking thread survives in the child; a runtime lock held by any
     other systhread at fork time deadlocks it).  At this point the
     process is single-threaded and the heap is a few megabytes. *)
  Format.printf
    "=== Cross-process echo: shm arena + futex vs pipe vs socket (fork'd, 1 \
     client) ===@.";
  let proc = proc_rows ~quick () in
  List.iter
    (fun (_, transport, m) ->
      Format.printf "%-7s %a@.%a@.@." transport Metrics.pp_row m
        Ulipc.Counters.pp m.Metrics.counters)
    proc;
  (* The sem sweep runs next, before bechamel and the fleet sweep: its
     p99 flatness claim is about the semaphore, and on a 1-CPU host the
     hundreds of domains the fleet sweep spawns leave the process with a
     grown, fragmented heap whose cold-page faults inflate the large-
     population tails by ~3x — state pollution, not wake discipline. *)
  Format.printf
    "=== Semaphore directed wake latency (waiting array, 1 credit = 1 \
     wake) ===@.";
  let sem = sem_rows ~quick () in
  List.iter
    (fun (r : Sem_bench.result) ->
      Format.printf
        "%4d waiters  %4d samples  p50 %8.2f us  p99 %8.2f us  max %8.2f us  \
         violations %d@."
        r.Sem_bench.waiters
        (Array.length r.Sem_bench.samples)
        r.Sem_bench.p50_us r.Sem_bench.p99_us r.Sem_bench.max_us
        r.Sem_bench.violations)
    sem;
  Format.printf "@.";
  Format.printf
    "=== Real-hardware micro-benchmarks (OCaml domains, Bechamel) ===@.";
  Format.printf
    "The modern analogue of Table 1: user-level queue ops vs blocking.@.";
  let micro = micro_rows ~quick () in
  List.iter
    (fun (name, ns) -> Format.printf "%-50s %10.1f ns/op@." name ns)
    micro;
  Format.printf "@.";
  Format.printf
    "--- real-domains echo runs (same counter fields as simulated runs) \
     ---@.";
  let real = real_rows ~quick () in
  List.iter
    (fun m ->
      Format.printf "%a@.%a@.@." Metrics.pp_row m Ulipc.Counters.pp
        m.Metrics.counters)
    real;
  Format.printf
    "--- client-count sweep on the sharded fleet (F2/F11 scale) ---@.";
  let sweep = sweep_rows ~quick () in
  List.iter
    (fun m ->
      let per_client =
        m.Metrics.throughput_msg_per_ms /. float_of_int m.Metrics.nclients
      in
      Format.printf "%a  per-client %8.4f msg/ms  util %3.0f%%/%3.0f%%@."
        Metrics.pp_row m per_client
        (100.0 *. m.Metrics.utilization)
        (100.0 *. m.Metrics.utilization_max))
    sweep;
  Format.printf "@.";
  let inproc = List.map (fun m -> ("inproc", "ring", m)) (real @ sweep) in
  match json with
  | None -> ()
  | Some path ->
    Bench_json.write ~path ~quick ~micro ~sem ~real:(inproc @ proc) ();
    Format.printf "wrote %s@." path

(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec split_json acc = function
    | "--json" :: path :: rest -> (Some path, List.rev_append acc rest)
    | [ "--json" ] ->
      prerr_endline "bench: --json requires a path";
      exit 2
    | a :: rest -> split_json (a :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json, args = split_json [] args in
  let quick = List.mem "quick" args in
  let messages = if quick then 2_000 else Experiments.messages_default in
  let builders = figure_builders messages in
  let args = List.filter (fun a -> a <> "quick") args in
  let sections =
    if args = [] then
      [ "table1"; "figs"; "ablations"; "arch"; "load"; "noise"; "micro" ]
    else args
  in
  (* --json data comes from the micro section; make sure it runs. *)
  let sections =
    if json <> None && not (List.mem "micro" sections) then
      sections @ [ "micro" ]
    else sections
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun section ->
      match section with
      | "table1" -> print_table1 ()
      | "figs" -> List.iter (fun (_, b) -> print_figure b) builders
      | "ablations" -> print_ablations ()
      | "arch" -> print_arch ()
      | "load" -> print_load ()
      | "noise" -> print_noise ()
      | "micro" -> print_micro ~quick ~json ()
      | id when List.mem_assoc id builders ->
        print_figure (List.assoc id builders)
      | other ->
        Format.printf
          "unknown section %S (table1, figs, ablations, arch, load, noise, micro, quick, --json <path>, %s)@."
          other
          (String.concat ", " (List.map fst builders)))
    sections;
  Format.printf "=== done in %.1fs; %d shape check(s) failed ===@."
    (Unix.gettimeofday () -. t0)
    !failed;
  if !failed > 0 then exit 1
