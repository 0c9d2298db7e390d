(* Command-line driver for the simulator: run any single benchmark
   configuration, a client sweep, a paper figure, or the primitive-cost
   table, with every knob exposed.

     ulipc_sim run   --machine sgi-indy --protocol bsls:10 --clients 4
     ulipc_sim sweep --machine ibm-p4 --protocol bss --clients 1-6
     ulipc_sim fig   fig2a fig10
     ulipc_sim table1
     ulipc_sim list *)

open Cmdliner
open Ulipc_workload

(* Render argument-validation failures from the library as usage errors
   rather than cmdliner's "internal error" banner. *)
let guarded f =
  try
    f ();
    `Ok ()
  with
  | Invalid_argument msg | Failure msg -> `Error (false, msg)
  | Driver.Hung r ->
    `Error (false, Format.asprintf "run did not complete: %a" Ulipc_os.Kernel.pp_result r)

let machine_conv =
  let print ppf m = Format.pp_print_string ppf m.Ulipc_machines.Machine.name in
  Arg.conv (Ulipc_machines.Catalog.find, print)

let protocol_conv =
  Arg.conv (Ulipc.Protocol_kind.of_string, Ulipc.Protocol_kind.pp)

let machine_arg =
  Arg.(
    value
    & opt machine_conv Ulipc_machines.Sgi_indy.machine
    & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc:"Machine model to simulate.")

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Ulipc.Protocol_kind.BSS
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:("IPC protocol: " ^ Ulipc.Protocol_kind.spellings ^ "."))

let messages_arg =
  Arg.(
    value & opt int 20_000
    & info [ "n"; "messages" ] ~docv:"N" ~doc:"Echo requests per client.")

let clients_arg =
  Arg.(
    value & opt int 1
    & info [ "c"; "clients" ] ~docv:"N" ~doc:"Number of client processes.")

let fixed_arg =
  Arg.(
    value & flag
    & info [ "fixed-priority" ]
        ~doc:"Run all processes in the non-degrading scheduling class.")

let latency_arg =
  Arg.(
    value & flag
    & info [ "latency" ] ~doc:"Collect per-send round-trip latencies.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print full metrics.")

let print_metrics ~verbose m =
  if verbose then Format.printf "%a@." Metrics.pp m
  else Format.printf "%a@." Metrics.pp_row m;
  match m.Metrics.latency_us with
  | Some hist when Ulipc_observe.Histogram.count hist > 0 ->
    Format.printf
      "  latency: mean %.1f us  p50 %.1f  p90 %.1f  p99 %.1f  max %.1f@."
      (Ulipc_observe.Histogram.mean hist)
      (Ulipc_observe.Histogram.percentile hist 50.0)
      (Ulipc_observe.Histogram.percentile hist 90.0)
      (Ulipc_observe.Histogram.percentile hist 99.0)
      (Ulipc_observe.Histogram.max_value hist);
    if verbose then Format.printf "%a" Ulipc_observe.Histogram.pp_buckets hist
  | Some _ | None -> ()

let run_cmd =
  let run machine kind clients messages fixed latency verbose =
    guarded (fun () ->
        let cfg =
          Driver.config ~machine ~kind ~nclients:clients
            ~messages_per_client:messages ~fixed_priority:fixed
            ~collect_latency:latency ()
        in
        print_metrics ~verbose (Driver.run cfg))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one benchmark configuration.")
    Term.(
      ret
        (const run $ machine_arg $ protocol_arg $ clients_arg $ messages_arg
        $ fixed_arg $ latency_arg $ verbose_arg))

let range_conv =
  let parse s =
    match String.split_on_char '-' s with
    | [ single ] -> (
      match int_of_string_opt single with
      | Some n -> Ok [ n ]
      | None -> Error (`Msg "expected N or LO-HI"))
    | [ lo; hi ] -> (
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo <= hi -> Ok (List.init (hi - lo + 1) (( + ) lo))
      | _ -> Error (`Msg "expected N or LO-HI"))
    | _ -> Error (`Msg "expected N or LO-HI")
  in
  let print ppf ns =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int ns))
  in
  Arg.conv (parse, print)

let sweep_cmd =
  let sweep machine kind clients messages fixed =
    guarded (fun () ->
        let cfg =
          Driver.config ~machine ~kind ~nclients:1
            ~messages_per_client:messages ~fixed_priority:fixed ()
        in
        List.iter
          (fun m -> Format.printf "%a@." Metrics.pp_row m)
          (Driver.sweep cfg ~clients))
  in
  let clients =
    Arg.(
      value
      & opt range_conv [ 1; 2; 3; 4; 5; 6 ]
      & info [ "c"; "clients" ] ~docv:"LO-HI" ~doc:"Client counts to sweep.")
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Sweep a protocol over client counts.")
    Term.(
      ret
        (const sweep $ machine_arg $ protocol_arg $ clients $ messages_arg
        $ fixed_arg))

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

let fig_cmd =
  let run_figs messages ids =
    let builders = figure_builders messages in
    let ids = if ids = [] then List.map fst builders else ids in
    let bad = List.filter (fun id -> not (List.mem_assoc id builders)) ids in
    if bad <> [] then
      `Error
        ( false,
          Printf.sprintf "unknown figures: %s (known: %s)"
            (String.concat ", " bad)
            (String.concat ", " (List.map fst builders)) )
    else begin
      List.iter
        (fun id ->
          let f = (List.assoc id builders) () in
          Format.printf "%a@." Experiments.pp_figure f)
        ids;
      `Ok ()
    end
  in
  let fig_messages =
    Arg.(
      value
      & opt int Experiments.messages_default
      & info [ "n"; "messages" ] ~docv:"N" ~doc:"Echo requests per client.")
  in
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"FIGURE" ~doc:"Figure ids.")
  in
  Cmd.v
    (Cmd.info "fig" ~doc:"Reproduce one or more of the paper's figures.")
    Term.(ret (const run_figs $ fig_messages $ ids))

let arch_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "single" -> Ok Arch.Single_queue
    | "per-client" -> Ok Arch.Thread_per_client
    | s when String.length s > 6 && String.sub s 0 6 = "multi:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some k when k > 0 -> Ok (Arch.Multi_server k)
      | Some _ | None -> Error (`Msg "multi:K needs a positive K"))
    | _ -> Error (`Msg "expected single, per-client or multi:K")
  in
  let print ppf a = Format.pp_print_string ppf (Arch.architecture_name a) in
  Arg.conv (parse, print)

let arch_cmd =
  let run machine kind architecture clients messages =
    guarded (fun () ->
        let r =
          Arch.run ~machine ~kind ~architecture ~nclients:clients
            ~messages_per_client:messages ()
        in
        Format.printf "%a@." Arch.pp_result r)
  in
  let architecture =
    Arg.(
      value
      & opt arch_conv Arch.Single_queue
      & info [ "a"; "architecture" ] ~docv:"ARCH"
          ~doc:"Server architecture: single, per-client, multi:K.")
  in
  Cmd.v
    (Cmd.info "arch" ~doc:"Run one benchmark under a server architecture.")
    Term.(
      ret
        (const run $ machine_arg $ protocol_arg $ architecture $ clients_arg
        $ messages_arg))

let load_cmd =
  let run machine kind clients messages think_us_list =
    guarded (fun () ->
        let think_means =
          List.map (fun us -> Ulipc_engine.Sim_time.us us) think_us_list
        in
        List.iter
          (fun p -> Format.printf "%a@." Openloop.pp_point p)
          (Openloop.sweep ~machine ~kind ~nclients:clients
             ~messages_per_client:messages ~think_means ()))
  in
  let thinks =
    Arg.(
      value
      & opt (list int) [ 5000; 2000; 1000; 400; 150 ]
      & info [ "t"; "think-us" ] ~docv:"US,US,..."
          ~doc:"Mean idle think times to sweep, in microseconds.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Latency under offered load (idle think times).")
    Term.(
      ret
        (const run $ machine_arg $ protocol_arg $ clients_arg $ messages_arg
        $ thinks))

let trace_cmd =
  let run machine kind clients messages entries =
    guarded @@ fun () ->
    let ring = Ulipc_observe.Trace_ring.create ~capacity:65536 () in
    let cfg =
      Driver.config ~events:ring ~machine ~kind ~nclients:clients
        ~messages_per_client:messages ()
    in
    let procs = Ulipc_os.Kernel.procs (Driver.run_outcome cfg).Driver.kernel in
    let actor_name = function
      | 0 -> "kernel"
      | pid -> (
        match List.find_opt (fun p -> p.Ulipc_os.Proc.pid = pid) procs with
        | Some p -> Printf.sprintf "pid %d %s" pid p.Ulipc_os.Proc.name
        | None -> Printf.sprintf "pid %d" pid)
    in
    let events = Ulipc_observe.Trace_ring.events ring in
    let skip = max 0 (List.length events - entries) in
    List.iteri
      (fun i e ->
        if i >= skip then
          Format.printf "%a@."
            (Ulipc_observe.Event.pp ~actor_name
               ~syscall_name:Ulipc_os.Syscall.name_of_code)
            e)
      events;
    Format.printf "(%d events recorded in total, %d dropped)@."
      (Ulipc_observe.Trace_ring.recorded ring)
      (Ulipc_observe.Trace_ring.dropped ring)
  in
  let entries =
    Arg.(
      value & opt int 80
      & info [ "e"; "entries" ] ~docv:"N"
          ~doc:"Trace entries to print (the last N).")
  in
  let messages =
    Arg.(
      value & opt int 3
      & info [ "n"; "messages" ] ~docv:"N" ~doc:"Echo requests per client.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a tiny workload with the event ring attached and print the \
          merged log at simulated time: the protocol's queue operations, \
          blocks and wake-ups beside the kernel's spawns, context \
          switches, system calls and sleeps.")
    Term.(
      ret (const run $ machine_arg $ protocol_arg $ clients_arg $ messages $ entries))

let table1_cmd =
  let run () =
    Format.printf "%a" Experiments.pp_table1 (Experiments.table1 ())
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (primitive operation costs).")
    Term.(const run $ const ())

let list_cmd =
  let run () =
    Format.printf "machines:@.";
    List.iter
      (fun m -> Format.printf "  %a@." Ulipc_machines.Machine.pp m)
      Ulipc_machines.Catalog.all;
    Format.printf "protocols: %s@." Ulipc.Protocol_kind.spellings;
    Format.printf "figures: %s@."
      (String.concat ", " (List.map fst (figure_builders 0)))
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List machines, protocols and figures.")
    Term.(const run $ const ())

let () =
  let doc =
    "user-level IPC sleep/wake-up protocol simulator (Unrau & Krieger, \
     ICPP'98)"
  in
  let info = Cmd.info "ulipc_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; sweep_cmd; fig_cmd; arch_cmd; load_cmd; trace_cmd; table1_cmd;
            list_cmd ]))
