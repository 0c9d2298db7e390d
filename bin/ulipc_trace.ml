(* Trace driver for the unified observability pipeline: run one echo
   workload on either backend with the event sink attached, print the
   causal wake-latency/block-duration breakdown, write the Chrome-trace
   JSON (Perfetto-loadable) and a one-line summary, and exit non-zero if
   the invariant checker found violations.

     ulipc_trace --backend real --protocol bsw --out trace.json
     ulipc_trace --backend sim --machine sgi-indy --protocol bsls:10
     ulipc_trace --backend proc --protocol bsw --out trace_proc.json

   The emitted JSON is re-read through the hand-rolled parser before the
   tool reports success, so a malformed export fails loudly here rather
   than in the Perfetto UI. *)

open Cmdliner
open Ulipc_workload
module A = Ulipc_observe.Trace_analysis

type backend = Real | Sim | Proc

let backend_conv =
  let parse = function
    | "real" -> Ok Real
    | "sim" -> Ok Sim
    | "proc" -> Ok Proc
    | s ->
      Error (`Msg (Printf.sprintf "unknown backend %S (real, sim, proc)" s))
  in
  let print ppf b =
    Format.pp_print_string ppf
      (match b with Real -> "real" | Sim -> "sim" | Proc -> "proc")
  in
  Arg.conv (parse, print)

let protocol_conv =
  Arg.conv (Ulipc.Protocol_kind.of_string, Ulipc.Protocol_kind.pp)

(* SYSV and CSEM are not waiting modes of the shared core: sim only. *)
let no_real_backend kind =
  failwith
    (Printf.sprintf "protocol %s has no real-domains implementation"
       (Ulipc.Protocol_kind.name kind))

let machines =
  [
    Ulipc_machines.Sgi_indy.machine;
    Ulipc_machines.Ibm_p4.machine;
    Ulipc_machines.Sgi_challenge.machine;
    Ulipc_machines.Linux486.stock;
    Ulipc_machines.Linux486.modified_yield;
  ]

let machine_conv =
  let parse s =
    match
      List.find_opt
        (fun m -> String.equal m.Ulipc_machines.Machine.name s)
        machines
    with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown machine %S (try: %s)" s
             (String.concat ", "
                (List.map (fun m -> m.Ulipc_machines.Machine.name) machines))))
  in
  let print ppf m = Format.pp_print_string ppf m.Ulipc_machines.Machine.name in
  Arg.conv (parse, print)

(* The summary line mirrors the BENCH_real.json conventions: every float
   through Bench_json.json_float, so nan (e.g. wake latency of a
   protocol that never blocked) prints as null.  [dropped] is the ring
   overflow count — a truncated trace means the causal analysis ran on
   an incomplete stream (percentiles are over surviving pairs only, and
   the invariant checker already degrades to warnings), so it is both
   reported in the summary and warned about loudly: silently analysing
   a partial trace is how a lost wake-up hides. *)
let summary_json ~backend ~label ~kind ~out ~dropped (m : Metrics.t) (r : A.t)
    =
  if dropped > 0 then
    Printf.eprintf
      "ulipc_trace: WARNING: trace truncated — %d event(s) dropped by a full \
       ring; wake-latency percentiles cover the surviving events only \
       (lower --messages for a complete trace)\n\
       %!"
      dropped;
  let f = Bench_json.json_float in
  Printf.printf
    "{\"backend\": \"%s\", %s, \"protocol\": \"%s\", \"events\": %d, \
     \"dropped\": %d, \"actors\": %d, \"blocks\": %d, \"wakes\": %d, \
     \"raced_wakes\": %d, \"spurious_wakes\": %d, \"spin_exhausts\": %d, \
     \"wake_latency_p50_us\": %s, \"wake_latency_p99_us\": %s, \
     \"block_duration_p50_us\": %s, \"block_duration_p99_us\": %s, \
     \"throughput_msg_per_ms\": %s, \"violations\": %d, \"trace_file\": \
     \"%s\"}\n"
    backend label
    (Bench_json.json_escape (Ulipc.Protocol_kind.name kind))
    r.A.events dropped r.A.actors r.A.blocks r.A.wakes r.A.raced_wakes
    r.A.spurious_wakes r.A.spin_exhausts
    (f r.A.wake_latency.A.p50_us)
    (f r.A.wake_latency.A.p99_us)
    (f r.A.block_duration.A.p50_us)
    (f r.A.block_duration.A.p99_us)
    (f m.Metrics.throughput_msg_per_ms)
    (List.length r.A.violations)
    (Bench_json.json_escape out)

let validate_json path =
  let contents = In_channel.with_open_text path In_channel.input_all in
  match Ulipc_observe.Json_min.parse_result contents with
  | Ok j -> (
    match Ulipc_observe.Json_min.member_opt "traceEvents" j with
    | Some (Ulipc_observe.Json_min.Arr (_ :: _)) -> ()
    | Some _ -> failwith (path ^ ": traceEvents is empty or not an array")
    | None -> failwith (path ^ ": no traceEvents field"))
  | Error msg -> failwith (path ^ ": emitted JSON does not parse: " ^ msg)

(* Both real backends: the echo driver with domains or fork'd processes
   as peers.  Fork'd peers' events arrive pid-namespaced and merged by
   the driver (CLOCK_MONOTONIC is system-wide, so the merged order is
   causal across processes). *)
let run_real ~peers ~kind ~nclients ~messages ~depth ~out =
  match Ulipc.Protocol_kind.to_waiting kind with
  | None -> no_real_backend kind
  | Some waiting ->
    let events_out = ref [] and dropped_out = ref 0 in
    let m =
      Real_driver.run ~peers ~depth ~nclients ~messages ~events_out
        ~dropped_out waiting
    in
    let events = !events_out in
    let r = A.analyse ~complete:(!dropped_out = 0) events in
    let backend, transport =
      match peers with
      | Real_driver.Domains -> ("real", "ring")
      | Real_driver.Processes -> ("proc", "shm")
    in
    let process_name =
      Printf.sprintf "ulipc %s %s %s" backend transport
        (Ulipc.Protocol_kind.name kind)
    in
    Ulipc_observe.Perfetto.write ~process_name ~report:r ~path:out events;
    validate_json out;
    Format.printf "%a@." A.pp r;
    summary_json ~backend
      ~label:(Printf.sprintf "\"transport\": \"%s\"" transport)
      ~kind ~out ~dropped:!dropped_out m r;
    r

let run_sim ~kind ~machine ~nclients ~messages ~out =
  let sink = Ulipc_observe.Sink.create ~capacity:(1 lsl 18) () in
  let m =
    Driver.run
      (Driver.config ~events:sink ~machine ~kind ~nclients
         ~messages_per_client:messages ())
  in
  let events = Ulipc_observe.Sink.events sink in
  let r = A.analyse ~complete:(Ulipc_observe.Sink.dropped sink = 0) events in
  let process_name =
    Printf.sprintf "ulipc sim %s %s" machine.Ulipc_machines.Machine.name
      (Ulipc.Protocol_kind.name kind)
  in
  Ulipc_observe.Perfetto.write ~process_name ~report:r ~path:out events;
  validate_json out;
  Format.printf "%a@." A.pp r;
  let label =
    Printf.sprintf "\"machine\": \"%s\""
      (Bench_json.json_escape machine.Ulipc_machines.Machine.name)
  in
  summary_json ~backend:"sim" ~label ~kind ~out
    ~dropped:(Ulipc_observe.Sink.dropped sink) m r;
  r

let main backend kind machine nclients messages depth out =
  try
    let r =
      match backend with
      | Real -> run_real ~peers:Domains ~kind ~nclients ~messages ~depth ~out
      | Sim -> run_sim ~kind ~machine ~nclients ~messages ~out
      | Proc ->
        run_real ~peers:Processes ~kind ~nclients ~messages ~depth ~out
    in
    if r.A.violations <> [] then begin
      Printf.eprintf "ulipc_trace: trace invariants violated (%d)\n"
        (List.length r.A.violations);
      exit 1
    end
    else `Ok ()
  with
  | Invalid_argument msg | Failure msg -> `Error (false, msg)
  | Driver.Hung res ->
    `Error
      ( false,
        Format.asprintf "run did not complete: %a" Ulipc_os.Kernel.pp_result
          res )

let backend_arg =
  Arg.(
    value & opt backend_conv Real
    & info [ "b"; "backend" ] ~docv:"BACKEND"
        ~doc:
          "Where to run: real (OCaml domains), sim (simulator), or proc \
           (fork'd processes over the shared-memory arena).")

let protocol_arg =
  Arg.(
    value
    & opt protocol_conv Ulipc.Protocol_kind.BSW
    & info [ "p"; "protocol" ] ~docv:"PROTO"
        ~doc:
          "IPC protocol: bss, bsw, bswy, bsls[:N], adapt[:N], handoff; sim \
           only: sysv, csem.")

let machine_arg =
  Arg.(
    value
    & opt machine_conv Ulipc_machines.Sgi_indy.machine
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Machine model (sim backend only).")

let clients_arg =
  Arg.(
    value & opt int 2
    & info [ "c"; "clients" ] ~docv:"N" ~doc:"Number of clients.")

let messages_arg =
  Arg.(
    value & opt int 200
    & info [ "n"; "messages" ] ~docv:"N" ~doc:"Echo requests per client.")

let depth_arg =
  Arg.(
    value & opt int 1
    & info [ "d"; "depth" ] ~docv:"N"
        ~doc:"Pipelining depth (real and proc backends).")

let out_arg =
  Arg.(
    value & opt string "trace.json"
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Chrome-trace JSON output path (load at ui.perfetto.dev).")

let () =
  let doc =
    "capture a unified IPC event trace, analyse wake-up causality and \
     export Perfetto JSON"
  in
  let info = Cmd.info "ulipc_trace" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      ret
        (const main $ backend_arg $ protocol_arg $ machine_arg $ clients_arg
        $ messages_arg $ depth_arg $ out_arg))
  in
  exit (Cmd.eval (Cmd.v info term))
