(* Live terminal dashboard over the telemetry plane: run one echo
   workload on the real-domains or cross-process backend with a
   [Telemetry.t] attached and repaint a small status screen from every
   sampled frame — throughput sparkline, current-window latency
   percentiles, per-shard queue depths, park/wake rates.

     ulipc_top --backend real --protocol bsw --nclients 8
     ulipc_top --backend proc --protocol adapt:4096 --messages 50000
     ulipc_top --backend real --once --prometheus

   [--once] skips the live repaint (no ANSI, CI-safe), renders the final
   frame once after the run and prints the one-line summary; [--prometheus]
   appends the registry's text exposition — the same bytes a scrape
   endpoint would serve.  The dashboard is a pure consumer of the frame
   stream: everything it shows is in [Metrics.series] / BENCH_real.json
   rows too. *)

open Cmdliner
open Ulipc_workload
module T = Ulipc_observe.Telemetry
module S = Ulipc_observe.Series

type backend = Real | Proc

let backend_conv =
  let parse = function
    | "real" -> Ok Real
    | "proc" -> Ok Proc
    | s -> Error (`Msg (Printf.sprintf "unknown backend %S (real, proc)" s))
  in
  let print ppf b =
    Format.pp_print_string ppf (match b with Real -> "real" | Proc -> "proc")
  in
  Arg.conv (parse, print)

(* The shared spelling; SYSV/CSEM parse but have no real backend. *)
let protocol_conv =
  Arg.conv (Ulipc.Protocol_kind.of_string, Ulipc.Protocol_kind.pp)

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let spark_levels = [| "\u{2581}"; "\u{2582}"; "\u{2583}"; "\u{2584}";
                      "\u{2585}"; "\u{2586}"; "\u{2587}"; "\u{2588}" |]
[@@ocamlformat "disable"]

(* Throughput history for the sparkline: a little ring of the most
   recent per-window rates, oldest first when rendered. *)
let spark_width = 48

type hist = { cells : float array; mutable n : int }

let hist_push h v =
  h.cells.(h.n mod spark_width) <- v;
  h.n <- h.n + 1

let sparkline h =
  let len = min h.n spark_width in
  let cell i = h.cells.((h.n - len + i) mod spark_width) in
  let hi = ref 0.0 in
  for i = 0 to len - 1 do
    let v = cell i in
    if (not (Float.is_nan v)) && v > !hi then hi := v
  done;
  let b = Buffer.create (3 * spark_width) in
  for i = 0 to len - 1 do
    let v = cell i in
    if Float.is_nan v || v <= 0.0 || !hi <= 0.0 then Buffer.add_char b ' '
    else
      Buffer.add_string b
        spark_levels.(min 7 (int_of_float (v /. !hi *. 8.0)))
  done;
  Buffer.contents b

let fmt_us v =
  if Float.is_nan v then "   -  "
  else if v >= 10_000.0 then Printf.sprintf "%5.1fms" (v /. 1000.0)
  else Printf.sprintf "%6.1fus" v

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* One frame -> the status lines, appended to [buf].  Every line is
   driven by point lookups so the same renderer serves both backends.
   Fork'd peers' latency samples and protocol counters reach the parent
   only with their reports, so on the proc backend those windows are
   empty until the run ends: a line with nothing in it is left out. *)
let render_frame buf ~header hist (f : S.frame) =
  let p name = S.point f name in
  let window_ms = f.S.window_us /. 1000.0 in
  let rate name =
    match p name with
    | Some d when window_ms > 0.0 -> Some (d /. window_ms)
    | _ -> None
  in
  let tput = Option.value ~default:0.0 (rate "messages") in
  hist_push hist tput;
  Printf.bprintf buf "%s\n" header;
  Printf.bprintf buf " tput %-*s %9.1f msg/ms\n" spark_width (sparkline hist)
    tput;
  (match
     ( p "latency_us_p50",
       p "latency_us_p99",
       p "latency_us_max",
       p "latency_us_count" )
   with
  | Some p50, Some p99, Some mx, Some n when n > 0.0 ->
    Printf.bprintf buf " lat  p50 %s   p99 %s   max %s   (window n=%.0f)\n"
      (fmt_us p50) (fmt_us p99) (fmt_us mx) n
  | _ -> ());
  let depths =
    List.filter
      (fun (n, _) -> starts_with ~prefix:"ring_depth_" n)
      (Array.to_list f.S.points)
  in
  if depths <> [] then begin
    Printf.bprintf buf " q   ";
    List.iter
      (fun (n, v) ->
        let shard =
          String.sub n 11 (String.length n - 11) (* after ring_depth_ *)
        in
        Printf.bprintf buf " [%s]=%.0f" shard v)
      depths;
    (match p "slab_in_use" with
    | Some v -> Printf.bprintf buf "   slab=%.0f" v
    | None -> ());
    Printf.bprintf buf "\n"
  end;
  let sum_rates names =
    List.fold_left
      (fun acc n ->
        match rate n with
        | Some r -> Some (Option.value ~default:0.0 acc +. r)
        | None -> acc)
      None names
  in
  let labelled =
    [
      ("parks", sum_rates [ "client_blocks"; "server_blocks" ]);
      ("wakes", sum_rates [ "client_wakeups"; "server_wakeups" ]);
      ("backoff", sum_rates [ "backoff_sleeps" ]);
      ("sem_parks", sum_rates [ "sem_parks" ]);
    ]
  in
  let shown = List.filter (fun (_, r) -> r <> None) labelled in
  if List.exists (fun (_, r) -> r <> Some 0.0) shown then begin
    Printf.bprintf buf " rate";
    List.iter
      (fun (name, r) ->
        Printf.bprintf buf "  %s=%.1f/ms" name (Option.get r))
      shown;
    Printf.bprintf buf "\n"
  end

(* Live repaint: home the cursor and clear-to-end per line, so the
   screen never flickers the way a full clear would. *)
let paint_live ~header hist f =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "\027[H";
  render_frame buf ~header hist f;
  (* Clear whatever a previous (longer) paint left below. *)
  Buffer.add_string buf "\027[J";
  print_string
    (String.concat "\027[K\n"
       (String.split_on_char '\n' (Buffer.contents buf)));
  flush stdout

(* --dump: the whole sampled timeline as an aligned table, one frame
   per row — the scriptable surface (EXPERIMENTS.md timelines, gnuplot)
   next to the human one. *)
let dump_series frames =
  print_string
    "#     t_ms  window_ms     msg/ms    p50_us    p99_us      depth  \
     slab\n";
  let t0 = match frames with f :: _ -> f.S.t_us | [] -> 0.0 in
  List.iter
    (fun f ->
      let p name = S.point f name in
      let window_ms = f.S.window_us /. 1000.0 in
      let tput =
        match p "messages" with
        | Some d when window_ms > 0.0 -> d /. window_ms
        | _ -> 0.0
      in
      let opt v = match v with Some x -> x | None -> nan in
      let depth =
        Array.fold_left
          (fun acc (n, v) ->
            if starts_with ~prefix:"ring_depth_" n then acc +. v else acc)
          0.0 f.S.points
      in
      Printf.printf "%10.1f %10.2f %10.1f %9.1f %9.1f %10.0f %5.0f\n"
        ((f.S.t_us -. t0) /. 1000.0)
        window_ms tput
        (opt (p "latency_us_p50"))
        (opt (p "latency_us_p99"))
        depth
        (opt (p "slab_in_use")))
    frames

let run_dashboard backend kind nclients messages depth nservers interval_ms
    once dump prometheus =
  match Ulipc.Protocol_kind.to_waiting kind with
  | None ->
    `Error
      ( false,
        Printf.sprintf "protocol %s has no real implementation"
          (Ulipc.Protocol_kind.name kind) )
  | Some waiting -> (
    try
      let header =
        Printf.sprintf
          "ulipc_top — %s %s  nclients=%d depth=%d nservers=%d  \
           interval=%.1fms"
          (match backend with Real -> "real" | Proc -> "proc")
          (Ulipc.Protocol_kind.name kind)
          nclients depth nservers interval_ms
      in
      let hist = { cells = Array.make spark_width nan; n = 0 } in
      let on_frame =
        if once then None else Some (paint_live ~header hist)
      in
      let tel = T.create ~interval_ms ?on_frame () in
      if not once then print_string "\027[?25l\027[2J";
      let m =
        Fun.protect
          ~finally:(fun () ->
            if not once then (
              print_string "\027[?25h";
              flush stdout))
          (fun () ->
            let peers =
              match backend with
              | Real -> Real_driver.Domains
              | Proc -> Real_driver.Processes
            in
            Real_driver.run ~peers ~traced:false ~telemetry:tel ~depth
              ~nservers ~nclients ~messages waiting)
      in
      (if once then
         (* The closing tick's window is post-run (all zeros); show the
            busiest sampled window instead.  The sparkline still needs
            the full history, so fold every frame through the renderer
            and print only the peak frame's paint. *)
         let peak =
           List.fold_left
             (fun acc f ->
               let msgs =
                 Option.value ~default:0.0 (S.point f "messages")
               in
               match acc with
               | Some (best, _) when best >= msgs -> acc
               | _ -> Some (msgs, f))
             None (T.frames tel)
         in
         match peak with
         | Some (_, f) ->
           List.iter
             (fun fr ->
               hist_push hist
                 (if fr.S.window_us > 0.0 then
                    Option.value ~default:0.0 (S.point fr "messages")
                    /. (fr.S.window_us /. 1000.0)
                  else 0.0))
             (T.frames tel);
           let buf = Buffer.create 512 in
           render_frame buf ~header hist f;
           print_string (Buffer.contents buf)
         | None -> ());
      if dump then dump_series (T.frames tel);
      Printf.printf
        "ulipc_top: %d frames sampled; run total %.1f msg/ms, p99 %.1f us\n"
        (List.length (T.frames tel))
        m.Metrics.throughput_msg_per_ms
        (Option.value ~default:nan (Metrics.latency_percentile m 99.0));
      if prometheus then print_string (T.to_prometheus tel);
      `Ok ()
    with Failure msg -> `Error (false, msg))

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let backend_t =
  Arg.(
    value
    & opt backend_conv Real
    & info [ "backend" ] ~docv:"BACKEND" ~doc:"Backend: real or proc.")

let protocol_t =
  Arg.(
    value
    & opt protocol_conv Ulipc.Protocol_kind.BSW
    & info [ "protocol" ] ~docv:"PROTO"
        ~doc:"Wait protocol: bss, bsw, bswy, bsls[:N], adapt[:N], handoff.")

let nclients_t =
  Arg.(
    value & opt int 4
    & info [ "nclients" ] ~docv:"N" ~doc:"Number of clients.")

let messages_t =
  Arg.(
    value & opt int 100_000
    & info [ "messages" ] ~docv:"N" ~doc:"Echo calls per client.")

let depth_t =
  Arg.(
    value & opt int 1
    & info [ "depth" ] ~docv:"D" ~doc:"Pipelining depth (1 = synchronous).")

let nservers_t =
  Arg.(
    value & opt int 1
    & info [ "nservers" ] ~docv:"N" ~doc:"Server pool size.")

let interval_t =
  Arg.(
    value & opt float 10.0
    & info [ "interval-ms" ] ~docv:"MS" ~doc:"Sampling interval.")

let once_t =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:
          "No live repaint: run, render the final frame once, print the \
           summary.  CI-safe (no ANSI control sequences).")

let dump_t =
  Arg.(
    value & flag
    & info [ "dump" ]
        ~doc:
          "Print the whole sampled timeline as an aligned table after the \
           run (one frame per row).")

let prometheus_t =
  Arg.(
    value & flag
    & info [ "prometheus" ]
        ~doc:"Print the Prometheus text exposition after the run.")

let () =
  let doc = "live telemetry dashboard for the echo workload" in
  let info = Cmd.info "ulipc_top" ~version:"1.0.0" ~doc in
  let term =
    Term.(
      ret
        (const run_dashboard $ backend_t $ protocol_t $ nclients_t
       $ messages_t $ depth_t $ nservers_t $ interval_t $ once_t $ dump_t
       $ prometheus_t))
  in
  exit (Cmd.eval (Cmd.v info term))
