(* The coordinating process: spawns every repetition as a fresh
   subprocess, guards each with a watchdog, and reduces the reports to
   medians.  It never spawns a domain or forks itself, so its own heap
   and CPU stay out of the measurements. *)

module Stats = Ulipc_e2e.Stats
module Json = Ulipc_observe.Json_min

type kind = E2e | Layer

type metric = { name : string; unit : string; kind : kind }

let m kind unit name = { name; unit; kind }

(* Metrics of the untraced repetitions, each the median over them.  The
   first two are a repetition's median latency and throughput in units of
   the pipe round trip measured right after it (see Ladder.pipe_floor):
   a shared host's speed can drift over minutes by more than any bound
   worth gating on, and the ratio cancels the drift.  The raw times are
   kept as per-layer metrics. *)
let rep_metrics =
  [
    m E2e "pipe_rt" "rt_p50_vs_pipe";
    m E2e "msg/pipe_rt" "msgs_per_pipe_rt";
    m E2e "s" "setup_s";
    m E2e "MB" "peak_rss_mb";
    m Layer "1/s" "msgs_per_s";
    m Layer "us" "rt_p50_us";
    m Layer "us" "cpu_us_per_msg";
    m Layer "us" "floor.pipe_rt_us";
    m Layer "us" "rt_p99_us";
    m Layer "us" "rt_p999_us";
    m Layer "1/msg" "core.client_blocks_per_msg";
    m Layer "1/msg" "core.server_blocks_per_msg";
    m Layer "1/msg" "core.race_fix_per_msg";
    m Layer "1/msg" "core.queue_full_sleeps_per_msg";
    m Layer "1/msg" "sem.parks_per_msg";
    m Layer "1/msg" "sem.grants_per_msg";
    m Layer "ratio" "sem.park_ratio";
    m Layer "count" "slab.hwm";
    m Layer "words/msg" "slab.minor_words_per_msg";
  ]

(* Metrics of the one traced repetition per workload. *)
let trace_metrics =
  [
    m Layer "us" "trace.wake_p50_us";
    m Layer "us" "trace.wake_p99_us";
    m Layer "us" "trace.block_p50_us";
    m Layer "1/msg" "trace.spurious_wakes_per_msg";
    m Layer "1/msg" "trace.raced_wakes_per_msg";
    m Layer "count" "trace.violations";
    m Layer "count" "trace.dropped";
    m Layer "us" "path.client_send_us";
    m Layer "us" "path.request_wait_us";
    m Layer "us" "path.service_us";
    m Layer "us" "path.reply_wait_us";
    m Layer "us" "path.client_recv_us";
    m Layer "us" "path.unexplained_us";
  ]

let overhead_metric = m Layer "%" "trace.overhead_pct"

let ladder_metrics =
  List.map (m Layer "ns")
    [
      "ladder.spsc_pair_ns";
      "ladder.mpsc_pair_ns";
      "ladder.pring_spsc_pair_ns";
      "ladder.pring_mpsc_pair_ns";
      "ladder.slab_pair_ns";
      "ladder.pslab_pair_ns";
      "ladder.rsem_vp_ns";
      "ladder.fsem_vp_ns";
      "ladder.trace_record_ns";
    ]
  @ List.map (m Layer "us")
      [
        "ladder.rsem_handoff_us";
        "ladder.rsem_handoff_p99_us";
        "ladder.fsem_handoff_us";
        "ladder.fsem_handoff_p99_us";
        "floor.futex_handoff_us";
        "floor.yield_handoff_us";
      ]

let all_metrics = rep_metrics @ trace_metrics @ (overhead_metric :: ladder_metrics)

(* ------------------------------------------------------------------ *)
(* Subprocesses under a watchdog                                       *)
(* ------------------------------------------------------------------ *)

type child = {
  values : (string, float) Hashtbl.t;
  progress : (int, int) Hashtbl.t; (* client -> messages completed *)
  complete : bool; (* exited 0 after a full report *)
  killed : bool;
}

let exe = Sys.executable_name

let kill_group pid =
  (try Unix.kill (-pid) Sys.sigkill
   with Unix.Unix_error _ -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()))

(* After the kill, wait (boundedly) until no process of the group is
   left, so a killed repetition's server child is gone too. *)
let await_group_exit pid =
  let rec go n =
    if n > 0 then
      match Unix.kill (-pid) 0 with
      | () ->
        Unix.sleepf 0.01;
        go (n - 1)
      | exception Unix.Unix_error _ -> ()
  in
  go 200

let now_s () = Ulipc_observe.Clock.now_us () /. 1e6

(* Run [args] as a subprocess reporting on stdout.  The watchdog allows
   [start_s] until the child's window opens, then [open_s] more; a child
   that overruns is killed with its whole process group. *)
let run_child ~start_s ~open_s args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let values = Hashtbl.create 64 and progress = Hashtbl.create 4 in
  let done_ = ref false and killed = ref false in
  let deadline = ref (now_s () +. start_s) in
  let line l =
    match String.split_on_char ' ' l with
    | [ "open" ] -> deadline := now_s () +. open_s
    | [ "progress"; c; n ] -> Hashtbl.replace progress (int_of_string c) (int_of_string n)
    | [ "m"; name; v ] -> Hashtbl.replace values name (float_of_string v)
    | [ "done" ] -> done_ := true
    | _ -> prerr_endline ("ulipc_bench: unexpected report line: " ^ l)
  in
  let chunk = Bytes.create 4096 and pending = Buffer.create 256 in
  let rec loop () =
    let left = !deadline -. now_s () in
    if left <= 0.0 then begin
      killed := true;
      kill_group pid
    end
    else
      match Unix.select [ rd ] [] [] left with
      | [], _, _ -> loop ()
      | _ ->
        let n = Unix.read rd chunk 0 (Bytes.length chunk) in
        if n > 0 then begin
          Buffer.add_subbytes pending chunk 0 n;
          let s = Buffer.contents pending in
          let parts = String.split_on_char '\n' s in
          let rec feed = function
            | [ last ] ->
              Buffer.clear pending;
              Buffer.add_string pending last
            | l :: rest ->
              line l;
              feed rest
            | [] -> ()
          in
          feed parts;
          loop ()
        end
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  if !killed then await_group_exit pid;
  let exited_ok = match status with Unix.WEXITED 0 -> true | _ -> false in
  { values; progress; complete = exited_ok && !done_ && not !killed; killed = !killed }

(* ------------------------------------------------------------------ *)
(* Repetitions                                                         *)
(* ------------------------------------------------------------------ *)

type settings = {
  seed : int;
  reps : int;
  warmup : int;
  traced_calls : int;
  protocol : string;
  quick : bool;
  stall : bool;
}

type rep_outcome = {
  child : child;
  floor : child option; (* the pipe floor run after a windowed repetition *)
  issued : int; (* messages attempted *)
  failed : int; (* mismatched, or outstanding when the rep failed *)
}

let get c name = Hashtbl.find_opt c.values name

let outcome (w : Rep.workload) child =
  let completed =
    match get child "msgs" with
    | Some n when child.complete -> int_of_float n
    | _ -> Hashtbl.fold (fun _ n acc -> acc + n) child.progress 0
  in
  if child.complete then
    let bad = Option.value ~default:0.0 (get child "mismatches") in
    { child; floor = None; issued = completed; failed = int_of_float bad }
  else
    (* Every client of a closed loop has its whole window in flight. *)
    let outstanding = w.clients * w.depth in
    { child; floor = None; issued = completed + outstanding; failed = outstanding }

let rep_args s (w : Rep.workload) ~seed ~measure =
  [
    "--rep"; w.name;
    "--seed"; string_of_int seed;
    "--warmup"; string_of_int s.warmup;
    "--protocol"; s.protocol;
    "--spawned-ns"; string_of_int (Ulipc_observe.Clock.now_ns ());
  ]
  @ (if s.stall then [ "--stall" ] else [])
  @ measure

let quick_flag s = if s.quick then [ "--quick" ] else []

(* A windowed repetition, then the pipe floor that its latency and
   throughput are divided by. *)
let window_rep s w ~index ~window_s =
  let o =
    outcome w
      (run_child ~start_s:30.0 ~open_s:(window_s +. 5.0)
         (rep_args s w ~seed:((s.seed * 1000) + index)
            ~measure:[ "--window"; Printf.sprintf "%.17g" window_s ]))
  in
  let floor = run_child ~start_s:30.0 ~open_s:0.0 ([ "--rep"; "floor" ] @ quick_flag s) in
  (match (get o.child "rt_p50_us", get o.child "msgs_per_s", get floor "floor.pipe_rt_us") with
  | Some rt, Some rate, Some pipe when o.child.complete && floor.complete ->
    let set = Hashtbl.replace o.child.values in
    set "floor.pipe_rt_us" pipe;
    set "rt_p50_vs_pipe" (rt /. pipe);
    set "msgs_per_pipe_rt" (rate *. pipe /. 1e6)
  | _ -> ());
  { o with floor = Some floor }

let traced_rep s w =
  let child =
    run_child ~start_s:30.0 ~open_s:30.0
      (rep_args s w ~seed:((s.seed * 1000) + 999)
         ~measure:[ "--calls"; string_of_int s.traced_calls ])
  in
  outcome w child

let ladder_rep s = run_child ~start_s:120.0 ~open_s:0.0 ([ "--rep"; "ladder" ] @ quick_flag s)

(* ------------------------------------------------------------------ *)
(* Reduction and checks                                                *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : Rep.workload;
  values : (string * float array) list; (* metric -> per-rep values *)
  attempted : int;
  failed : int;
  failures : string list; (* failed checks, human-readable *)
}

let collect name outcomes =
  Array.of_list
    (List.filter_map
       (fun o -> if o.child.complete then get o.child name else None)
       outcomes)

let one c name = match get c name with Some v -> [| v |] | None -> [||]

let reduce (w : Rep.workload) ~reps ~traced ~ladder =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let check_outcome label o =
    if o.child.killed then
      fail "%s hung: killed by the watchdog with %d messages outstanding" label o.failed
    else if not o.child.complete then fail "%s failed (see stderr)" label
    else if o.failed > 0 then fail "%s: %d echo mismatches" label o.failed
  in
  List.iteri
    (fun i o ->
      check_outcome (Printf.sprintf "repetition %d" (i + 1)) o;
      match o.floor with
      | Some c when not c.complete ->
        fail "the pipe floor after repetition %d %s" (i + 1) (if c.killed then "hung" else "failed")
      | _ -> ())
    reps;
  let values = List.map (fun (m : metric) -> (m.name, collect m.name reps)) rep_metrics in
  let traced_values =
    match traced with
    | None -> []
    | Some o ->
      check_outcome "the traced repetition" o;
      let v = one o.child in
      let check name ok what =
        match v name with
        | [| x |] when not (ok x) -> fail "%s = %g: %s" name x what
        | _ -> ()
      in
      check "trace.violations" (fun x -> x = 0.0) "the trace breaks a protocol invariant";
      check "trace.dropped" (fun x -> x = 0.0) "the trace ring overwrote events";
      check "path.misordered" (fun x -> x = 0.0) "the critical-path pairing broke causality";
      check "path.unpaired" (fun x -> x = 0.0) "calls left without trace events";
      (match (v "path.unexplained_us", v "path.rt_mean_us") with
      | [| u |], [| rt |] when not (Float.abs u <= 0.05 *. rt) ->
        fail "path.unexplained_us = %g: the split misses more than 5%% of the %g us round trip" u rt
      | _ -> ());
      let overhead =
        match (v "msgs_per_s", Stats.median (collect "msgs_per_s" reps)) with
        | [| traced_rate |], untraced when traced_rate > 0.0 && not (Float.is_nan untraced) ->
          [| ((untraced /. traced_rate) -. 1.0) *. 100.0 |]
        | _ -> [||]
      in
      List.map (fun (m : metric) -> (m.name, v m.name)) trace_metrics
      @ [ (overhead_metric.name, overhead) ]
  in
  let ladder_values =
    match ladder with
    | None -> []
    | Some c ->
      if not c.complete then fail "the ladder %s" (if c.killed then "hung" else "failed");
      List.map (fun (m : metric) -> (m.name, one c m.name)) ladder_metrics
  in
  let all = reps @ Option.to_list traced in
  {
    workload = w;
    values = values @ traced_values @ ladder_values;
    attempted = List.fold_left (fun a (o : rep_outcome) -> a + o.issued) 0 all;
    failed = List.fold_left (fun a (o : rep_outcome) -> a + o.failed) 0 all;
    failures = List.rev !failures;
  }

let correct r = r.failures = []

let value r name =
  match List.assoc_opt name r.values with
  | Some a when Array.length a > 0 -> Some (Stats.median a)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_table r =
  let w = r.workload in
  Printf.printf "== %s  (%d client%s, %d in flight each, closed loop)\n   %s\n" w.name
    w.clients
    (if w.clients = 1 then "" else "s")
    w.depth w.why;
  List.iter
    (fun (m : metric) ->
      match List.assoc_opt m.name r.values with
      | Some a when Array.length a > 0 ->
        let spread =
          if Array.length a < 2 then ""
          else
            let lo = Array.fold_left Float.min infinity a
            and hi = Array.fold_left Float.max neg_infinity a in
            let rel = Stats.rel_iqr a in
            Printf.sprintf "  reps=%d min=%.6g max=%.6g rel_iqr=%s" (Array.length a) lo hi
              (if Float.is_nan rel then "n/a" else Printf.sprintf "%.1f%%" (100.0 *. rel))
        in
        Printf.printf "  %-34s %14.6g %s\n" m.name (Stats.median a)
          (if spread = "" then m.unit else Printf.sprintf "%-9s%s" m.unit spread)
      | _ -> ())
    all_metrics;
  Printf.printf "  %-34s %14d\n  %-34s %14d\n" "attempted" r.attempted "failed" r.failed;
  List.iter (fun f -> Printf.printf "  FAILED CHECK: %s\n" f) r.failures;
  flush stdout

(* The machine-readable last line: every metric of [kind], by name. *)
let result_line r kind =
  let metrics =
    List.filter_map
      (fun (m : metric) ->
        if m.kind <> kind then None
        else
          let v = Option.value ~default:nan (value r m.name) in
          Some (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_float v) m.unit))
      all_metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (correct r) (max 1 r.attempted) r.failed (String.concat ", " metrics)

let results_json ~host ~load0 ~load1 ~settings ~window_s results =
  let workload r =
    let metrics =
      List.filter_map
        (fun (m : metric) ->
          match List.assoc_opt m.name r.values with
          | Some a when Array.length a > 0 ->
            Some
              (Printf.sprintf "%S: {\"value\": %s, \"unit\": %S, \"reps\": [%s]}" m.name
                 (json_float (Stats.median a)) m.unit
                 (String.concat ", " (Array.to_list (Array.map json_float a))))
          | _ -> None)
        all_metrics
    in
    Printf.sprintf "%S: {\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
      r.workload.Rep.name (correct r) r.attempted r.failed (String.concat ", " metrics)
  in
  Printf.sprintf
    "{\"host\": %s, \"loadavg_start\": %S, \"loadavg_end\": %S, \"seed\": %d, \"reps\": %d, \
     \"window_s\": %s, \"protocol\": %S, \"workloads\": {%s}}\n"
    (Host.to_json host) load0 load1 settings.seed settings.reps (json_float window_s)
    settings.protocol
    (String.concat ", " (List.map workload results))

let calibration_file = "bench/e2e/calibration.json"

(* Compare this host's stamp with the one a results file was recorded
   under, and shout when they differ: numbers from another host, or from
   this one with another domain count, measure different code paths. *)
let warn_if_other_host ~host file =
  match In_channel.with_open_bin file In_channel.input_all with
  | exception Sys_error _ -> ()
  | text -> (
    match Option.bind (Result.to_option (Json.parse_result text)) (Json.member_opt "host") with
    | None -> ()
    | Some j -> (
      match Host.of_json j with
      | Some h when h = host -> ()
      | other ->
        let theirs = match other with Some h -> Host.to_string h | None -> "unreadable" in
        Printf.eprintf
          "\n\
           !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\
           !! WARNING: HOST STAMP DIFFERS FROM %s\n\
           !!   this host: %s\n\
           !!   recorded:  %s\n\
           !! Its medians and bounds do not describe this host.\n\
           !!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!\n\n\
           %!"
          file (Host.to_string host) theirs))

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* Repetitions of every workload, interleaved round-robin so host drift
   hits all workloads alike; then one traced repetition per workload and
   the ladder when [layers] is set. *)
let run_all s (ws : Rep.workload list) ~window_s ~layers =
  let reps = Array.make (List.length ws) [] in
  for i = 1 to s.reps do
    List.iteri (fun k w -> reps.(k) <- window_rep s w ~index:i ~window_s :: reps.(k)) ws
  done;
  let traced = List.map (fun w -> if layers then Some (traced_rep s w) else None) ws in
  let ladder = if layers then Some (ladder_rep s) else None in
  List.mapi
    (fun k w -> reduce w ~reps:(List.rev reps.(k)) ~traced:(List.nth traced k) ~ladder)
    ws

(* One workload within [seconds] of wall time, spawns, warm-ups and, with
   [layers], the traced repetition and the ladder included.  Those two do
   a fixed amount of work, so they go first; then each repetition's
   window is its share of the time left, less the largest spawn, warm-up
   and teardown time a repetition has taken so far (guessed before the
   first).  Windows are never shorter than 0.1 s, so a host too slow for
   the budget overruns it rather than measuring nothing. *)
let run_within s (w : Rep.workload) ~layers ~seconds =
  let t_end = now_s () +. seconds in
  let traced = if layers then Some (traced_rep s w) else None in
  let ladder = if layers then Some (ladder_rep s) else None in
  let overhead = ref 0.5 and first = ref true in
  let reps =
    List.init s.reps (fun i ->
        let left = t_end -. now_s () in
        let window_s = Float.max 0.1 ((left /. float_of_int (s.reps - i)) -. !overhead) in
        let t0 = now_s () in
        let o = window_rep s w ~index:(i + 1) ~window_s in
        let spent = now_s () -. t0 -. window_s in
        overhead := if !first then spent else Float.max !overhead spent;
        first := false;
        o)
  in
  reduce w ~reps ~traced ~ladder

(* [runs] back-to-back --workload runs of each workload, for the
   regression bounds: per workload and end-to-end metric, the median and
   quartiles over the runs' seeds, and the bound max(10%, 3 x relative
   IQR) -- three times the spread, so a set's own spread stays under a
   third of its bound.  A metric whose bound would pass 25% on some
   workload is flagged for demotion. *)
let calibrate ws ~runs ~seconds ~protocol ~json ~host =
  let load0 = Host.loadavg () in
  let e2e = List.filter (fun m -> m.kind = E2e) all_metrics in
  let run_once (w : Rep.workload) run =
    let args =
      [ "--workload"; w.name; "--seed"; string_of_int run; "--seconds"; string_of_float seconds;
        "--trace"; "0"; "--protocol"; protocol ]
    in
    let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
    let lines = In_channel.input_all ic |> String.trim |> String.split_on_char '\n' in
    let status = Unix.close_process_in ic in
    let doc = Json.parse_result (List.nth lines (List.length lines - 1)) |> Result.to_option in
    if status <> Unix.WEXITED 0 || Option.bind doc (Json.member_opt "correct") <> Some (Json.Bool true)
    then Printf.printf "  !! %s run %d failed its checks\n" w.name run;
    let value (m : metric) =
      match Option.bind doc (Json.member_opt "metrics") |> Fun.flip Option.bind (Json.member_opt m.name) with
      | Some o -> (match Json.member_opt "value" o with Some (Json.Num v) -> Some v | _ -> None)
      | None -> None
    in
    Printf.printf "calibration run %d/%d %s done\n%!" run runs w.name;
    List.map value e2e
  in
  let cell (w : Rep.workload) (m : metric) values =
    let a = Array.of_list (List.filter_map Fun.id values) in
    if Array.length a < 2 then None
    else begin
      let q1, _, q3 = Stats.quartiles a and med = Stats.median a in
      let rel = Stats.rel_iqr a in
      (* setup_s takes the largest bound the gate allows: only the drift
         of its median is gated, not its spread. *)
      let bound = if m.name = "setup_s" then 0.25 else Float.max 0.10 (3.0 *. rel) in
      Printf.printf "  %-18s %-16s median %-12.6g q1 %-12.6g q3 %-12.6g rel_iqr %5.1f%%  bound %4.0f%%%s\n"
        w.name m.name med q1 q3 (100.0 *. rel) (100.0 *. bound)
        (if bound > 0.25 then "  (over 25%: demote)" else "");
      Some
        (Printf.sprintf "%S: {\"median\": %s, \"q1\": %s, \"q3\": %s, \"rel_iqr\": %s, \"bound\": %s, \"values\": [%s]}"
           m.name (json_float med) (json_float q1) (json_float q3) (json_float rel)
           (json_float bound)
           (String.concat ", " (Array.to_list (Array.map json_float a))))
    end
  in
  let rows =
    List.map
      (fun (w : Rep.workload) ->
        let per_run = List.init runs (fun i -> run_once w (i + 1)) in
        let cells = List.mapi (fun k m -> cell w m (List.map (fun r -> List.nth r k) per_run)) e2e in
        Printf.sprintf "%S: {%s}" w.name (String.concat ", " (List.filter_map Fun.id cells)))
      ws
  in
  let doc =
    Printf.sprintf
      "{\"host\": %s, \"loadavg_start\": %S, \"loadavg_end\": %S, \"runs\": %d, \"seconds\": %s, \
       \"protocol\": %S, \"workloads\": {%s}}\n"
      (Host.to_json host) load0 (Host.loadavg ()) runs (json_float seconds) protocol
      (String.concat ", " rows)
  in
  Option.iter (fun f -> Out_channel.with_open_bin f (fun oc -> output_string oc doc)) json
