(* Perf-regression gate over BENCH_real.json files.

     dune exec bench/compare.exe -- BASELINE.json CURRENT.json [--factor F]

   Reads the micro_ns_per_op rows of both files (the exact line-per-row
   layout Bench_json.write emits — this is a purpose-built scanner, not
   a JSON parser; field lookups take the FIRST occurrence of a key in
   the line, which schema /9 preserves by emitting the embedded
   telemetry "series" — whose point names shadow row keys like
   "messages" — as the last key of every row) and fails with exit code 1 if
   any row present in both is more than F times slower in CURRENT than in
   BASELINE (default F = 3: wide enough to absorb quick-mode noise and
   shared-CI jitter, tight enough to catch a lost fast path).  Rows whose
   baseline already sits at 1 µs or more are scheduler-bound (round-trips
   through sleep/wake on a time-shared core, where a single descheduled
   trial shows up as an 8-10x outlier), so they get 3F instead — still
   far under the 75x of the original BSS pathology.

   The real_driver rows gate too: every echo/sweep row is keyed by
   (backend, transport, protocol, nclients, nservers, depth) — backend
   defaults to "inproc" for pre-/8 baselines — and its saturation
   throughput (msg/ms) must not fall below baseline/3F — the whole row
   class is scheduler-bound, hence the wide factor; what the gate exists
   to catch is the order-of-magnitude cliff of a sharding bug
   serialising the fleet.  Throughput on these rows depends on the
   per-cell message budget (a 512-message quick cell is startup-
   dominated where an 8192-message full cell is steady-state), so the
   two sections must be gated against *like-mode* baselines: CI runs
   this per-section, `--micro-only` against the committed full-mode
   BENCH_real.json and `--real-only` against the committed quick-mode
   BENCH_quick.json.  Real rows whose baseline sits below 1 msg/ms are
   reported but not gated (pure scheduler thrash — 100+ domains round-
   robin on a shared runner; run-to-run spread there exceeds any
   sane limit).  Rows missing on either side, or null on either side,
   are reported but never fatal — adding or renaming a benchmark (or
   widening the sweep grid) must not break the gate.

   The sem_wake_latency rows (schema /7) gate the waiting-array
   semaphore's directed wake path: per waiter population, the p99
   V->woken-waiter-runs latency must not exceed 3F times baseline —
   the micro gate's scheduler-bound tier, because every sample crosses
   a sleep/wake through the OS scheduler.  `--wake-only` selects just
   this section; like the real rows it needs a like-mode baseline
   (quick vs quick), and a trace violation in the current file is
   itself fatal — a lost wake-up is a bug, not noise.

   `--proc-only FILE` (single file, schema /8) is an absolute gate, not
   a baseline comparison: every backend=proc shm row's round-trip
   latency must beat the pipe baseline row in the SAME file — the
   tentpole claim that user-level sleep/wake-up over a shared arena
   beats the kernel's pipe path on identical blocking semantics.  It
   is absolute because it compares two transports measured seconds
   apart on the same host, so host speed divides out. *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* Extract the string after [key] up to the closing quote, if present. *)
let string_field line key =
  let pat = Printf.sprintf "\"%s\": \"" key in
  match
    let n = String.length line and k = String.length pat in
    let rec scan i =
      if i + k > n then None
      else if String.sub line i k = pat then Some (i + k)
      else scan (i + 1)
    in
    scan 0
  with
  | None -> None
  | Some start -> (
    match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start)))

(* Extract the number (or null) after [key]. *)
let float_field line key =
  let pat = Printf.sprintf "\"%s\": " key in
  let n = String.length line and k = String.length pat in
  let rec scan i =
    if i + k > n then None
    else if String.sub line i k = pat then Some (i + k)
    else scan (i + 1)
  in
  match scan 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < n
      && match line.[!stop] with
         | '0' .. '9' | '.' | '-' | '+' | 'e' | 'E' -> true
         | _ -> false
    do
      incr stop
    done;
    if !stop = start then None (* "null" or malformed *)
    else float_of_string_opt (String.sub line start (!stop - start))

(* [(name, ns_per_op)] rows of the micro section. *)
let micro_rows path =
  let in_micro = ref false in
  List.filter_map
    (fun line ->
      if !in_micro && String.trim line = "]," then in_micro := false;
      if String.length (String.trim line) >= 18
         && String.trim line = "\"micro_ns_per_op\": ["
      then in_micro := true;
      (* row lines carry both a name and ns_per_op *)
      if not !in_micro then None
      else
        match (string_field line "name", float_field line "ns_per_op") with
        | Some name, Some ns -> Some (name, ns)
        | _ -> None)
    (read_lines path)

(* [(key, throughput_msg_per_ms option)] rows of the real_driver section,
   keyed by everything that identifies a sweep cell.  Bench_json writes
   one row per line, so the same line scanner applies. *)
let real_rows path =
  let in_real = ref false in
  List.filter_map
    (fun line ->
      if !in_real && String.trim line = "]" then in_real := false;
      if String.trim line = "\"real_driver\": [" then in_real := true;
      if not !in_real then None
      else
        let backend =
          (* schema /7 and earlier predate the cross-process backend *)
          Option.value (string_field line "backend") ~default:"inproc"
        in
        match
          ( string_field line "transport",
            string_field line "protocol",
            float_field line "nclients",
            float_field line "nservers",
            float_field line "depth" )
        with
        | Some transport, Some protocol, Some nclients, Some nservers,
          Some depth ->
          let key =
            Printf.sprintf "%s %s %s %dc %ds d%d" backend transport protocol
              (int_of_float nclients) (int_of_float nservers)
              (int_of_float depth)
          in
          Some (key, float_field line "throughput_msg_per_ms")
        | Some transport, Some protocol, Some nclients, None, Some depth ->
          (* schema /5 baselines predate the server pool: one server *)
          let key =
            Printf.sprintf "%s %s %s %dc 1s d%d" backend transport protocol
              (int_of_float nclients) (int_of_float depth)
          in
          Some (key, float_field line "throughput_msg_per_ms")
        | _ -> None)
    (read_lines path)

(* [(transport, protocol, depth, round_trip_us option)] rows of the
   backend=proc real_driver section — the input of the absolute
   shm-beats-pipe gate. *)
let proc_rt_rows path =
  let in_real = ref false in
  List.filter_map
    (fun line ->
      if !in_real && String.trim line = "]" then in_real := false;
      if String.trim line = "\"real_driver\": [" then in_real := true;
      if not !in_real then None
      else if string_field line "backend" <> Some "proc" then None
      else
        match
          ( string_field line "transport",
            string_field line "protocol",
            float_field line "depth" )
        with
        | Some transport, Some protocol, Some depth ->
          Some
            ( transport,
              protocol,
              int_of_float depth,
              float_field line "round_trip_us" )
        | _ -> None)
    (read_lines path)

(* The absolute cross-process gate: every shm row beats the pipe
   baseline row of the same file on round-trip latency.  Exit 2 when
   the file has no proc rows at all (wrong file, or the bench section
   silently skipped) so CI can't pass vacuously. *)
let proc_gate path =
  let rows = proc_rt_rows path in
  let rt_of transport =
    List.filter_map
      (fun (tr, _, _, rt) -> if tr = transport then rt else None)
      rows
  in
  match rt_of "pipe" with
  | [] ->
    Printf.eprintf "compare: no backend=proc pipe row in %s\n" path;
    exit 2
  | pipe_rts -> (
    let pipe_rt = List.fold_left min infinity pipe_rts in
    let shm = List.filter (fun (tr, _, _, _) -> tr = "shm") rows in
    if shm = [] then (
      Printf.eprintf "compare: no backend=proc shm rows in %s\n" path;
      exit 2);
    let losses = ref 0 in
    List.iter
      (fun (_, protocol, depth, rt) ->
        match rt with
        | None ->
          incr losses;
          Printf.printf "  NULL      shm %s d%d (no round_trip_us)\n" protocol
            depth
        | Some rt ->
          let flag =
            if rt < pipe_rt then "ok"
            else (
              incr losses;
              "LOST")
          in
          Printf.printf "  %-9s shm %-11s d%-2d %10.2f us  vs pipe %10.2f us  (x%.2f)\n"
            flag protocol depth rt pipe_rt (rt /. pipe_rt))
      shm;
    (match rt_of "socket" with
    | s :: _ -> Printf.printf "  (socket baseline: %.2f us)\n" s
    | [] -> ());
    if !losses > 0 then (
      Printf.printf
        "compare: %d shm row(s) fail to beat the pipe baseline (%.2f us)\n"
        !losses pipe_rt;
      exit 1)
    else
      Printf.printf "compare: all %d shm rows beat the pipe baseline (%.2f us)\n"
        (List.length shm) pipe_rt)

(* [(waiters, (p99_us option, violations))] rows of the sem_wake_latency
   section. *)
let sem_rows path =
  let in_sem = ref false in
  List.filter_map
    (fun line ->
      if !in_sem && String.trim line = "]," then in_sem := false;
      if String.trim line = "\"sem_wake_latency\": [" then in_sem := true;
      if not !in_sem then None
      else
        match (float_field line "waiters", float_field line "violations") with
        | Some waiters, Some violations ->
          Some
            ( int_of_float waiters,
              (float_field line "p99_us", int_of_float violations) )
        | _ -> None)
    (read_lines path)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let micro_on = ref true and real_on = ref true and wake_on = ref true in
  let proc_on = ref false in
  let rec split_factor acc = function
    | "--factor" :: f :: rest -> (float_of_string f, List.rev_append acc rest)
    | "--micro-only" :: rest ->
      real_on := false;
      wake_on := false;
      split_factor acc rest
    | "--real-only" :: rest ->
      micro_on := false;
      wake_on := false;
      split_factor acc rest
    | "--wake-only" :: rest ->
      micro_on := false;
      real_on := false;
      split_factor acc rest
    | "--proc-only" :: rest ->
      proc_on := true;
      split_factor acc rest
    | a :: rest -> split_factor (a :: acc) rest
    | [] -> (3.0, List.rev acc)
  in
  let factor, paths = split_factor [] args in
  match paths with
  | [ path ] when !proc_on -> proc_gate path
  | [ baseline_path; current_path ] ->
    let baseline = if !micro_on then micro_rows baseline_path else [] in
    let current = if !micro_on then micro_rows current_path else [] in
    if !micro_on && baseline = [] then (
      Printf.eprintf "compare: no micro rows in %s\n" baseline_path;
      exit 2);
    if !micro_on && current = [] then (
      Printf.eprintf "compare: no micro rows in %s\n" current_path;
      exit 2);
    let regressions = ref 0 in
    List.iter
      (fun (name, base_ns) ->
        match List.assoc_opt name current with
        | None -> Printf.printf "  MISSING %-52s (baseline %.1f ns)\n" name base_ns
        | Some cur_ns ->
          let ratio = if base_ns > 0.0 then cur_ns /. base_ns else nan in
          let limit = if base_ns >= 1000.0 then factor *. 3.0 else factor in
          let flag =
            if Float.is_finite ratio && ratio > limit then (
              incr regressions;
              "REGRESSED")
            else "ok"
          in
          Printf.printf "  %-9s %-52s %10.1f -> %10.1f ns  (x%.2f)\n" flag
            name base_ns cur_ns ratio)
      baseline;
    List.iter
      (fun (name, _) ->
        if not (List.mem_assoc name baseline) then
          Printf.printf "  NEW       %s\n" name)
      current;
    (* Saturation-throughput gate over the echo/sweep rows: throughput
       is higher-better, so the failing direction is CURRENT falling
       below BASELINE / limit.  Baselines under 1 msg/ms are reported
       as NOISY but never gated. *)
    let base_real = if !real_on then real_rows baseline_path else [] in
    let cur_real = if !real_on then real_rows current_path else [] in
    if !real_on && base_real = [] then (
      Printf.eprintf "compare: no real_driver rows in %s\n" baseline_path;
      exit 2);
    let limit = factor *. 3.0 in
    List.iter
      (fun (key, base_tp) ->
        match (base_tp, List.assoc_opt key cur_real) with
        | None, _ -> ()
        | Some tp, None ->
          Printf.printf "  MISSING %-52s (baseline %.2f msg/ms)\n" key tp
        | Some _, Some None ->
          Printf.printf "  NULL      %s\n" key
        | Some base_tp, Some (Some cur_tp) ->
          let ratio = if cur_tp > 0.0 then base_tp /. cur_tp else infinity in
          let flag =
            if not (Float.is_finite base_tp) then "ok"
            else if base_tp < 1.0 then "NOISY"
            else if ratio > limit then (
              incr regressions;
              "REGRESSED")
            else "ok"
          in
          Printf.printf
            "  %-9s %-52s %10.2f -> %10.2f msg/ms  (x%.2f)\n" flag key
            base_tp cur_tp ratio)
      base_real;
    List.iter
      (fun (key, _) ->
        if not (List.mem_assoc key base_real) then
          Printf.printf "  NEW       %s\n" key)
      cur_real;
    (* Directed-wake-latency gate: p99 is lower-better like the micro
       rows, and every sample crosses the OS scheduler, so the limit is
       the micro gate's scheduler-bound tier (3F).  A trace violation
       in the current file fails outright: the causal analysis found a
       lost or misdirected wake-up. *)
    let base_sem = if !wake_on then sem_rows baseline_path else [] in
    let cur_sem = if !wake_on then sem_rows current_path else [] in
    if !wake_on && base_sem = [] then (
      Printf.eprintf "compare: no sem_wake_latency rows in %s\n" baseline_path;
      exit 2);
    if !wake_on && cur_sem = [] then (
      Printf.eprintf "compare: no sem_wake_latency rows in %s\n" current_path;
      exit 2);
    let limit = factor *. 3.0 in
    List.iter
      (fun (waiters, (base_p99, _)) ->
        let key = Printf.sprintf "sem wake p99, %d waiters" waiters in
        match (base_p99, List.assoc_opt waiters cur_sem) with
        | None, _ -> ()
        | Some p99, None ->
          Printf.printf "  MISSING %-52s (baseline %.2f us)\n" key p99
        | Some _, Some (None, _) -> Printf.printf "  NULL      %s\n" key
        | Some base_p99, Some (Some cur_p99, cur_viol) ->
          let ratio = if base_p99 > 0.0 then cur_p99 /. base_p99 else nan in
          let flag =
            if cur_viol > 0 then (
              incr regressions;
              "VIOLATED")
            else if Float.is_finite ratio && ratio > limit then (
              incr regressions;
              "REGRESSED")
            else "ok"
          in
          Printf.printf "  %-9s %-52s %10.2f -> %10.2f us  (x%.2f)\n" flag key
            base_p99 cur_p99 ratio)
      base_sem;
    List.iter
      (fun (waiters, _) ->
        if not (List.mem_assoc waiters base_sem) then
          Printf.printf "  NEW       sem wake p99, %d waiters\n" waiters)
      cur_sem;
    if !regressions > 0 then (
      Printf.printf "compare: %d row(s) regressed beyond %.1fx\n" !regressions
        factor;
      exit 1)
    else Printf.printf "compare: no regression beyond %.1fx\n" factor
  | _ ->
    prerr_endline
      "usage: compare BASELINE.json CURRENT.json [--factor F] [--micro-only | \
       --real-only | --wake-only]   (default F = 3.0)\n\
      \       compare FILE.json --proc-only    (absolute shm-beats-pipe gate)";
    exit 2
