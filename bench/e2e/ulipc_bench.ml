(* ulipc_bench: the repository benchmark.

     ulipc_bench [--seed N] [--quick] [--json OUT]
       every workload, R repetitions each interleaved round-robin, one
       traced repetition per workload and the layer ladder; prints every
       metric with its unit and per-repetition spread, exits non-zero on
       any failed check.

     ulipc_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]
       one workload within S seconds of wall time: 20 repetitions (1,
       with short warm-up, traced repetition and ladder, with --quick)
       whose windows share what set-up, warm-up and, with --trace 1, the
       traced repetition and the ladder leave of S; the last line of
       stdout is one JSON object with the end-to-end metrics (--trace 0)
       or the per-layer metrics (--trace 1).

     ulipc_bench --calibrate RUNS [--seconds S] [--json OUT]
       RUNS --workload runs of every workload with distinct seeds; the
       median, quartiles and regression bound of every end-to-end
       metric.

   --protocol (default bsw) overrides the waiting protocol for ad-hoc
   diagnosis; no recorded workload uses it.  --rep is internal: one
   repetition, run by the modes above in a subprocess of its own.
   --stall makes every repetition stop once its window opens, as a hung
   session would, so the tests can check the watchdog. *)

let usage =
  "ulipc_bench [--seed N] [--quick] [--json OUT]\n\
  \       ulipc_bench --workload NAME --seed N --seconds S --trace 0|1 [--quick]\n\
  \       ulipc_bench --calibrate RUNS [--seconds S] [--json OUT]"

let () =
  let seed = ref 1 and quick = ref false and json = ref "" in
  let workload = ref "" and seconds = ref 30.0 and trace = ref 0 in
  let calibrate = ref 0 and protocol = ref "bsw" in
  let rep = ref "" and warmup = ref 20_000 and window = ref 4.0 in
  let calls = ref 0 and spawned_ns = ref 0 and stall = ref false in
  Arg.parse
    [
      ("--seed", Arg.Set_int seed, "N  seed of the request payloads (default 1)");
      ("--quick", Arg.Set quick, " 1 repetition of 0.2 s per workload and a short ladder");
      ("--json", Arg.Set_string json, "OUT  write the full results as JSON");
      ("--workload", Arg.Set_string workload, "NAME  run one workload");
      ("--seconds", Arg.Set_float seconds, "S  wall-clock seconds of one --workload run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1  report end-to-end (0) or per-layer (1) metrics");
      ("--calibrate", Arg.Set_int calibrate, "RUNS  calibrate the regression bounds");
      ("--protocol", Arg.Set_string protocol, "P  bsw|bss|bswy|bsls[:N]|handoff|adapt[:N]");
      ("--rep", Arg.Set_string rep, "NAME  (internal) run one repetition");
      ("--warmup", Arg.Set_int warmup, "N  (internal) warm-up messages");
      ("--window", Arg.Set_float window, "S  (internal) measured window (default 4)");
      ("--calls", Arg.Set_int calls, "N  (internal) traced messages");
      ("--spawned-ns", Arg.Set_int spawned_ns, "NS  (internal) spawn time");
      ("--stall", Arg.Set stall, " (internal) repetitions hang once their window opens");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ulipc_bench: " ^ s); exit 2) fmt in
  let waiting =
    match Rep.waiting_of_string !protocol with
    | Some w -> w
    | None -> die "unknown protocol %S" !protocol
  in
  let find name =
    match Rep.find_workload name with
    | Some w -> w
    | None ->
      die "unknown workload %S (one of: %s)" name
        (String.concat ", " (List.map (fun (w : Rep.workload) -> w.name) Rep.workloads))
  in
  if !rep <> "" then begin
    (* Lead a process group of our own, so the watchdog can kill this
       repetition together with every process it forked. *)
    (try ignore (Unix.setsid () : int) with Unix.Unix_error _ -> ());
    if !rep = "ladder" then Ladder.run ~quick:!quick
    else if !rep = "floor" then Ladder.pipe_floor ~quick:!quick
    else
      Rep.run
        {
          Rep.workload = find !rep;
          waiting;
          seed = !seed;
          warmup = !warmup;
          measure = (if !calls > 0 then Rep.Calls !calls else Rep.Window !window);
          spawned_ns = !spawned_ns;
          stall = !stall;
        }
  end
  else begin
    let host = Host.current () in
    let load0 = Host.loadavg () in
    Printf.printf "host: %s loadavg=%s\n%!" (Host.to_string host) load0;
    Runner.warn_if_other_host ~host Runner.calibration_file;
    if !calibrate > 0 then begin
      if !seconds <= 0.0 then die "--seconds must be positive";
      Runner.calibrate Rep.recorded ~runs:!calibrate ~seconds:!seconds ~protocol:!protocol
        ~json:(if !json = "" then None else Some !json)
        ~host
    end
    else if !workload <> "" then begin
      let w = find !workload in
      if !seconds <= 0.0 then die "--seconds must be positive";
      if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
      let s =
        {
          Runner.seed = !seed;
          reps = (if !quick then 1 else 20);
          warmup = (if !quick then 2_000 else !warmup);
          traced_calls = (if !quick then 2_000 else 20_000);
          protocol = !protocol;
          quick = !quick;
          stall = !stall;
        }
      in
      let r = Runner.run_within s w ~layers:(!trace = 1) ~seconds:!seconds in
      Runner.print_table r;
      Printf.printf "loadavg_end=%s\n" (Host.loadavg ());
      print_endline (Runner.result_line r (if !trace = 1 then Runner.Layer else Runner.E2e));
      exit (if Runner.correct r then 0 else 1)
    end
    else begin
      let s =
        {
          Runner.seed = !seed;
          reps = (if !quick then 1 else 5);
          warmup = (if !quick then 2_000 else !warmup);
          traced_calls = (if !quick then 2_000 else 20_000);
          protocol = !protocol;
          quick = !quick;
          stall = !stall;
        }
      in
      let window_s = if !quick then 0.2 else 4.0 in
      let results = Runner.run_all s Rep.recorded ~window_s ~layers:true in
      List.iter Runner.print_table results;
      let load1 = Host.loadavg () in
      Printf.printf "loadavg_end=%s\n" load1;
      if !json <> "" then
        Out_channel.with_open_bin !json (fun oc ->
            output_string oc (Runner.results_json ~host ~load0 ~load1 ~settings:s ~window_s results));
      let ok = List.for_all Runner.correct results in
      print_endline (if ok then "all checks passed" else "SOME CHECKS FAILED");
      exit (if ok then 0 else 1)
    end
  end
