type t = {
  machine : string;
  protocol : Ulipc.Protocol_kind.t;
  nclients : int;
  nservers : int;
  messages : int;
  elapsed : Ulipc_engine.Sim_time.t;
  throughput_msg_per_ms : float;
  latency_us : Ulipc_observe.Histogram.t option;
  counters : Ulipc.Counters.t;
  server_usage : Ulipc_os.Syscall.usage;
  client_usage : Ulipc_os.Syscall.usage list;
  total_sim_time : Ulipc_engine.Sim_time.t;
  sim_steps : int;
  total_yields : int;
  utilization : float;
  utilization_max : float;
  depth : int;
  wake_latency_p50_us : float;
  wake_latency_p99_us : float;
  minor_words_per_op : float;
  series : Ulipc_observe.Series.frame list;
}

(* Real-domain runs have no simulated kernel behind them: usage, step and
   yield accounting do not exist.  Record the honest zeros/nans so the
   shared printers still apply. *)
let zero_usage =
  {
    Ulipc_os.Syscall.voluntary_switches = 0;
    involuntary_switches = 0;
    cpu_time = Ulipc_engine.Sim_time.zero;
    syscalls = 0;
  }

let of_real ?latency ?(utilization = nan) ?(utilization_max = nan)
    ?(depth = 1) ?(nservers = 1) ?(wake_latency_p50_us = nan)
    ?(wake_latency_p99_us = nan) ?(minor_words_per_op = nan) ?(series = [])
    ~machine ~protocol ~nclients ~messages ~elapsed_s ~counters () =
  let elapsed = Ulipc_engine.Sim_time.us_f (elapsed_s *. 1.0e6) in
  (* A single server's pool maximum IS its mean — callers only need to
     pass utilization_max for genuine pools. *)
  let utilization_max =
    if Float.is_nan utilization_max then utilization else utilization_max
  in
  {
    machine;
    protocol;
    nclients;
    nservers;
    messages;
    elapsed;
    throughput_msg_per_ms =
      (if elapsed_s <= 0.0 then nan
       else float_of_int messages /. (elapsed_s *. 1000.0));
    latency_us = latency;
    counters;
    server_usage = zero_usage;
    client_usage = [];
    total_sim_time = elapsed;
    sim_steps = 0;
    total_yields = 0;
    utilization;
    utilization_max;
    depth;
    wake_latency_p50_us;
    wake_latency_p99_us;
    minor_words_per_op;
    series;
  }

let round_trip_us t =
  if t.messages = 0 then nan
  else
    float_of_int t.nclients
    *. Ulipc_engine.Sim_time.to_us t.elapsed
    /. float_of_int t.messages

let latency_percentile t p =
  match t.latency_us with
  | Some h when Ulipc_observe.Histogram.count h > 0 ->
    Some (Ulipc_observe.Histogram.percentile h p)
  | Some _ | None -> None

let latency_max t =
  match t.latency_us with
  | Some h when Ulipc_observe.Histogram.count h > 0 ->
    Some (Ulipc_observe.Histogram.max_value h)
  | Some _ | None -> None

let yields_per_message t =
  if t.messages = 0 then nan
  else float_of_int t.total_yields /. float_of_int t.messages

let server_vcsw_per_message t =
  if t.messages = 0 then nan
  else
    float_of_int t.server_usage.Ulipc_os.Syscall.voluntary_switches
    /. float_of_int t.messages

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s %a clients=%d: %.2f msg/ms (%d msgs in %a; rt %.1f us)@,\
     yields/msg=%.2f server vcsw/msg=%.2f utilization=%.0f%%@,%a@]"
    t.machine Ulipc.Protocol_kind.pp t.protocol t.nclients
    t.throughput_msg_per_ms t.messages Ulipc_engine.Sim_time.pp t.elapsed
    (round_trip_us t) (yields_per_message t) (server_vcsw_per_message t)
    (100.0 *. t.utilization) Ulipc.Counters.pp t.counters

let pp_row ppf t =
  Format.fprintf ppf "%-10s %-11s %4dc %2ds d%-2d %8.2f msg/ms  rt %8.1f us"
    t.machine
    (Ulipc.Protocol_kind.name t.protocol)
    t.nclients t.nservers t.depth t.throughput_msg_per_ms (round_trip_us t);
  match t.latency_us with
  | Some h when Ulipc_observe.Histogram.count h > 0 ->
    Format.fprintf ppf "  p50 %8.1f  p99 %8.1f  max %8.1f us"
      (Ulipc_observe.Histogram.percentile h 50.0)
      (Ulipc_observe.Histogram.percentile h 99.0)
      (Ulipc_observe.Histogram.max_value h)
  | Some _ | None -> ()
