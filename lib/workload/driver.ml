open Ulipc_engine
open Ulipc_os

type config = {
  machine : Ulipc_machines.Machine.t;
  kind : Ulipc.Protocol_kind.t;
  nclients : int;
  messages_per_client : int;
  capacity : int;
  fixed_priority : bool;
  server_work : Sim_time.t;
  client_think : Sim_time.t;
  collect_latency : bool;
  events : Ulipc_observe.Trace_ring.t option;
  time_limit : Sim_time.t option;
  iface : Ulipc.Iface.t option;
  noise : Noise.config option;
}

let config ?(capacity = 64) ?(fixed_priority = false)
    ?(server_work = Sim_time.zero) ?(client_think = Sim_time.zero)
    ?(collect_latency = false) ?events ?time_limit ?iface ?noise
    ~machine ~kind ~nclients ~messages_per_client () =
  {
    machine;
    kind;
    nclients;
    messages_per_client;
    capacity;
    fixed_priority;
    server_work;
    client_think;
    collect_latency;
    events;
    time_limit;
    iface;
    noise;
  }

exception Hung of Kernel.run_result

type outcome = {
  metrics : Metrics.t;
  kernel : Kernel.t;
  session : Ulipc.Session.t;
  server : Proc.t;
  clients : Proc.t list;
}

(* Fixed priority is granted by the launcher BEFORE the processes start
   competing, as the paper's super-user setup does.  Granting it from
   inside a process body instead reproduces the starvation the paper warns
   about: the first process to enter the real-time class outranks every
   timeshare process, and its busy-wait yields never let the others run
   (see the companion test in test_workload.ml). *)
let grant_fixed_priority cfg proc =
  if cfg.fixed_priority then proc.Proc.fixed_prio <- true

(* The server body: answer Connect requests all at once when every client
   has arrived (the barrier), then echo until every client disconnected.
   Returns the measurement window through the two refs. *)
let iface_of cfg =
  match cfg.iface with
  | Some iface -> iface
  | None -> Ulipc.Iface.of_kind cfg.kind

let server_body cfg session ~t_start ~t_stop ~echoed ~stop_noise () =
  let iface = iface_of cfg in
  (* Barrier: collect every client's Connect, then release all at once. *)
  let rec collect pending = function
    | 0 -> List.rev pending
    | n -> (
      let m = iface.Ulipc.Iface.receive session in
      match m.Ulipc.Message.opcode with
      | Ulipc.Message.Connect -> collect (m :: pending) (n - 1)
      | Ulipc.Message.Echo | Ulipc.Message.Disconnect | Ulipc.Message.Custom _
        ->
        failwith "server: expected Connect during the barrier phase")
  in
  let pending = collect [] cfg.nclients in
  List.iter
    (fun (m : Ulipc.Message.t) ->
      iface.Ulipc.Iface.reply session ~client:m.Ulipc.Message.reply_chan
        (Ulipc.Message.echo_reply m))
    pending;
  t_start := Usys.time ();
  let remaining = ref cfg.nclients in
  while !remaining > 0 do
    let m = iface.Ulipc.Iface.receive session in
    match m.Ulipc.Message.opcode with
    | Ulipc.Message.Echo ->
      Usys.work cfg.server_work;
      iface.Ulipc.Iface.reply session ~client:m.Ulipc.Message.reply_chan
        (Ulipc.Message.echo_reply m);
      incr echoed
    | Ulipc.Message.Disconnect ->
      iface.Ulipc.Iface.reply session ~client:m.Ulipc.Message.reply_chan
        (Ulipc.Message.echo_reply m);
      decr remaining
    | Ulipc.Message.Connect | Ulipc.Message.Custom _ ->
      failwith "server: unexpected request in the echo phase"
  done;
  t_stop := Usys.time ();
  stop_noise := true

let client_body cfg session ~client ~latency () =
  let iface = iface_of cfg in
  let send msg = iface.Ulipc.Iface.send session ~client msg in
  (* Connect doubles as the barrier: the reply releases us. *)
  let (_ : Ulipc.Message.t) =
    send (Ulipc.Message.make ~opcode:Connect ~reply_chan:client 0.0)
  in
  for seq = 1 to cfg.messages_per_client do
    Usys.work cfg.client_think;
    let arg = float_of_int ((client * 1_000_000) + seq) in
    let msg = Ulipc.Message.make ~opcode:Echo ~reply_chan:client ~seq arg in
    let ans =
      match latency with
      | None -> send msg
      | Some hist ->
        let before = Usys.time () in
        let ans = send msg in
        let after = Usys.time () in
        Ulipc_observe.Histogram.record hist
          (Sim_time.to_us (Sim_time.sub after before));
        ans
    in
    (* Integrity: the reply must carry our argument and sequence number. *)
    if not (Float.equal ans.Ulipc.Message.arg arg) then
      failwith
        (Printf.sprintf "client %d: echo argument mismatch at seq %d" client
           seq);
    if ans.Ulipc.Message.seq <> seq then
      failwith (Printf.sprintf "client %d: sequence mismatch" client)
  done;
  let (_ : Ulipc.Message.t) =
    send (Ulipc.Message.make ~opcode:Disconnect ~reply_chan:client 0.0)
  in
  ()

let run_outcome cfg =
  if cfg.nclients <= 0 then invalid_arg "Driver.run: nclients must be positive";
  if cfg.messages_per_client < 0 then
    invalid_arg "Driver.run: messages_per_client must be non-negative";
  if cfg.fixed_priority
     && not cfg.machine.Ulipc_machines.Machine.supports_fixed_priority
  then
    invalid_arg
      (Printf.sprintf "Driver.run: %s does not support fixed priorities"
         cfg.machine.Ulipc_machines.Machine.name);
  let machine = cfg.machine in
  let kernel =
    Kernel.create ?events:cfg.events
      ~ncpus:machine.Ulipc_machines.Machine.ncpus
      ~policy:(machine.Ulipc_machines.Machine.policy ())
      ~costs:machine.Ulipc_machines.Machine.costs ()
  in
  let session =
    Ulipc.Session.create ~kernel
      ~costs:machine.Ulipc_machines.Machine.costs
      ~multiprocessor:machine.Ulipc_machines.Machine.multiprocessor
      ~kind:cfg.kind ~nclients:cfg.nclients ~capacity:cfg.capacity ()
  in
  let t_start = ref Sim_time.zero and t_stop = ref Sim_time.zero in
  let echoed = ref 0 in
  let latency =
    if cfg.collect_latency then
      Some (Ulipc_observe.Histogram.create "round-trip (us)")
    else None
  in
  let stop_noise = ref false in
  (match cfg.noise with
  | Some noise -> Noise.spawn kernel ~stop:stop_noise noise
  | None -> ());
  let server =
    Kernel.spawn kernel ~name:"server"
      (server_body cfg session ~t_start ~t_stop ~echoed ~stop_noise)
  in
  grant_fixed_priority cfg server;
  Ulipc.Session.register_server session server.Proc.pid;
  let clients =
    List.init cfg.nclients (fun client ->
        let proc =
          Kernel.spawn kernel
            ~name:(Printf.sprintf "client-%d" client)
            (client_body cfg session ~client ~latency)
        in
        grant_fixed_priority cfg proc;
        proc)
  in
  (match Kernel.run ?until:cfg.time_limit kernel with
  | Kernel.Completed -> ()
  | (Kernel.Deadlock _ | Kernel.Time_limit | Kernel.Step_limit) as r ->
    raise (Hung r));
  let elapsed = Sim_time.sub !t_stop !t_start in
  let messages = !echoed in
  let throughput =
    if elapsed > 0 then float_of_int messages /. Sim_time.to_ms elapsed
    else nan
  in
  let total_yields =
    List.fold_left
      (fun acc p -> acc + p.Proc.yield_count)
      0 (Kernel.procs kernel)
  in
  let wake_latency_p50_us, wake_latency_p99_us =
    match cfg.events with
    | None -> (nan, nan)
    | Some ring ->
      let report =
        Ulipc_observe.Trace_analysis.analyse
          ~complete:(Ulipc_observe.Trace_ring.dropped ring = 0)
          (Ulipc_observe.Trace_ring.events ring)
      in
      let d = report.Ulipc_observe.Trace_analysis.wake_latency in
      ( d.Ulipc_observe.Trace_analysis.p50_us,
        d.Ulipc_observe.Trace_analysis.p99_us )
  in
  let metrics = {
    Metrics.machine = machine.Ulipc_machines.Machine.name;
    protocol = cfg.kind;
    nclients = cfg.nclients;
    nservers = 1;
    messages;
    elapsed;
    throughput_msg_per_ms = throughput;
    latency_us = latency;
    counters = session.Ulipc.Session.counters;
    server_usage = Proc.usage_snapshot server;
    client_usage = List.map Proc.usage_snapshot clients;
    total_sim_time = Kernel.now kernel;
    sim_steps = Kernel.steps_executed kernel;
    total_yields;
    utilization = Kernel.utilization kernel;
    utilization_max = Kernel.utilization kernel;
    depth = 1;
    wake_latency_p50_us;
    wake_latency_p99_us;
    (* a simulated run has no real allocator behind it *)
    minor_words_per_op = nan;
    (* ... and no wall-clock sampler: the simulator's timeline is the
       event trace itself *)
    series = [];
  }
  in
  { metrics; kernel; session; server; clients }

let run cfg = (run_outcome cfg).metrics

let sweep cfg ~clients =
  List.map (fun nclients -> run { cfg with nclients }) clients
