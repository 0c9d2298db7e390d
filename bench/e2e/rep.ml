(* One repetition of one workload, run in a process of its own: a fresh
   heap every time, and fork stays legal for the cross-process backend
   (OCaml 5 forbids fork once a domain has been spawned).

   The repetition warms up, opens a time-boxed window (or, when traced,
   runs a fixed number of calls), and reports to its parent over stdout,
   one line per item:

     open                     the measured window has started
     progress <client> <n>    <n> messages completed so far by <client>
     m <name> <value>         a measured value
     done                     the report is complete

   The window's counters, CPU time and allocation are deltas between the
   window's two edges, so set-up and warm-up traffic stay out of every
   per-message figure. *)

module Clock = Ulipc_observe.Clock
module Event = Ulipc_observe.Event
module Counters = Ulipc.Counters
module Rpc = Ulipc_real.Rpc
module Trace_ring = Ulipc_real.Trace_ring
module Proc_rpc = Ulipc_procipc.Proc_rpc
module Lat = Ulipc_e2e.Stats.Lat

type backend = Domains | Proc

type workload = {
  name : string;
  backend : backend;
  clients : int;
  depth : int; (* messages in flight per client call *)
  why : string;
}

let sync_domains =
  {
    name = "sync-domains";
    backend = Domains;
    clients = 1;
    depth = 1;
    why =
      "1 client and 1 server domain; both park on every call, so the \
       Rsem park-to-wake path dominates";
  }

let pipeline_domains =
  {
    name = "pipeline-domains";
    backend = Domains;
    clients = 1;
    depth = 8;
    why =
      "1 client with 8 calls in flight against a batch server; span \
       claims, multipush and wake coalescing amortise the parks over each \
       burst";
  }

let fanin_domains =
  {
    name = "fanin-domains";
    backend = Domains;
    clients = 2;
    depth = 1;
    why =
      "2 sync client domains into 1 server: two producers on the MPSC \
       ring and awake-flag races while the server stays mostly awake";
  }

(* The same echo between fork'd processes, through the Fsem futex path
   and the arena rings and slab.  Not recorded: the fork'd backend loses
   wake-ups (both processes end parked in FUTEX_WAIT), and the
   benchmark's recorded workloads must be ones on which no call fails.
   It stays runnable by name to reproduce and count the hangs. *)
let sync_proc =
  {
    name = "sync-proc";
    backend = Proc;
    clients = 1;
    depth = 1;
    why =
      "the same echo between fork'd processes through the Fsem futex path \
       and arena rings and slab";
  }

let recorded = [ sync_domains; pipeline_domains; fanin_domains ]
let workloads = recorded @ [ sync_proc ]

let find_workload name = List.find_opt (fun w -> w.name = name) workloads

let waiting_of_string s =
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "bsw" ] -> Some Rpc.Block
  | [ "bss" ] -> Some Rpc.Spin
  | [ "bswy" ] -> Some Rpc.Block_yield
  | [ "handoff" ] -> Some Rpc.Handoff
  | [ "bsls" ] -> Some (Rpc.Limited_spin 50)
  | [ "adapt" ] -> Some (Rpc.Adaptive 4096)
  | [ "bsls"; n ] -> Option.map (fun n -> Rpc.Limited_spin n) (int_of_string_opt n)
  | [ "adapt"; n ] -> Option.map (fun n -> Rpc.Adaptive n) (int_of_string_opt n)
  | _ -> None

type measure = Window of float (* seconds *) | Calls of int (* messages *)

type config = {
  workload : workload;
  waiting : Rpc.waiting;
  seed : int;
  warmup : int; (* messages, over all clients *)
  measure : measure;
  spawned_ns : int; (* when the parent spawned this process *)
  stall : bool; (* hang once the window opens *)
}

let traced cfg = match cfg.measure with Calls _ -> true | Window _ -> false

(* Report lines are single write(2)s under PIPE_BUF, so lines from
   several client domains never interleave. *)
let emit line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring Unix.stdout s off (n - off))
  in
  go 0

let metric name v = emit (Printf.sprintf "m %s %.17g" name v)

(* Negative payloads are control messages; request payloads are drawn
   non-negative from the seed, so the two never collide. *)
let ctl_stop = -1
let ctl_open = -2
let ctl_close = -3
let echo v = if v < 0 then v else v + 1
let npayloads = 1 lsl 10
let progress_ns = 100_000_000

type client = {
  id : int;
  payloads : int array;
  lat : Lat.t;
  starts : int array; (* traced: per-call stamps *)
  ends : int array;
  mutable ncalls : int;
  mutable msgs : int;
  mutable mismatches : int;
  mutable minor_words : float;
  mutable finish_ns : int;
  mutable actor : int;
}

let make_client cfg id =
  let st = Random.State.make [| cfg.seed; id |] in
  let stamped =
    match cfg.measure with
    | Calls n -> n / cfg.workload.clients / cfg.workload.depth
    | Window _ -> 0
  in
  {
    id;
    payloads = Array.init npayloads (fun _ -> Random.State.bits st);
    lat = Lat.create ();
    starts = Array.make stamped 0;
    ends = Array.make stamped 0;
    ncalls = 0;
    msgs = 0;
    mismatches = 0;
    minor_words = 0.0;
    finish_ns = 0;
    actor = 0;
  }

let payload c i = c.payloads.(i land (npayloads - 1))

(* Calls of [depth] messages each; a call returns its mismatch count. *)
let warm_calls cfg =
  cfg.warmup / cfg.workload.clients / cfg.workload.depth

let warm_up cfg c ~call =
  for k = 0 to warm_calls cfg - 1 do
    c.mismatches <- c.mismatches + call (k * cfg.workload.depth)
  done

let run_calls cfg c ~call ~deadline_ns =
  while cfg.stall do
    Unix.sleep 3600
  done;
  let depth = cfg.workload.depth in
  let first = warm_calls cfg * depth in
  let max_calls =
    match cfg.measure with Calls _ -> Array.length c.starts | Window _ -> max_int
  in
  let stamp = Array.length c.starts > 0 in
  let i = ref 0 and go = ref (max_calls > 0) in
  let next_report = ref (Clock.now_ns () + progress_ns) in
  while !go do
    let t0 = Clock.now_ns () in
    let bad = call (first + (!i * depth)) in
    let t1 = Clock.now_ns () in
    Lat.record c.lat (t1 - t0);
    if stamp then begin
      c.starts.(!i) <- t0;
      c.ends.(!i) <- t1
    end;
    c.mismatches <- c.mismatches + bad;
    incr i;
    if t1 >= !next_report then begin
      emit (Printf.sprintf "progress %d %d" c.id (!i * depth));
      next_report := t1 + progress_ns
    end;
    if t1 >= deadline_ns || !i >= max_calls then go := false
  done;
  c.ncalls <- !i;
  c.msgs <- !i * depth;
  c.finish_ns <- Clock.now_ns ()

let deadline cfg ~t_open =
  match cfg.measure with
  | Window s -> t_open + int_of_float (s *. 1e9)
  | Calls _ -> max_int

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM of this process, in kB. *)
let peak_rss_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l -> (
            match String.split_on_char ':' l with
            | [ "VmHWM"; v ] ->
              int_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
            | _ -> find ())
        in
        find ())
  with Sys_error _ | Failure _ -> 0

(* Trace rings hold every event of the run, so nothing is overwritten:
   a call costs each domain well under 8 events. *)
let make_trace cfg =
  match cfg.measure with
  | Calls n -> Some (Trace_ring.create ~capacity:(8 * (cfg.warmup + n)) ())
  | Window _ -> None

type outcome = {
  clients : client array;
  t_open : int;
  first_call_ns : int;
  cpu_s : float; (* window CPU of every process of the repetition *)
  counters : Counters.t; (* window delta *)
  slab_hwm : int;
  rss_kb : int;
  events : Event.t list;
  dropped : int;
}

let per_msg n msgs = float_of_int n /. float_of_int (max 1 msgs)

let report cfg o =
  let msgs = Array.fold_left (fun a c -> a + c.msgs) 0 o.clients in
  let mismatches = Array.fold_left (fun a c -> a + c.mismatches) 0 o.clients in
  let finish = Array.fold_left (fun a c -> max a c.finish_ns) o.t_open o.clients in
  let window_s = float_of_int (finish - o.t_open) /. 1e9 in
  let msgs_per_s = float_of_int msgs /. window_s in
  metric "msgs" (float_of_int msgs);
  metric "mismatches" (float_of_int mismatches);
  metric "msgs_per_s" msgs_per_s;
  if not (traced cfg) then begin
    let lat = Lat.create () in
    Array.iter (fun c -> Lat.merge_into ~dst:lat c.lat) o.clients;
    let c = o.counters in
    let blocks = c.Counters.client_blocks + c.Counters.server_blocks in
    metric "rt_p50_us" (Lat.percentile_ns lat 50.0 /. 1e3);
    metric "rt_p99_us" (Lat.percentile_ns lat 99.0 /. 1e3);
    metric "rt_p999_us" (Lat.percentile_ns lat 99.9 /. 1e3);
    metric "cpu_us_per_msg" (o.cpu_s *. 1e6 /. float_of_int (max 1 msgs));
    metric "setup_s" (float_of_int (o.first_call_ns - cfg.spawned_ns) /. 1e9);
    metric "peak_rss_mb" (float_of_int o.rss_kb /. 1024.0);
    metric "core.client_blocks_per_msg" (per_msg c.Counters.client_blocks msgs);
    metric "core.server_blocks_per_msg" (per_msg c.Counters.server_blocks msgs);
    metric "core.race_fix_per_msg" (per_msg c.Counters.race_fix_p msgs);
    metric "core.queue_full_sleeps_per_msg"
      (per_msg c.Counters.queue_full_sleeps msgs);
    metric "sem.parks_per_msg" (per_msg c.Counters.sem_parks msgs);
    metric "sem.grants_per_msg" (per_msg c.Counters.sem_grants msgs);
    metric "sem.park_ratio"
      (if blocks = 0 then 0.0 else per_msg c.Counters.sem_parks blocks);
    metric "slab.hwm" (float_of_int o.slab_hwm);
    metric "slab.minor_words_per_msg"
      (Array.fold_left (fun a c -> a +. c.minor_words) 0.0 o.clients
      /. float_of_int (max 1 msgs))
  end
  else begin
    let module A = Ulipc_observe.Trace_analysis in
    let a = A.analyse ~complete:(o.dropped = 0) o.events in
    let traced_msgs = cfg.warmup + msgs in
    let or0 x = if Float.is_nan x then 0.0 else x in
    metric "trace.wake_p50_us" (or0 a.A.wake_latency.A.p50_us);
    metric "trace.wake_p99_us" (or0 a.A.wake_latency.A.p99_us);
    metric "trace.block_p50_us" (or0 a.A.block_duration.A.p50_us);
    metric "trace.spurious_wakes_per_msg" (per_msg a.A.spurious_wakes traced_msgs);
    metric "trace.raced_wakes_per_msg" (per_msg a.A.raced_wakes traced_msgs);
    metric "trace.violations" (float_of_int (List.length a.A.violations));
    metric "trace.dropped" (float_of_int o.dropped);
    List.iteri
      (fun i v ->
        if i < 5 then
          Printf.eprintf "[%s] trace violation: %s\n%!" cfg.workload.name
            (Format.asprintf "%a" A.pp_violation v))
      a.A.violations;
    let depth = cfg.workload.depth in
    let calls =
      Array.to_list o.clients
      |> List.concat_map (fun c ->
             List.init c.ncalls (fun i ->
                 {
                   Ulipc_e2e.Path.client = c.id;
                   actor = c.actor;
                   t_start_us = float_of_int c.starts.(i) /. 1e3;
                   t_end_us = float_of_int c.ends.(i) /. 1e3;
                   msgs = depth;
                 }))
    in
    let skip = Array.make cfg.workload.clients (warm_calls cfg * depth) in
    let p = Ulipc_e2e.Path.split ~skip ~calls o.events in
    let module P = Ulipc_e2e.Path in
    metric "path.client_send_us" p.P.client_send_us;
    metric "path.request_wait_us" p.P.request_wait_us;
    metric "path.service_us" p.P.service_us;
    metric "path.reply_wait_us" p.P.reply_wait_us;
    metric "path.client_recv_us" p.P.client_recv_us;
    metric "path.rt_mean_us" p.P.rt_mean_us;
    metric "path.unexplained_us" p.P.unexplained_us;
    metric "path.unpaired" (float_of_int p.P.unpaired);
    metric "path.misordered" (float_of_int p.P.misordered)
  end;
  emit "done"

(* ------------------------------------------------------------------ *)
(* Domains backend                                                     *)
(* ------------------------------------------------------------------ *)

let serve_sync t =
  let live = ref true in
  let f ~client:_ v =
    if v < 0 then live := false;
    echo v
  in
  while !live do
    Rpc.serve t f
  done

let serve_batches t ~max =
  let live = ref true in
  while !live do
    let batch = Rpc.receive_batch t ~max in
    Rpc.reply_batch t
      (List.map
         (fun (c, v) ->
           if v < 0 then live := false;
           (c, echo v))
         batch)
  done

let domains_call cfg t c =
  let depth = cfg.workload.depth in
  if depth = 1 then fun i ->
    let v = payload c i in
    if Rpc.send t ~client:c.id v = v + 1 then 0 else 1
  else fun i ->
    let reqs = List.init depth (fun j -> payload c (i + j)) in
    let reps = Rpc.call_pipelined t ~client:c.id ~depth reqs in
    List.fold_left2 (fun bad q r -> if r = q + 1 then bad else bad + 1) 0 reqs reps

let run_domains cfg =
  let w = cfg.workload in
  let trace = make_trace cfg in
  let t : (int, int) Rpc.t =
    Rpc.create ?trace ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
      ~nclients:w.clients cfg.waiting
  in
  let server =
    Domain.spawn (fun () ->
        if w.depth = 1 then serve_sync t else serve_batches t ~max:w.depth)
  in
  let clients = Array.init w.clients (make_client cfg) in
  let snapshot () =
    Rpc.harvest_sem_counters t;
    Counters.snapshot (Rpc.counters t)
  in
  let ready = Atomic.make 0 and t_open = Atomic.make 0 in
  let first_call_ns = ref 0 and cpu0 = ref 0.0 and snap0 = ref (Counters.create ()) in
  let domains =
    Array.map
      (fun c ->
        Domain.spawn (fun () ->
            c.actor <- (Domain.self () :> int);
            let call = domains_call cfg t c in
            if c.id = 0 then first_call_ns := Clock.now_ns ();
            warm_up cfg c ~call;
            (* The last client to finish warming up opens the window. *)
            if Atomic.fetch_and_add ready 1 = w.clients - 1 then begin
              snap0 := snapshot ();
              cpu0 := cpu_s ();
              emit "open";
              Atomic.set t_open (Clock.now_ns ())
            end
            else
              while Atomic.get t_open = 0 do
                Unix.sleepf 20e-6
              done;
            let t_open = Atomic.get t_open in
            let mw0 = Gc.minor_words () in
            run_calls cfg c ~call ~deadline_ns:(deadline cfg ~t_open);
            c.minor_words <- Gc.minor_words () -. mw0))
      clients
  in
  Array.iter Domain.join domains;
  let cpu1 = cpu_s () in
  let counters = Counters.diff (snapshot ()) !snap0 in
  let slab_hwm = Ulipc_real.Slab.high_water (Rpc.slab t) in
  ignore (Rpc.send t ~client:0 ctl_stop : int);
  Domain.join server;
  let events, dropped =
    match trace with
    | Some tr -> (Trace_ring.events tr, Trace_ring.dropped tr)
    | None -> ([], 0)
  in
  report cfg
    {
      clients;
      t_open = Atomic.get t_open;
      first_call_ns = !first_call_ns;
      cpu_s = cpu1 -. !cpu0;
      counters;
      slab_hwm;
      rss_kb = peak_rss_kb ();
      events;
      dropped;
    }

(* ------------------------------------------------------------------ *)
(* Fork'd-process backend                                              *)
(* ------------------------------------------------------------------ *)

type server_report = {
  s_counters : Counters.t; (* window delta *)
  s_rss_kb : int;
  s_events : Event.t list; (* pid-namespaced *)
  s_dropped : int;
}

let harvest_events trace =
  match trace with
  | None -> ([], 0)
  | Some tr ->
    let pid = Unix.getpid () in
    ( List.map (Event.namespace_actor ~pid) (Trace_ring.events tr),
      Trace_ring.dropped tr )

(* The server child answers echo requests; the window controls make it
   snapshot its counters and answer with its CPU time in microseconds,
   which the client cannot read across the process boundary. *)
let proc_server t trace wr =
  let snapshot () =
    Proc_rpc.harvest_sem_counters t;
    Counters.snapshot (Proc_rpc.counters t)
  in
  let cpu_us () = int_of_float (cpu_s () *. 1e6) in
  let snap_open = ref (Counters.create ()) and snap_close = ref (Counters.create ()) in
  let live = ref true in
  let f ~client:_ v =
    if v >= 0 then v + 1
    else if v = ctl_open then begin
      snap_open := snapshot ();
      cpu_us ()
    end
    else if v = ctl_close then begin
      snap_close := snapshot ();
      cpu_us ()
    end
    else begin
      live := false;
      v
    end
  in
  while !live do
    Proc_rpc.serve t f
  done;
  let s_events, s_dropped = harvest_events trace in
  let oc = Unix.out_channel_of_descr wr in
  Marshal.to_channel oc
    {
      s_counters = Counters.diff !snap_close !snap_open;
      s_rss_kb = peak_rss_kb ();
      s_events;
      s_dropped;
    }
    [];
  flush oc

let run_proc cfg =
  let trace = make_trace cfg in
  let t = Proc_rpc.create ?trace ~nclients:1 cfg.waiting in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        proc_server t trace wr;
        0
      with e ->
        Printf.eprintf "[%s server] %s\n%!" cfg.workload.name
          (Printexc.to_string e);
        2
    in
    Unix._exit code
  | server_pid ->
    Unix.close wr;
    let c = make_client cfg 0 in
    let call i =
      let v = payload c i in
      if Proc_rpc.send t ~client:0 v = v + 1 then 0 else 1
    in
    let control v = Proc_rpc.send t ~client:0 v in
    let snapshot () =
      Proc_rpc.harvest_sem_counters t;
      Counters.snapshot (Proc_rpc.counters t)
    in
    let first_call_ns = Clock.now_ns () in
    warm_up cfg c ~call;
    let windowed = not (traced cfg) in
    let srv_cpu0 = if windowed then control ctl_open else 0 in
    let snap0 = snapshot () and cpu0 = cpu_s () in
    emit "open";
    let t_open = Clock.now_ns () in
    let mw0 = Gc.minor_words () in
    run_calls cfg c ~call ~deadline_ns:(deadline cfg ~t_open);
    c.minor_words <- Gc.minor_words () -. mw0;
    let cpu1 = cpu_s () and snap1 = snapshot () in
    let srv_cpu1 = if windowed then control ctl_close else 0 in
    let slab_hwm = Ulipc_procipc.Pslab.high_water (Proc_rpc.slab t) in
    ignore (control ctl_stop : int);
    let s : server_report =
      Marshal.from_channel (Unix.in_channel_of_descr rd)
    in
    Unix.close rd;
    (match Unix.waitpid [] server_pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> failwith "server child failed");
    let counters = Counters.diff snap1 snap0 in
    Counters.add counters s.s_counters;
    let events, dropped =
      let mine, dropped = harvest_events trace in
      (List.sort Event.compare (List.rev_append mine s.s_events), dropped + s.s_dropped)
    in
    c.actor <-
      (Event.namespace_actor ~pid:(Unix.getpid ())
         { Event.t_us = 0.0; actor = 0; seq = 0; chan = 0; kind = Event.Enqueue })
        .Event.actor;
    report cfg
      {
        clients = [| c |];
        t_open;
        first_call_ns;
        cpu_s = cpu1 -. cpu0 +. (float_of_int (srv_cpu1 - srv_cpu0) /. 1e6);
        counters;
        slab_hwm;
        rss_kb = peak_rss_kb () + s.s_rss_kb;
        events;
        dropped;
      }

let run cfg =
  match cfg.workload.backend with
  | Domains -> run_domains cfg
  | Proc -> run_proc cfg
