(* The §2.2 echo workload across PROCESSES: one fork'd server and
   [nclients] fork'd clients over the shared-memory arena
   (Ulipc_procipc), plus the pipe and Unix-domain-socket baselines the
   shm rows race against — the same-machine IPC ladder of the FreeBSD
   study (arXiv:2008.02145), with the paper's protocols on the shm
   rung.

   Fork discipline: the whole session — arena, rings, semaphores, slab,
   the barrier words below — is carved by the parent BEFORE any fork,
   so children inherit the mapping and the offset-holding records.
   Children never return into driver code: each runs its role, marshals
   a report up its pipe and [Unix._exit]s (no atexit, no double-flushed
   stdio; the parent flushes std streams before forking so no buffered
   bytes are duplicated into the children).

   Timing discipline mirrors Real_driver: a start barrier (two arena
   words) keeps fork+exec cost out of the measured interval.  [t0] is
   read by the parent once every client has checked in; each client
   stamps its own finish time and [t1] is the latest of them — valid
   because CLOCK_MONOTONIC is per-boot and system-wide, so child stamps
   and parent stamps share an origin (see Clock).

   Reports ride Marshal over a per-child pipe: Histogram and Counters
   are flat records of base types, and trace events are namespaced with
   the child's pid BEFORE marshalling (every process records as domain
   0 — Event.namespace_actor keeps the merged stream's actors unique).
   The merged, sorted stream feeds the same Trace_analysis the
   in-process driver uses, so cross-process runs report wake-latency
   percentiles (and can be checked against the full invariant suite by
   bin/ulipc_trace). *)

let probe_warmup = 32
let probe_ops = 512

type child_report = {
  r_counters : Ulipc.Counters.t;
  r_hist : Ulipc_observe.Histogram.t option; (* clients only *)
  r_waiting_s : float; (* server only *)
  r_finish_us : float;
  r_minor_words : float; (* client 0's probe; nan elsewhere *)
  r_events : Ulipc_observe.Event.t list; (* pid-namespaced *)
  r_dropped : int;
}

(* Fork one child running [role], reporting over a fresh pipe.  The
   child's exceptions become a message on stderr and exit code 2 — the
   parent turns a missing report into a failure instead of hanging. *)
let fork_child role =
  let rd, wr = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let report = role () in
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc report [];
        flush oc;
        0
      with e ->
        Printf.eprintf "[proc child %d] %s\n%!" (Unix.getpid ())
          (Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    Unix.close wr;
    (pid, rd)

let read_report (pid, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let report =
    match (Marshal.from_channel ic : child_report) with
    | r -> Some r
    | exception End_of_file -> None
  in
  close_in ic (* closes rd *);
  let _, status = Unix.waitpid [] pid in
  match (report, status) with
  | Some r, Unix.WEXITED 0 -> r
  | None, Unix.WEXITED 0 ->
    failwith (Printf.sprintf "Proc_driver: child %d sent no report" pid)
  | _, Unix.WEXITED n ->
    failwith (Printf.sprintf "Proc_driver: child %d exited with %d" pid n)
  | _, Unix.WSIGNALED s ->
    failwith (Printf.sprintf "Proc_driver: child %d killed by signal %d" pid s)
  | _, Unix.WSTOPPED s ->
    failwith (Printf.sprintf "Proc_driver: child %d stopped by signal %d" pid s)

(* Drain this process's trace copy into a pid-namespaced event list. *)
let harvest_events trace =
  match trace with
  | None -> ([], 0)
  | Some sink ->
    let pid = Unix.getpid () in
    ( List.map
        (Ulipc_observe.Event.namespace_actor ~pid)
        (Ulipc_real.Trace_ring.events sink),
      Ulipc_real.Trace_ring.dropped sink )

let child_report ?hist ?(waiting_s = 0.0) ?(minor_words = nan) ~finish_us
    ~counters ~trace () =
  let events, dropped = harvest_events trace in
  {
    r_counters = counters;
    r_hist = hist;
    r_waiting_s = waiting_s;
    r_finish_us = finish_us;
    r_minor_words = minor_words;
    r_events = events;
    r_dropped = dropped;
  }

(* ------------------------------------------------------------------ *)
(* Shared-memory backend                                               *)
(* ------------------------------------------------------------------ *)

let run ?(machine = "proc") ?(capacity = 64) ?(depth = 1) ?(traced = false)
    ?telemetry ?events_out ?dropped_out ?wake_residue_out ~nclients ~messages
    waiting =
  if depth <= 0 then invalid_arg "Proc_driver.run: depth must be positive";
  if messages <= 0 then
    invalid_arg "Proc_driver.run: messages must be positive";
  (* Tracing is opt-in here, unlike Real_driver: the pipe/socket
     baselines these rows race against can't be traced, and the ~45 ns
     per event (≈ 0.4 µs per round trip across both sides) would be
     charged to shm alone.  [events_out] implies tracing — it's the
     feed for bin/ulipc_trace, whose runs are about the events.  The
     sink is created pre-fork so each process inherits an empty private
     copy. *)
  let traced = traced || Option.is_some events_out in
  let trace =
    if traced then Some (Ulipc_real.Trace_ring.create ~capacity:65536 ())
    else None
  in
  let t = Ulipc_procipc.Proc_rpc.create ~capacity ?trace ~nclients waiting in
  let arena = Ulipc_procipc.Proc_rpc.arena t in
  (* Barrier words: READY counts checked-in clients, GO releases them. *)
  let ready_w = Ulipc_procipc.Parena.alloc_line arena ~words:Ulipc_procipc.Parena.cache_line_words in
  let go_w = Ulipc_procipc.Parena.alloc_line arena ~words:Ulipc_procipc.Parena.cache_line_words in
  (* Telemetry across the fork boundary: each client owns one arena
     cache line and plain-stores its measured-message count there after
     every send (single writer per word — the same TSO publish the rings
     rely on), so the PARENT can sample children live.  The parent never
     spawns a domain (fork discipline): it samples inline with
     [Telemetry.tick] from the report-collection select loop below. *)
  let tel =
    match telemetry with
    | Some tel -> tel
    | None -> Ulipc_observe.Telemetry.create ()
  in
  let msgs_w =
    Array.init nclients (fun _ ->
        Ulipc_procipc.Parena.alloc_line arena
          ~words:Ulipc_procipc.Parena.cache_line_words)
  in
  Ulipc_observe.Telemetry.ext_counters tel (fun () ->
      let total =
        Array.fold_left
          (fun acc w -> acc + Ulipc_procipc.Parena.get arena w)
          0 msgs_w
      in
      [ ("messages", total) ]);
  Ulipc_observe.Telemetry.gauge tel "ring_depth_0" (fun () ->
      float_of_int (Ulipc_procipc.Proc_rpc.request_depth t));
  Ulipc_observe.Telemetry.gauge tel "slab_in_use" (fun () ->
      float_of_int
        (Ulipc_procipc.Pslab.in_use_count (Ulipc_procipc.Proc_rpc.slab t)));
  let probe_total = if depth = 1 then probe_warmup + probe_ops else 0 in
  let server_role () =
    let remaining = ref ((nclients * messages) + probe_total) in
    let waiting_s = ref 0.0 in
    while !remaining > 0 do
      let before = Ulipc_observe.Clock.now_us () in
      Ulipc_procipc.Proc_rpc.serve t (fun ~client:_ v ->
          waiting_s := !waiting_s +. ((Ulipc_observe.Clock.now_us () -. before) /. 1.0e6);
          v + 1);
      decr remaining
    done;
    Ulipc_procipc.Proc_rpc.harvest_sem_counters t;
    child_report ~waiting_s:!waiting_s
      ~finish_us:(Ulipc_observe.Clock.now_us ())
      ~counters:(Ulipc_procipc.Proc_rpc.counters t) ~trace ()
  in
  let client_role c () =
    let hist = Ulipc_observe.Histogram.create "round-trip (us)" in
    let minor_words = ref nan in
    if c = 0 && probe_total > 0 then begin
      for i = 1 to probe_warmup do
        if Ulipc_procipc.Proc_rpc.send t ~client:0 i <> i + 1 then
          failwith "Proc_driver.run: echo mismatch"
      done;
      let calib =
        let a = Gc.minor_words () in
        Gc.minor_words () -. a
      in
      let w0 = Gc.minor_words () in
      for i = 1 to probe_ops do
        ignore (Ulipc_procipc.Proc_rpc.send t ~client:0 i : int)
      done;
      let w1 = Gc.minor_words () in
      minor_words :=
        Float.max 0.0 ((w1 -. w0 -. calib) /. float_of_int probe_ops)
    end;
    ignore (Ulipc_procipc.Parena.at_fetch_add arena ready_w 1 : int);
    while Ulipc_procipc.Parena.at_load arena go_w = 0 do
      Ulipc_procipc.Parena.sched_yield ()
    done;
    if depth = 1 then
      for i = 1 to messages do
        let before = Ulipc_observe.Clock.now_us () in
        let ans = Ulipc_procipc.Proc_rpc.send t ~client:c i in
        let after = Ulipc_observe.Clock.now_us () in
        if ans <> i + 1 then failwith "Proc_driver.run: echo mismatch";
        Ulipc_observe.Histogram.record hist (after -. before);
        Ulipc_procipc.Parena.set arena msgs_w.(c) i
      done
    else begin
      let sent = ref 0 in
      while !sent < messages do
        let k = min depth (messages - !sent) in
        let burst = Array.init k (fun j -> !sent + j + 1) in
        let before = Ulipc_observe.Clock.now_us () in
        let answers = Ulipc_procipc.Proc_rpc.call_pipelined t ~client:c ~depth burst in
        let after = Ulipc_observe.Clock.now_us () in
        Array.iteri
          (fun j ans ->
            if ans <> burst.(j) + 1 then
              failwith "Proc_driver.run: echo mismatch")
          answers;
        let per_msg_us = (after -. before) /. float_of_int k in
        for _ = 1 to k do
          Ulipc_observe.Histogram.record hist per_msg_us
        done;
        sent := !sent + k;
        Ulipc_procipc.Parena.set arena msgs_w.(c) !sent
      done
    end;
    let finish_us = Ulipc_observe.Clock.now_us () in
    Ulipc_procipc.Proc_rpc.harvest_sem_counters t;
    child_report ~hist ~minor_words:!minor_words ~finish_us
      ~counters:(Ulipc_procipc.Proc_rpc.counters t) ~trace ()
  in
  let server = fork_child server_role in
  let clients = List.init nclients (fun c -> fork_child (client_role c)) in
  (* Parent: wait for every client to check in, release them together. *)
  while Ulipc_procipc.Parena.at_load arena ready_w < nclients do
    Ulipc_procipc.Parena.sched_yield ()
  done;
  let t0_us = Ulipc_observe.Clock.now_us () in
  Ulipc_procipc.Parena.at_store arena go_w 1;
  (* Open the measured window at t0 (this frame's deltas cover only the
     pre-barrier setup, all zeros), then sample inline while waiting for
     the children's reports: select with the sampling interval as the
     timeout over every unread report pipe, one tick per wake-up.  Once
     a pipe turns readable its child has finished and is marshalling —
     the blocking Marshal read drains it promptly. *)
  ignore (Ulipc_observe.Telemetry.tick tel : Ulipc_observe.Series.frame);
  let client_reports =
    let interval_s = Ulipc_observe.Telemetry.interval_ms tel /. 1000.0 in
    let by_fd = Hashtbl.create (2 * nclients) in
    let pending = ref clients in
    while !pending <> [] do
      let fds = List.map snd !pending in
      let readable, _, _ =
        try Unix.select fds [] [] interval_s
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      ignore (Ulipc_observe.Telemetry.tick tel : Ulipc_observe.Series.frame);
      let done_, rest =
        List.partition (fun (_, rd) -> List.memq rd readable) !pending
      in
      List.iter
        (fun ((_, rd) as child) -> Hashtbl.replace by_fd rd (read_report child))
        done_;
      pending := rest
    done;
    List.map (fun (_, rd) -> Hashtbl.find by_fd rd) clients
  in
  let server_report = read_report server in
  let t1_us =
    List.fold_left
      (fun acc r -> Float.max acc r.r_finish_us)
      t0_us client_reports
  in
  let elapsed_s = (t1_us -. t0_us) /. 1.0e6 in
  let utilization =
    if elapsed_s <= 0.0 then nan
    else
      Float.max 0.0
        (Float.min 1.0 (1.0 -. (server_report.r_waiting_s /. elapsed_s)))
  in
  let latency = Ulipc_observe.Histogram.create "round-trip (us)" in
  let counters = Ulipc.Counters.create () in
  let minor_words_per_op = ref nan in
  let all_events = ref [] and all_dropped = ref 0 in
  let absorb r =
    Ulipc.Counters.add counters r.r_counters;
    (match r.r_hist with
    | Some h -> Ulipc_observe.Histogram.merge_into ~dst:latency h
    | None -> ());
    if Float.is_nan r.r_minor_words |> not then
      minor_words_per_op := r.r_minor_words;
    all_events := List.rev_append r.r_events !all_events;
    all_dropped := !all_dropped + r.r_dropped
  in
  List.iter absorb client_reports;
  absorb server_report;
  counters.Ulipc.Counters.slab_hwm <- Ulipc_procipc.Pslab.high_water (Ulipc_procipc.Proc_rpc.slab t);
  (* Close the window: the final frame's message delta makes the summed
     per-window deltas equal the row's messages exactly. *)
  ignore (Ulipc_observe.Telemetry.tick tel : Ulipc_observe.Series.frame);
  let series = Ulipc_observe.Telemetry.frames tel in
  let events = List.sort Ulipc_observe.Event.compare !all_events in
  (match events_out with Some r -> r := events | None -> ());
  (match dropped_out with Some r -> r := !all_dropped | None -> ());
  (match wake_residue_out with
  | Some r -> r := Ulipc_procipc.Proc_rpc.wake_residue t
  | None -> ());
  let wake_latency_p50_us, wake_latency_p99_us =
    if not traced then (nan, nan)
    else begin
      let report =
        Ulipc_observe.Trace_analysis.analyse ~complete:(!all_dropped = 0)
          events
      in
      let d = report.Ulipc_observe.Trace_analysis.wake_latency in
      ( d.Ulipc_observe.Trace_analysis.p50_us,
        d.Ulipc_observe.Trace_analysis.p99_us )
    end
  in
  Metrics.of_real ~latency ~utilization ~utilization_max:utilization ~depth
    ~nservers:1 ~wake_latency_p50_us ~wake_latency_p99_us
    ~minor_words_per_op:!minor_words_per_op ~series ~machine
    ~protocol:(Ulipc.Protocol_kind.of_waiting waiting)
    ~nclients
    ~messages:(nclients * messages)
    ~elapsed_s ~counters ()

(* ------------------------------------------------------------------ *)
(* File-descriptor baselines: pipes and Unix-domain sockets            *)
(* ------------------------------------------------------------------ *)

type fd_transport = Fd_pipe | Fd_socket

let fd_transport_name = function Fd_pipe -> "pipe" | Fd_socket -> "socket"

let payload_bytes = 8

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

let rec read_all fd buf pos len =
  if len > 0 then
    match Unix.read fd buf pos len with
    | 0 -> raise End_of_file
    | n -> read_all fd buf (pos + n) (len - n)

let put_payload buf v = Bytes.set_int64_le buf 0 (Int64.of_int v)
let get_payload buf = Int64.to_int (Bytes.get_int64_le buf 0)

(* One kernel-object channel per client: a pipe pair or one socketpair.
   The server blocks in read (1 client) or select (n clients) — the
   kernel's own sleep/wake-up protocol, which is exactly why these rows
   are the baseline the shm protocols must beat: same blocking
   semantics, but every message pays two syscalls and a copy each way. *)
let run_fd ?(machine = "proc") ~transport ~nclients ~messages () =
  if messages <= 0 then
    invalid_arg "Proc_driver.run_fd: messages must be positive";
  let mk_pair () =
    match transport with
    | Fd_pipe ->
      let c2s_r, c2s_w = Unix.pipe ~cloexec:false () in
      let s2c_r, s2c_w = Unix.pipe ~cloexec:false () in
      ((c2s_r, s2c_w), (s2c_r, c2s_w))
      (* (server's fds), (client's fds) *)
    | Fd_socket ->
      let a, b = Unix.socketpair ~cloexec:false Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      ((a, a), (b, b))
  in
  let pairs = Array.init nclients (fun _ -> mk_pair ()) in
  (* Ready/go over pipes (no arena here): each client writes one READY
     byte and waits for one GO byte on its own control pipe. *)
  let ready_r, ready_w = Unix.pipe ~cloexec:false () in
  let go_pipes = Array.init nclients (fun _ -> Unix.pipe ~cloexec:false ()) in
  let close_both (a, b) =
    Unix.close a;
    if b <> a then Unix.close b
  in
  let server_role () =
    Unix.close ready_r;
    Unix.close ready_w;
    Array.iter (fun (_, g) -> Unix.close g) go_pipes;
    Array.iter (fun (g, _) -> Unix.close g) go_pipes;
    Array.iter (fun (_, cl) -> close_both cl) pairs;
    let buf = Bytes.create payload_bytes in
    let waiting_s = ref 0.0 in
    let remaining = ref (nclients * messages) in
    if nclients = 1 then begin
      let rd, wr = fst pairs.(0) in
      while !remaining > 0 do
        let before = Ulipc_observe.Clock.now_us () in
        read_all rd buf 0 payload_bytes;
        waiting_s :=
          !waiting_s +. ((Ulipc_observe.Clock.now_us () -. before) /. 1.0e6);
        put_payload buf (get_payload buf + 1);
        write_all wr buf 0 payload_bytes;
        decr remaining
      done
    end
    else begin
      let rds = Array.map (fun ((rd, _), _) -> rd) pairs in
      let by_fd = Hashtbl.create nclients in
      Array.iteri (fun i rd -> Hashtbl.replace by_fd rd i) rds;
      (* Select only on clients that still owe requests: a client that
         got its last reply exits and closes its write end, and a dead
         client's fd reads as perpetual EOF — keeping it in the select
         set would spin the loop and crash the read. *)
      let per_client = Array.make nclients messages in
      let live_rds () =
        List.filteri (fun i _ -> per_client.(i) > 0) (Array.to_list rds)
      in
      while !remaining > 0 do
        let before = Ulipc_observe.Clock.now_us () in
        let readable, _, _ = Unix.select (live_rds ()) [] [] (-1.0) in
        waiting_s :=
          !waiting_s +. ((Ulipc_observe.Clock.now_us () -. before) /. 1.0e6);
        List.iter
          (fun rd ->
            let i = Hashtbl.find by_fd rd in
            let _, wr = fst pairs.(i) in
            read_all rd buf 0 payload_bytes;
            put_payload buf (get_payload buf + 1);
            write_all wr buf 0 payload_bytes;
            per_client.(i) <- per_client.(i) - 1;
            decr remaining)
          readable
      done
    end;
    let counters = Ulipc.Counters.create () in
    counters.Ulipc.Counters.receives <- nclients * messages;
    counters.Ulipc.Counters.replies <- nclients * messages;
    child_report ~waiting_s:!waiting_s
      ~finish_us:(Ulipc_observe.Clock.now_us ())
      ~counters ~trace:None ()
  in
  let client_role c () =
    Unix.close ready_r;
    Array.iteri
      (fun i (g_r, g_w) ->
        Unix.close g_w;
        if i <> c then Unix.close g_r)
      go_pipes;
    Array.iteri
      (fun i (sv, cl) ->
        close_both sv;
        if i <> c then close_both cl)
      pairs;
    let rd, wr = snd pairs.(c) in
    let buf = Bytes.create payload_bytes in
    let hist = Ulipc_observe.Histogram.create "round-trip (us)" in
    write_all ready_w buf 0 1;
    Unix.close ready_w;
    let go_r = fst go_pipes.(c) in
    read_all go_r buf 0 1;
    Unix.close go_r;
    for i = 1 to messages do
      let before = Ulipc_observe.Clock.now_us () in
      put_payload buf i;
      write_all wr buf 0 payload_bytes;
      read_all rd buf 0 payload_bytes;
      let after = Ulipc_observe.Clock.now_us () in
      if get_payload buf <> i + 1 then
        failwith "Proc_driver.run_fd: echo mismatch";
      Ulipc_observe.Histogram.record hist (after -. before)
    done;
    let counters = Ulipc.Counters.create () in
    counters.Ulipc.Counters.sends <- messages;
    child_report ~hist ~finish_us:(Ulipc_observe.Clock.now_us ()) ~counters
      ~trace:None ()
  in
  let server = fork_child server_role in
  let clients = List.init nclients (fun c -> fork_child (client_role c)) in
  (* Parent: close its copies of the data-plane fds, collect READY
     bytes, stamp t0, release everyone. *)
  Array.iter
    (fun (sv, cl) ->
      close_both sv;
      close_both cl)
    pairs;
  Unix.close ready_w;
  let b = Bytes.create 1 in
  for _ = 1 to nclients do
    read_all ready_r b 0 1
  done;
  Unix.close ready_r;
  let t0_us = Ulipc_observe.Clock.now_us () in
  Array.iter
    (fun (g_r, g_w) ->
      write_all g_w b 0 1;
      Unix.close g_w;
      Unix.close g_r)
    go_pipes;
  let client_reports = List.map read_report clients in
  let server_report = read_report server in
  let t1_us =
    List.fold_left
      (fun acc r -> Float.max acc r.r_finish_us)
      t0_us client_reports
  in
  let elapsed_s = (t1_us -. t0_us) /. 1.0e6 in
  let utilization =
    if elapsed_s <= 0.0 then nan
    else
      Float.max 0.0
        (Float.min 1.0 (1.0 -. (server_report.r_waiting_s /. elapsed_s)))
  in
  let latency = Ulipc_observe.Histogram.create "round-trip (us)" in
  let counters = Ulipc.Counters.create () in
  List.iter
    (fun r ->
      Ulipc.Counters.add counters r.r_counters;
      match r.r_hist with
      | Some h -> Ulipc_observe.Histogram.merge_into ~dst:latency h
      | None -> ())
    client_reports;
  Ulipc.Counters.add counters server_report.r_counters;
  (* The kernel's blocking read IS a sleep/wake-up protocol: report the
     row under BSW so the ladder compares like with like. *)
  Metrics.of_real ~latency ~utilization ~utilization_max:utilization ~depth:1
    ~nservers:1 ~machine ~protocol:Ulipc.Protocol_kind.BSW ~nclients
    ~messages:(nclients * messages)
    ~elapsed_s ~counters ()
