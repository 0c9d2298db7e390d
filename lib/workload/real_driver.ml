(* The §2.2 echo workload on real hardware: a pool of [nservers]
   servers behind the sharded request plane and [nclients] logical
   clients issuing [messages] calls each through one Ulipc_real.Rpc
   session with int codecs.  The same protocol core the simulator runs,
   measured in CLOCK_MONOTONIC time, reported through the same Metrics
   record.

   One driver, two kinds of peer.  The peers are either OCaml 5 domains
   of this process or fork'd processes.  Every word they share (rings,
   semaphores, the control words below) lives in MAP_SHARED arena
   memory created before any peer starts, so the session, the client
   loops, the server bodies, the allocation probe, the timing, the
   telemetry and the trace analysis are one code path for both.
   Besides the row's default label, the kind of peer shows in exactly
   two places, both in [start]:
   - starting and joining a peer: a domain is spawned and joined; a
     process is fork'd, and its report comes back marshalled over a
     pipe;
   - counters (and the trace): a process counts into its own copy of
     the session's counter record and records into its own copy of the
     trace sink, so it ships both with its report and the parent adds
     them to its own; a domain's counts and events are already in the
     parent's shared record and sink, so it ships nothing.  Counter
     lines in the arena would remove this second place.
   Fork-before-domain rule: Unix.fork refuses to run in a process that
   has ever spawned a domain.  A run with fork'd peers must therefore
   come before anything in the process spawns a domain, and the driver
   itself spawns none on that path: the parent samples telemetry inline
   with [Telemetry.tick] while it waits for its peers.

   Client multiplexing: OCaml caps a process at 128 live domains, and
   the F2/F11 sweeps need 512 clients against a 4-server pool.  Logical
   clients are therefore folded onto at most [max_client_peers] client
   peers, with either kind: a peer hosting one client runs the classic
   timed send loop; a peer hosting k > 1 clients runs post-all/
   collect-all rounds — every hosted client keeps exactly one request
   outstanding, so per-client FIFO and the one-outstanding-call
   contract both hold, and the round duration is each hosted client's
   observed round-trip (its request is posted when the round opens and
   its reply is in hand when it closes).

   Control arena: a ready word, a go word and one line per client peer
   holding the count of measured messages that peer has completed.  A
   client peer checks in on READY after the probe and spins on GO, so
   spawn and fork cost stay out of the measured interval; each count
   has a single writer, a plain store after every call, which the
   parent reads for the live "messages" counter.

   Shutdown: with a pool no server can know its share of the traffic in
   advance (stealing moves work between shards), so servers are stopped
   by poison rather than by counting.  After every client peer has
   finished — every request has been replied to and the rings are
   empty — the parent posts one poison request per shard, payload
   [-1 - shard], into the shared rings, which reach fork'd servers
   exactly as they reach server domains.  A server that receives a
   poison naming its own shard exits; one naming a sibling (possible
   only if a steal moved it, which the [steal_min >= 2] floor prevents
   once rings hold a single poison each) is forwarded to its target
   with [Rpc.post ~shard].  Poisons are never replied to.  The batch
   server stops on its poison the same way, so a client that fails
   mid-run cannot leave a server counting messages that never come.

   Timing: every stamp is [Clock.now_us] (CLOCK_MONOTONIC: no NTP
   steps, and per-boot system-wide, so a child's stamps and the
   parent's share an origin).  [t0] is taken once every client peer has
   checked in, just before GO is stored; [t1] is the latest client
   finish stamp, so the interval covers exactly the messaging phase.
   Each client also times every individual call and records it into
   its own Histogram; the histograms are merged after the joins, so
   real runs report the same p50/p99/max percentiles the simulator
   does.

   Pipelining: [depth] > 1 switches each client to a sliding window of
   [depth] outstanding requests (Rpc.call_pipelined, issued in bursts of
   [depth] so every burst yields a latency sample) and the server to the
   batched receive/reply path (one span claim and at most one wake-up
   per batch).  The histogram then records mean per-message latency per
   burst — the per-message number a pipelined client actually observes.
   call_pipelined pairs replies with requests by queue position, which
   stealing may permute, so depth > 1 requires nservers = 1.

   Utilization: each server accumulates the time it spends waiting
   inside receive for calls that return a real request (the final
   poison wait is post-measurement and excluded); busy time is the
   measured interval minus that waiting, so per-server utilization is
   1 - waiting/elapsed.  The metrics row reports the pool mean and the
   busiest server — the gap between them is the imbalance stealing did
   not smooth.

   Tracing: the driver attaches its own Trace_ring, sized so one peer's
   ring holds every event of the run.  A fork'd peer's events are
   namespaced with its pid before they are marshalled (every process
   records as domain 0); the merged, sorted stream feeds
   Trace_analysis, whose wake-latency percentiles fill the row.

   Failure: a peer's report pipe turns readable when the peer finishes
   for any reason — a domain closes its write end as it exits, normally
   or by an exception; a process writes its report or dies, and either
   way its write end closes.  So a client that fails still ends the
   parent's wait; the parent then stops the servers as usual and raises
   naming the failed peer.  The parent watches the servers' pipes too:
   a server ends only on its poison, posted once every client is done,
   so one that ends earlier has died and stranded the clients it
   served.  The parent then SIGKILLs and reaps every fork'd peer still
   running and raises naming the server (client domains stay parked:
   a domain cannot be killed). *)

module Rpc = Ulipc_real.Rpc
module Word_arena = Ulipc_real.Word_arena
module Trace_ring = Ulipc_real.Trace_ring
module Clock = Ulipc_observe.Clock
module Event = Ulipc_observe.Event
module Histogram = Ulipc_observe.Histogram
module Telemetry = Ulipc_observe.Telemetry
module Analysis = Ulipc_observe.Trace_analysis

type peers = Domains | Processes

let probe_warmup = 32
let probe_ops = 512

(* 128-domain runtime cap, minus the servers, the main domain and
   headroom for whatever the process is already running. *)
let max_client_peers nservers = max 1 (min 96 (120 - nservers))

(* Events one peer's trace ring holds per call of the run (a call costs
   each peer well under 8), and the ring size beyond which a long run
   overwrites its oldest events rather than allocate more (24 MB per
   peer; the drops are reported). *)
let events_per_call = 8
let max_trace_events = 1 lsl 20

(* What a peer hands back when it finishes. *)
type report = {
  hist : Histogram.t option; (* a client's round trips *)
  waiting_us : float; (* a server's time blocked in receive *)
  finish_us : float;
  minor_words : float; (* the probing client's minor words per op *)
}

(* A report plus what a fork'd peer must ship from its private copies;
   empty for a domain. *)
type shipped = {
  report : report;
  counters : Ulipc.Counters.t;
  events : Event.t list; (* pid-namespaced *)
  dropped : int;
}

let report_now ?hist ?(waiting_us = 0.0) ?(minor_words = nan) () =
  { hist; waiting_us; finish_us = Clock.now_us (); minor_words }

(* Fork one child running [role], which ships its result over a fresh
   pipe.  The child's exceptions become a message on stderr and exit
   code 2, and the parent turns the missing report into a failure
   instead of hanging. *)
let fork_child role =
  let rd, wr = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let code =
      try
        let oc = Unix.out_channel_of_descr wr in
        Marshal.to_channel oc (role () : shipped) [];
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

(* OCaml numbers every signal it knows with a negative id of its own
   ([Sys.sigkill] is -7), all of them named here; any other signal
   keeps its POSIX number. *)
let signal_names =
  Sys.
    [
      (sigabrt, "SIGABRT"); (sigalrm, "SIGALRM"); (sigbus, "SIGBUS");
      (sigchld, "SIGCHLD"); (sigcont, "SIGCONT"); (sigfpe, "SIGFPE");
      (sighup, "SIGHUP"); (sigill, "SIGILL"); (sigint, "SIGINT");
      (sigkill, "SIGKILL"); (sigpipe, "SIGPIPE"); (sigpoll, "SIGPOLL");
      (sigprof, "SIGPROF"); (sigquit, "SIGQUIT"); (sigsegv, "SIGSEGV");
      (sigstop, "SIGSTOP"); (sigsys, "SIGSYS"); (sigterm, "SIGTERM");
      (sigtrap, "SIGTRAP"); (sigtstp, "SIGTSTP"); (sigttin, "SIGTTIN");
      (sigttou, "SIGTTOU"); (sigurg, "SIGURG"); (sigusr1, "SIGUSR1");
      (sigusr2, "SIGUSR2"); (sigvtalrm, "SIGVTALRM"); (sigxcpu, "SIGXCPU");
      (sigxfsz, "SIGXFSZ");
    ]

let signal_name s =
  match List.assoc_opt s signal_names with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" s

let status_text = function
  | Unix.WEXITED n -> Printf.sprintf "exited with %d" n
  | Unix.WSIGNALED s -> "killed by " ^ signal_name s
  | Unix.WSTOPPED s -> "stopped by " ^ signal_name s

let read_report (pid, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let shipped =
    match (Marshal.from_channel ic : shipped) with
    | r -> Some r
    | exception End_of_file -> None
  in
  close_in ic (* closes rd *);
  let _, status = Unix.waitpid [] pid in
  match (shipped, status) with
  | Some r, Unix.WEXITED 0 -> r
  | None, Unix.WEXITED 0 ->
    failwith (Printf.sprintf "child %d sent no report" pid)
  | _, status -> failwith (Printf.sprintf "child %d %s" pid (status_text status))

let kill_child (pid, rd) =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid : int * Unix.process_status);
  Unix.close rd

(* A running peer: [fd] turns readable once it has finished, normally
   or not, and [join] then collects what it shipped (re-raising its
   failure).  [kill] stops and reaps an unjoined process; a domain
   cannot be stopped. *)
type peer = {
  fd : Unix.file_descr;
  join : unit -> shipped;
  kill : unit -> unit;
}

(* The only code that depends on the kind of peer (see the header). *)
let start peers t role =
  match peers with
  | Domains ->
    let rd, wr = Unix.pipe ~cloexec:true () in
    let d =
      Domain.spawn (fun () ->
          Fun.protect ~finally:(fun () -> Unix.close wr) role)
    in
    let join () =
      Unix.close rd;
      let report = Domain.join d in
      let counters = Ulipc.Counters.create () in
      { report; counters; events = []; dropped = 0 }
    in
    { fd = rd; join; kill = ignore }
  | Processes ->
    let child =
      fork_child (fun () ->
          let report = role () in
          Rpc.harvest_sem_counters t;
          let events, dropped =
            match Rpc.trace t with
            | None -> ([], 0)
            | Some sink ->
              let pid = Unix.getpid () in
              ( List.map
                  (Event.namespace_actor ~pid)
                  (Trace_ring.events sink),
                Trace_ring.dropped sink )
          in
          { report; counters = Rpc.counters t; events; dropped })
    in
    {
      fd = snd child;
      join = (fun () -> read_report child);
      kill = (fun () -> kill_child child);
    }

(* Join [peer], keeping a failure as the message that names it. *)
let join_named what i peer =
  match peer.join () with
  | r -> Ok r
  | exception e ->
    Error
      (Printf.sprintf "%s peer %d failed: %s" what i (Printexc.to_string e))

(* Wait for every client peer to finish, sampling [tel] inline: select
   over the unfinished peers' report pipes with the sampling interval as
   the timeout, one tick per wake-up, and join each peer as soon as its
   pipe turns readable (a fork'd peer is then writing its report, which
   must be drained for it to exit).  A server's pipe turning readable
   fails the run (see the header). *)
let await_clients tel ~servers clients =
  let interval_s = Telemetry.interval_ms tel /. 1000.0 in
  let results = Array.make (Array.length clients) (Error "not joined") in
  let pending = ref (List.init (Array.length clients) Fun.id) in
  let server_fds = Array.to_list (Array.map (fun s -> s.fd) servers) in
  while !pending <> [] do
    let fds = List.map (fun i -> clients.(i).fd) !pending @ server_fds in
    let readable, _, _ =
      try Unix.select fds [] [] interval_s
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    ignore (Telemetry.tick tel : Ulipc_observe.Series.frame);
    Array.iteri
      (fun k server ->
        if List.memq server.fd readable then begin
          let msg =
            match join_named "server" k server with
            | Error msg -> msg
            | Ok _ -> Printf.sprintf "server peer %d ended before its clients" k
          in
          List.iter (fun i -> clients.(i).kill ()) !pending;
          Array.iteri (fun j s -> if j <> k then s.kill ()) servers;
          failwith ("Real_driver.run: " ^ msg)
        end)
      servers;
    let finished, rest =
      List.partition (fun i -> List.memq clients.(i).fd readable) !pending
    in
    List.iter
      (fun i -> results.(i) <- join_named "client" i clients.(i))
      finished;
    pending := rest
  done;
  results

let run ?machine ?(traced = true) ?telemetry ?(depth = 1) ?(nservers = 1)
    ?events_out ?dropped_out ?wake_residue_out ~peers ~nclients ~messages
    waiting =
  if depth <= 0 then invalid_arg "Real_driver.run: depth must be positive";
  if messages <= 0 then
    invalid_arg "Real_driver.run: messages must be positive";
  if depth > 1 && nservers > 1 then
    invalid_arg
      "Real_driver.run: depth > 1 requires nservers = 1 (stealing reorders \
       a client's in-flight requests, which breaks pipelined pairing)";
  let machine =
    match machine with
    | Some m -> m
    | None -> ( match peers with Domains -> "domains" | Processes -> "proc")
  in
  let probe_total = if depth = 1 then probe_warmup + probe_ops else 0 in
  let trace =
    if traced then
      Some
        (Trace_ring.create
           ~capacity:
             (min max_trace_events
                (events_per_call * ((nclients * messages) + probe_total)))
           ())
    else None
  in
  let t : (int, int) Rpc.t =
    (* Immediate-int codecs: each echo payload is its message's word in
       the ring cell, so the steady-state round-trip is the
       zero-allocation path the probe below certifies, and the payloads
       cross fork. *)
    Rpc.create ?trace ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
      ~nservers ~nclients waiting
  in
  let nclient_peers =
    if depth > 1 then nclients else min nclients (max_client_peers nservers)
  in
  (* Client peer [d]'s logical clients, in contiguous blocks as even as
     the division allows. *)
  let block d =
    let base = nclients / nclient_peers and rem = nclients mod nclient_peers in
    let lo = (d * base) + min d rem in
    (lo, lo + base + if d < rem then 1 else 0)
  in
  let line = Word_arena.cache_line_words in
  let ctl = Word_arena.create ~size_words:((2 + nclient_peers) * line) () in
  let ctl_words = Word_arena.words ctl in
  let ready_w = 0 and go_w = line in
  let msgs_w d = (2 + d) * line in
  (* Telemetry plane: every run is sampled into a Series ring (a
     caller-supplied registry — ulipc_top's — just brings its own
     interval and on_frame hook; use a fresh registry per run).  The
     messages counter sums the client peers' arena lines; the latency
     whist records next to each client's histogram (a fork'd client
     records into its own copy, so on processes its windows read
     empty); gauges read the shared rings and slab; the counter batch
     diffs snapshots of [row_counters] — the parent's record while the
     run lasts (live on domains, the parent's own copy on processes)
     and the row's totals once the peers have shipped theirs, so the
     closing frame carries whatever the live frames could not see. *)
  let tel =
    match telemetry with Some tel -> tel | None -> Telemetry.create ()
  in
  Telemetry.ext_counters tel (fun () ->
      let total = ref 0 in
      for d = 0 to nclient_peers - 1 do
        total := !total + Word_arena.get_word ctl_words (msgs_w d)
      done;
      [ ("messages", !total) ]);
  let lat_w = Telemetry.whist tel "latency_us" in
  for k = 0 to nservers - 1 do
    Telemetry.gauge tel
      (Printf.sprintf "ring_depth_%d" k)
      (fun () -> float_of_int (Rpc.request_depth t k))
  done;
  Telemetry.gauge tel "slab_in_use" (fun () ->
      float_of_int (Ulipc_real.Slab.in_use_count (Rpc.slab t)));
  let row_counters = ref (Rpc.counters t) in
  Telemetry.ext_counters tel (fun () ->
      Ulipc.Counters.to_fields (Ulipc.Counters.snapshot !row_counters));
  let server_role k () =
    let waiting_us = ref 0.0 in
    let live = ref true in
    let stop_on_poison v =
      let target = -1 - v in
      if target = k then live := false
      else Rpc.post ~shard:target t ~client:0 v
    in
    if depth = 1 then
      while !live do
        let before = Clock.now_us () in
        let client, v = Rpc.receive ~server:k t in
        if v >= 0 then begin
          waiting_us := !waiting_us +. (Clock.now_us () -. before);
          Rpc.reply t ~client (v + 1)
        end
        else stop_on_poison v
      done
    else
      while !live do
        let before = Clock.now_us () in
        let batch = Rpc.receive_batch ~server:k t ~max:(depth * nclients) in
        let echoes =
          List.filter_map
            (fun (client, v) ->
              if v >= 0 then Some (client, v + 1)
              else begin
                stop_on_poison v;
                None
              end)
            batch
        in
        if echoes <> [] then begin
          waiting_us := !waiting_us +. (Clock.now_us () -. before);
          Rpc.reply_batch t echoes
        end
      done;
    report_now ~waiting_us:!waiting_us ()
  in
  let mismatch () = failwith "Real_driver.run: echo mismatch" in
  (* Before the barrier releases the timed phase, the peer hosting
     client 0 runs a short warm-up (faulting in its lazily initialised
     trace state) and then [probe_ops] bare sends between two
     [Gc.minor_words] readings.  minor_words is per-domain in OCaml 5,
     so the delta is exactly the issuing client's allocation; the
     calibration pair subtracts what the readings themselves charge.
     Running pre-barrier keeps the probe traffic out of the measured
     interval — client 0's home server just serves [probe_total] extra
     messages. *)
  let probe () =
    for i = 1 to probe_warmup do
      if Rpc.send t ~client:0 i <> i + 1 then mismatch ()
    done;
    let calib =
      let a = Gc.minor_words () in
      Gc.minor_words () -. a
    in
    let w0 = Gc.minor_words () in
    for i = 1 to probe_ops do
      ignore (Rpc.send t ~client:0 i : int)
    done;
    let w1 = Gc.minor_words () in
    Float.max 0.0 ((w1 -. w0 -. calib) /. float_of_int probe_ops)
  in
  let client_role d () =
    let lo, hi = block d in
    let hist = Histogram.create "round-trip (us)" in
    let record us =
      Histogram.record hist us;
      Telemetry.record lat_w us
    in
    let publish n = Word_arena.set_word ctl_words (msgs_w d) n in
    let minor_words = if lo = 0 && probe_total > 0 then probe () else nan in
    ignore (Word_arena.at_fetch_add ctl ready_w 1 : int);
    while Word_arena.at_load ctl go_w = 0 do
      Ulipc_real.Grace.sched_yield ()
    done;
    if depth = 1 then
      if hi - lo = 1 then
        for i = 1 to messages do
          let before = Clock.now_us () in
          let ans = Rpc.send t ~client:lo i in
          let after = Clock.now_us () in
          if ans <> i + 1 then mismatch ();
          record (after -. before);
          publish i
        done
      else
        for i = 1 to messages do
          let before = Clock.now_us () in
          for c = lo to hi - 1 do
            Rpc.post t ~client:c i
          done;
          for c = lo to hi - 1 do
            if Rpc.collect t ~client:c <> i + 1 then mismatch ()
          done;
          let per_msg_us = Clock.now_us () -. before in
          for _ = lo to hi - 1 do
            record per_msg_us
          done;
          publish (i * (hi - lo))
        done
    else begin
      let sent = ref 0 in
      while !sent < messages do
        let k = min depth (messages - !sent) in
        let burst = List.init k (fun j -> !sent + j + 1) in
        let before = Clock.now_us () in
        let answers = Rpc.call_pipelined t ~client:lo ~depth burst in
        let after = Clock.now_us () in
        List.iter2 (fun req ans -> if ans <> req + 1 then mismatch ()) burst
          answers;
        let per_msg_us = (after -. before) /. float_of_int k in
        for _ = 1 to k do
          record per_msg_us
        done;
        sent := !sent + k;
        publish !sent
      done
    end;
    report_now ~hist ~minor_words ()
  in
  let servers = Array.init nservers (fun k -> start peers t (server_role k)) in
  let clients =
    Array.init nclient_peers (fun d -> start peers t (client_role d))
  in
  while Word_arena.at_load ctl ready_w < nclient_peers do
    Ulipc_real.Grace.sched_yield ()
  done;
  let t0 = Clock.now_us () in
  Word_arena.at_store ctl go_w 1;
  (* Open the measured window at t0: this frame's deltas cover only the
     pre-barrier setup. *)
  ignore (Telemetry.tick tel : Ulipc_observe.Series.frame);
  let client_results = await_clients tel ~servers clients in
  for k = 0 to nservers - 1 do
    Rpc.post ~shard:k t ~client:0 (-1 - k)
  done;
  let server_results = Array.mapi (join_named "server") servers in
  let ok results =
    Array.map
      (function Ok r -> r | Error msg -> failwith ("Real_driver.run: " ^ msg))
      results
  in
  let clients = ok client_results and servers = ok server_results in
  let t1 =
    Array.fold_left (fun acc s -> Float.max acc s.report.finish_us) t0 clients
  in
  let elapsed_us = t1 -. t0 in
  let utilization, utilization_max =
    if elapsed_us <= 0.0 then (nan, nan)
    else begin
      (* A server also waits before the barrier releases the clients, so
         its waiting total can exceed the measured interval — clamp per
         server, then take the pool mean and the busiest shard. *)
      let u s =
        Float.max 0.0
          (Float.min 1.0 (1.0 -. (s.report.waiting_us /. elapsed_us)))
      in
      let us = Array.map u servers in
      ( Array.fold_left ( +. ) 0.0 us /. float_of_int nservers,
        Array.fold_left Float.max 0.0 us )
    end
  in
  let latency = Histogram.create "round-trip (us)" in
  let minor_words_per_op = ref nan in
  Array.iter
    (fun s ->
      Option.iter (fun h -> Histogram.merge_into ~dst:latency h) s.report.hist;
      if not (Float.is_nan s.report.minor_words) then
        minor_words_per_op := s.report.minor_words)
    clients;
  let shipped = Array.append clients servers in
  Rpc.harvest_sem_counters t;
  let counters = Ulipc.Counters.snapshot (Rpc.counters t) in
  Array.iter (fun s -> Ulipc.Counters.add counters s.counters) shipped;
  counters.Ulipc.Counters.slab_hwm <-
    Ulipc_real.Slab.high_water (Rpc.slab t);
  Option.iter (fun r -> r := Rpc.wake_residue t) wake_residue_out;
  (* Close the window once the totals are in: the final frame's counter
     batch carries the sem-park/grant and slab-high-water deltas (and,
     on processes, every counter the children shipped), and summed
     per-window message deltas equal the row's messages exactly. *)
  row_counters := counters;
  ignore (Telemetry.tick tel : Ulipc_observe.Series.frame);
  let events, dropped =
    match trace with
    | None -> ([], 0)
    | Some sink ->
      ( List.sort Event.compare
          (Array.fold_left
             (fun acc s -> List.rev_append s.events acc)
             (Trace_ring.events sink) shipped),
        Array.fold_left
          (fun acc s -> acc + s.dropped)
          (Trace_ring.dropped sink) shipped )
  in
  Option.iter (fun r -> r := events) events_out;
  Option.iter (fun r -> r := dropped) dropped_out;
  let wake_latency_p50_us, wake_latency_p99_us =
    if not traced then (nan, nan)
    else
      let r = Analysis.analyse ~complete:(dropped = 0) events in
      (r.Analysis.wake_latency.Analysis.p50_us,
       r.Analysis.wake_latency.Analysis.p99_us)
  in
  Metrics.of_real ~latency ~utilization ~utilization_max ~depth ~nservers
    ~wake_latency_p50_us ~wake_latency_p99_us
    ~minor_words_per_op:!minor_words_per_op
    ~series:(Telemetry.frames tel) ~machine
    ~protocol:(Ulipc.Protocol_kind.of_waiting waiting)
    ~nclients
    ~messages:(nclients * messages)
    ~elapsed_s:(elapsed_us /. 1.0e6) ~counters ()

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

let fd_shipped report counters = { report; counters; events = []; dropped = 0 }

(* One kernel-object channel per client: a pipe pair or one socketpair.
   The server blocks in read (1 client) or select (n clients) — the
   kernel's own sleep/wake-up protocol, which is exactly why these rows
   are the baseline the shm protocols must beat: same blocking
   semantics, but every message pays two syscalls and a copy each way. *)
let run_fd ?(machine = "proc") ~transport ~nclients ~messages () =
  if messages <= 0 then
    invalid_arg "Real_driver.run_fd: messages must be positive";
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
    let waiting_us = ref 0.0 in
    let remaining = ref (nclients * messages) in
    if nclients = 1 then begin
      let rd, wr = fst pairs.(0) in
      while !remaining > 0 do
        let before = Clock.now_us () in
        read_all rd buf 0 payload_bytes;
        waiting_us := !waiting_us +. (Clock.now_us () -. before);
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
        let before = Clock.now_us () in
        let readable, _, _ = Unix.select (live_rds ()) [] [] (-1.0) in
        waiting_us := !waiting_us +. (Clock.now_us () -. before);
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
    fd_shipped (report_now ~waiting_us:!waiting_us ()) counters
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
    let hist = Histogram.create "round-trip (us)" in
    write_all ready_w buf 0 1;
    Unix.close ready_w;
    let go_r = fst go_pipes.(c) in
    read_all go_r buf 0 1;
    Unix.close go_r;
    for i = 1 to messages do
      let before = Clock.now_us () in
      put_payload buf i;
      write_all wr buf 0 payload_bytes;
      read_all rd buf 0 payload_bytes;
      let after = Clock.now_us () in
      if get_payload buf <> i + 1 then
        failwith "Real_driver.run_fd: echo mismatch";
      Histogram.record hist (after -. before)
    done;
    let counters = Ulipc.Counters.create () in
    counters.Ulipc.Counters.sends <- messages;
    fd_shipped (report_now ~hist ()) counters
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
  let t0 = Clock.now_us () in
  Array.iter
    (fun (g_r, g_w) ->
      write_all g_w b 0 1;
      Unix.close g_w;
      Unix.close g_r)
    go_pipes;
  let clients = List.map read_report clients in
  let server = read_report server in
  let t1 =
    List.fold_left (fun acc s -> Float.max acc s.report.finish_us) t0 clients
  in
  let elapsed_us = t1 -. t0 in
  let utilization =
    if elapsed_us <= 0.0 then nan
    else
      Float.max 0.0
        (Float.min 1.0 (1.0 -. (server.report.waiting_us /. elapsed_us)))
  in
  let latency = Histogram.create "round-trip (us)" in
  let counters = Ulipc.Counters.create () in
  List.iter
    (fun s ->
      Ulipc.Counters.add counters s.counters;
      Option.iter (fun h -> Histogram.merge_into ~dst:latency h) s.report.hist)
    (server :: clients);
  (* The kernel's blocking read IS a sleep/wake-up protocol: report the
     row under BSW so the ladder compares like with like. *)
  Metrics.of_real ~latency ~utilization ~utilization_max:utilization ~depth:1
    ~nservers:1 ~machine ~protocol:Ulipc.Protocol_kind.BSW ~nclients
    ~messages:(nclients * messages)
    ~elapsed_s:(elapsed_us /. 1.0e6) ~counters ()
