(* The layer ladder: each rung times one layer's public operations from
   outside, as the median of [batches] batches (after one discarded
   warm-up batch), and the kernel floors time the raw mechanisms any
   semaphore change is bounded by.  Runs in a process of its own, the
   fork'd rungs first: OCaml 5 forbids fork once a domain exists. *)

module Clock = Ulipc_observe.Clock
module Stats = Ulipc_e2e.Stats
module Parena = Ulipc_procipc.Parena
module Fsem = Ulipc_procipc.Fsem

let batches = 5

let median_of f = Stats.median (Array.init batches (fun _ -> f ()))

(* Mean cost of one iteration of [body], in ns. *)
let ns_per_op n body =
  body n;
  median_of (fun () ->
      let t0 = Clock.now_ns () in
      body n;
      float_of_int (Clock.now_ns () - t0) /. float_of_int n)

(* Round-trip samples of [ping], in ns: [batches] timed batches of [n]
   after a warm-up batch.  [peer] must answer [(batches + 1) * n]
   pings. *)
let sample_round_trips n ping =
  let batch () =
    Array.init n (fun _ ->
        let t0 = Clock.now_ns () in
        ping ();
        float_of_int (Clock.now_ns () - t0))
  in
  ignore (batch () : float array);
  Array.init batches (fun _ -> batch ())

(* Per-handoff mean and p99 in µs: a round trip is two handoffs. *)
let handoff_us samples =
  let per b f = Stats.median (Array.map f b) in
  let mean s = Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s) in
  let p99 s =
    let s = Array.copy s in
    Array.sort Float.compare s;
    Stats.percentile_sorted s 99.0
  in
  (per samples mean /. 2e3, per samples p99 /. 2e3)

let fork_peer ~total peer =
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        peer total;
        0
      with _ -> 2
    in
    Unix._exit code
  | pid -> pid

let reap pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> failwith "ladder peer process failed"

let cross_process n ~peer ~ping =
  let pid = fork_peer ~total:((batches + 1) * n) peer in
  let s = sample_round_trips n ping in
  reap pid;
  s

(* Turn-taking on one arena word: the parent hands the turn over by
   storing 1, the peer hands it back by storing 0; [wait] blocks until
   the word leaves the value given. *)
let turn_taking a w n ~wait ~signal =
  cross_process n
    ~peer:(fun total ->
      for _ = 1 to total do
        wait 0;
        Parena.at_store a w 0;
        signal ()
      done)
    ~ping:(fun () ->
      Parena.at_store a w 1;
      signal ();
      wait 1)

let run ~quick =
  let ops = if quick then 100_000 else 1_000_000 in
  let rts = if quick then 2_000 else 20_000 in
  let metric = Rep.metric in
  let a = Parena.create ~size_words:4096 () in
  (* Cross-process rungs. *)
  let fa = Fsem.create a and fb = Fsem.create a in
  let fsem =
    cross_process rts
      ~peer:(fun total ->
        for _ = 1 to total do
          Fsem.p fa;
          Fsem.v fb
        done)
      ~ping:(fun () ->
        Fsem.v fa;
        Fsem.p fb)
  in
  let w = Parena.alloc_line a ~words:Parena.cache_line_words in
  let futex =
    turn_taking a w rts
      ~wait:(fun v ->
        while Parena.at_load a w = v do
          ignore (Parena.futex_wait a w ~expected:v ~timeout_ns:(-1) : Parena.wait_result)
        done)
      ~signal:(fun () -> ignore (Parena.futex_wake a w ~count:1 : int))
  in
  let yield =
    turn_taking a w rts
      ~wait:(fun v ->
        while Parena.at_load a w = v do
          Parena.sched_yield ()
        done)
      ~signal:ignore
  in
  (* In-process rungs; the Rsem handoff spawns a domain, so it goes
     after every fork. *)
  let ra = Ulipc_real.Rsem.create 0 and rb = Ulipc_real.Rsem.create 0 in
  let rsem =
    let peer =
      Domain.spawn (fun () ->
          for _ = 1 to (batches + 1) * rts do
            Ulipc_real.Rsem.p ra;
            Ulipc_real.Rsem.v rb
          done)
    in
    let s =
      sample_round_trips rts (fun () ->
          Ulipc_real.Rsem.v ra;
          Ulipc_real.Rsem.p rb)
    in
    Domain.join peer;
    s
  in
  let pair name body = metric name (ns_per_op ops body) in
  let spsc = Ulipc_real.Spsc_ring.create ~capacity:64 () in
  pair "ladder.spsc_pair_ns" (fun n ->
      for i = 1 to n do
        ignore (Ulipc_real.Spsc_ring.enqueue spsc i : bool);
        ignore (Ulipc_real.Spsc_ring.dequeue spsc : int)
      done);
  let mpsc = Ulipc_real.Mpsc_ring.create ~capacity:64 () in
  pair "ladder.mpsc_pair_ns" (fun n ->
      for i = 1 to n do
        ignore (Ulipc_real.Mpsc_ring.enqueue mpsc i : bool);
        ignore (Ulipc_real.Mpsc_ring.dequeue mpsc : int)
      done);
  let pspsc = Ulipc_procipc.Pring.Spsc.create a ~capacity:64 in
  pair "ladder.pring_spsc_pair_ns" (fun n ->
      for i = 1 to n do
        ignore (Ulipc_procipc.Pring.Spsc.enqueue pspsc i : bool);
        ignore (Ulipc_procipc.Pring.Spsc.dequeue pspsc : int)
      done);
  let pmpsc = Ulipc_procipc.Pring.Mpsc.create a ~capacity:64 in
  pair "ladder.pring_mpsc_pair_ns" (fun n ->
      for i = 1 to n do
        ignore (Ulipc_procipc.Pring.Mpsc.enqueue pmpsc i : bool);
        ignore (Ulipc_procipc.Pring.Mpsc.dequeue pmpsc : int)
      done);
  let slab = Ulipc_real.Slab.create ~slots:64 () in
  pair "ladder.slab_pair_ns" (fun n ->
      for _ = 1 to n do
        Ulipc_real.Slab.release slab (Ulipc_real.Slab.try_alloc slab)
      done);
  let pslab = Ulipc_procipc.Pslab.create a ~slots:64 in
  pair "ladder.pslab_pair_ns" (fun n ->
      for _ = 1 to n do
        Ulipc_procipc.Pslab.release pslab (Ulipc_procipc.Pslab.try_alloc pslab)
      done);
  let rsem_vp = Ulipc_real.Rsem.create 0 in
  pair "ladder.rsem_vp_ns" (fun n ->
      for _ = 1 to n do
        Ulipc_real.Rsem.v rsem_vp;
        Ulipc_real.Rsem.p rsem_vp
      done);
  let fsem_vp = Fsem.create a in
  pair "ladder.fsem_vp_ns" (fun n ->
      for _ = 1 to n do
        Fsem.v fsem_vp;
        Fsem.p fsem_vp
      done);
  let tr = Ulipc_real.Trace_ring.create ~capacity:4096 () in
  pair "ladder.trace_record_ns" (fun n ->
      for _ = 1 to n do
        Ulipc_real.Trace_ring.record tr Ulipc_observe.Event.Enqueue ~chan:0
      done);
  let rsem_mean, rsem_p99 = handoff_us rsem in
  metric "ladder.rsem_handoff_us" rsem_mean;
  metric "ladder.rsem_handoff_p99_us" rsem_p99;
  let fsem_mean, fsem_p99 = handoff_us fsem in
  metric "ladder.fsem_handoff_us" fsem_mean;
  metric "ladder.fsem_handoff_p99_us" fsem_p99;
  metric "floor.futex_handoff_us" (fst (handoff_us futex));
  metric "floor.yield_handoff_us" (fst (handoff_us yield));
  Rep.emit "done"

(* The kernel's own IPC: an 8-byte round trip over two pipes between two
   processes, in µs.  It runs in a process of its own after every
   measured repetition, so that each repetition's times can be given in
   round trips of the kernel path on the same host at the same moment:
   a shared host's speed can drift by tens of percent over minutes, and
   the drift cancels in the ratio. *)
let pipe_floor ~quick =
  let rts = if quick then 500 else 4_000 in
  let p2c_r, p2c_w = Unix.pipe () and c2p_r, c2p_w = Unix.pipe () in
  let buf = Bytes.create 8 in
  let xfer f fd = if f fd buf 0 8 <> 8 then failwith "short pipe transfer" in
  let s =
    cross_process rts
      ~peer:(fun total ->
        for _ = 1 to total do
          xfer Unix.read p2c_r;
          xfer Unix.write c2p_w
        done)
      ~ping:(fun () ->
        xfer Unix.write p2c_w;
        xfer Unix.read c2p_r)
  in
  List.iter Unix.close [ p2c_r; p2c_w; c2p_r; c2p_w ];
  (* A round trip is reported whole. *)
  Rep.metric "floor.pipe_rt_us" (2.0 *. fst (handoff_us s));
  Rep.emit "done"
