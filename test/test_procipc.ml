(* Tests for the cross-process substrate (lib/procipc): arena carving,
   the futex semaphore, the arena rings, and the protocols end to end
   across fork(2) — including the differential property that fork'd
   processes over the shm arena compute exactly the reply sequences the
   in-process domains backend computes, and the dead-peer guard that
   keeps a server from hanging when its client is killed mid-run.  The
   deadline-bounded liveness runs of the domains backend live here too:
   only a forked child can be killed when a lost wake-up hangs it.

   These suites live in their own binary (main_proc.ml), NOT in the
   aggregate main.ml: OCaml 5's [Unix.fork] refuses to run once any
   domain has ever been spawned in the process — joining the domain
   does not lift the ban — and the aggregate binary spawns domains in
   its earlier suites.  For the same reason the differential property
   below runs its domain-based reference leg inside a forked child, so
   this parent process stays domain-free for the next trial's fork.

   Every fork here follows the repo's child discipline: children never
   return into the test runner — they [Unix._exit] (no atexit, no
   buffered-output replay) — and parents always reap with waitpid. *)

module Parena = Ulipc_procipc.Parena
module Fsem = Ulipc_procipc.Fsem
module Pring = Ulipc_procipc.Pring
module Pslab = Ulipc_procipc.Pslab
module Proc_rpc = Ulipc_procipc.Proc_rpc
module Proc_substrate = Ulipc_procipc.Proc_substrate

(* ------------------------------------------------------------------ *)
(* Fork plumbing: run [f] in a child, marshal its result back. *)

let in_child (f : unit -> 'a) : 'a =
  let rd, wr = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    (try
       let oc = Unix.out_channel_of_descr wr in
       Marshal.to_channel oc (f ()) [];
       flush oc
     with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let v : 'a = Marshal.from_channel ic in
    close_in ic;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> v
    | _, status ->
      Alcotest.failf "child did not exit cleanly: %s"
        (match status with
        | Unix.WEXITED n -> Printf.sprintf "exit %d" n
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s))

(* ------------------------------------------------------------------ *)
(* Parena: bump-allocation invariants *)

let test_arena_shared_across_fork () =
  let a = Parena.create ~size_words:64 () in
  let off = Parena.alloc_line a ~words:1 in
  Parena.set a off 0;
  let seen =
    in_child (fun () ->
        Parena.set a off 42;
        Parena.get a off)
  in
  Alcotest.(check int) "child wrote through the mapping" 42 seen;
  Alcotest.(check int) "parent reads the child's store" 42 (Parena.get a off)

(* Random allocation programs: every block is aligned as requested,
   in bounds, disjoint from every other block, and the offsets are
   monotone (it IS a bump allocator). *)
let prop_arena_alloc_invariants =
  let req_gen =
    QCheck.Gen.(
      pair (int_range 1 64) (int_range 0 5) >>= fun (words, e) ->
      return (words, 1 lsl e))
  in
  let arb =
    QCheck.make
      QCheck.Gen.(list_size (int_range 1 24) req_gen)
      ~print:(fun reqs ->
        String.concat "; "
          (List.map (fun (w, al) -> Printf.sprintf "%dw@%d" w al) reqs))
  in
  QCheck.Test.make ~count:200 ~name:"arena allocations aligned and disjoint"
    arb
    (fun reqs ->
      let a = Parena.create ~size_words:8192 () in
      let used0 = Parena.used_words a in
      let blocks =
        List.map
          (fun (words, align) -> (Parena.alloc a ~words ~align, words, align))
          reqs
      in
      let in_bounds =
        List.for_all
          (fun (off, words, _) ->
            off >= 0 && off + words <= Parena.size_words a)
          blocks
      in
      let aligned =
        List.for_all (fun (off, _, align) -> off mod align = 0) blocks
      in
      let rec monotone_disjoint = function
        | (o1, w1, _) :: ((o2, _, _) :: _ as rest) ->
          o1 + w1 <= o2 && monotone_disjoint rest
        | [ _ ] | [] -> true
      in
      in_bounds && aligned && monotone_disjoint blocks
      && Parena.used_words a
         >= used0 + List.fold_left (fun acc (w, _) -> acc + w) 0 reqs)

let test_arena_exhaustion_raises () =
  let a = Parena.create ~size_words:32 () in
  Alcotest.check_raises "over-allocation rejected"
    (Invalid_argument "Parena.alloc: arena exhausted (0 + 4096 > 32 words)")
    (fun () -> ignore (Parena.alloc a ~words:4096 ~align:1 : int))

(* ------------------------------------------------------------------ *)
(* Fsem: the futex semaphore *)

let test_fsem_uncontended () =
  let a = Parena.create ~size_words:64 () in
  let s = Fsem.create a in
  Alcotest.(check bool) "P on empty fails" false (Fsem.try_p s);
  Fsem.v s;
  Fsem.v s;
  Alcotest.(check int) "two credits" 2 (Fsem.value s);
  Alcotest.(check bool) "P succeeds" true (Fsem.try_p s);
  Fsem.p s;
  Alcotest.(check int) "drained" 0 (Fsem.value s)

let test_fsem_cross_process_wake () =
  let a = Parena.create ~size_words:64 () in
  let s = Fsem.create a in
  let n = 50 in
  match Unix.fork () with
  | 0 ->
    for _ = 1 to n do
      Fsem.v s
    done;
    Unix._exit 0
  | pid ->
    (* The child's Vs must wake every blocking P the parent issues —
       across the process boundary, through the kernel when the grace
       period misses. *)
    for _ = 1 to n do
      Fsem.p s
    done;
    Alcotest.(check int) "all credits consumed" 0 (Fsem.value s);
    ignore (Unix.waitpid [] pid)

let test_fsem_p_timed_expires () =
  let a = Parena.create ~size_words:64 () in
  let s = Fsem.create a in
  let t0 = Ulipc_observe.Clock.now_ns () in
  let got = Fsem.p_timed s ~timeout_ns:20_000_000 in
  let elapsed = Ulipc_observe.Clock.now_ns () - t0 in
  Alcotest.(check bool) "timed out without credit" false got;
  Alcotest.(check bool)
    (Printf.sprintf "waited at least ~20ms (%dns)" elapsed)
    true
    (elapsed >= 15_000_000);
  (* And with a credit available it returns immediately. *)
  Fsem.v s;
  Alcotest.(check bool) "credit claims instantly" true
    (Fsem.p_timed s ~timeout_ns:20_000_000)

let test_fsem_p_timed_woken_by_child () =
  let a = Parena.create ~size_words:64 () in
  let s = Fsem.create a in
  match Unix.fork () with
  | 0 ->
    Unix.sleepf 0.02;
    Fsem.v s;
    Unix._exit 0
  | pid ->
    Alcotest.(check bool) "woken well before the 5s timeout" true
      (Fsem.p_timed s ~timeout_ns:5_000_000_000);
    ignore (Unix.waitpid [] pid)

(* ------------------------------------------------------------------ *)
(* Pring: the arena rings *)

let test_spsc_fifo_and_capacity () =
  let a = Parena.create ~size_words:1024 () in
  let q = Pring.Spsc.create a ~capacity:8 in
  let cap = Pring.Spsc.capacity q in
  Alcotest.(check bool) "empty" true (Pring.Spsc.is_empty q);
  let pushed = ref 0 in
  while Pring.Spsc.enqueue q (100 + !pushed) do
    incr pushed
  done;
  Alcotest.(check int) "fills to capacity" cap !pushed;
  for i = 0 to cap - 1 do
    Alcotest.(check int) "FIFO order" (100 + i) (Pring.Spsc.dequeue q)
  done;
  Alcotest.(check int) "empty again" Pring.nil (Pring.Spsc.dequeue q)

let test_mpsc_fifo_and_capacity () =
  let a = Parena.create ~size_words:1024 () in
  let q = Pring.Mpsc.create a ~capacity:8 in
  let cap = Pring.Mpsc.capacity q in
  let pushed = ref 0 in
  while Pring.Mpsc.enqueue q (200 + !pushed) do
    incr pushed
  done;
  Alcotest.(check int) "fills to capacity" cap !pushed;
  for i = 0 to cap - 1 do
    Alcotest.(check int) "FIFO order" (200 + i) (Pring.Mpsc.dequeue q)
  done;
  Alcotest.(check int) "empty again" Pring.nil (Pring.Mpsc.dequeue q);
  (* A drained ring is reusable: seq words were recycled, not burnt. *)
  Alcotest.(check bool) "reusable after drain" true (Pring.Mpsc.enqueue q 7);
  Alcotest.(check int) "value survives" 7 (Pring.Mpsc.dequeue q)

(* length/is_empty: exact when quiescent (the only writer is the
   caller), conservative under a race.  The sequential leg pins the
   exact values through a fill/drain cycle; the cross-fork leg polls
   length while a child producer runs and holds the documented
   invariant — never negative, and never "empty" while values the
   parent has not yet dequeued are known to be inside. *)
module type RING = sig
  type t

  val create : Parena.t -> capacity:int -> t
  val capacity : t -> int
  val enqueue : t -> int -> bool
  val dequeue : t -> int
  val is_empty : t -> bool
  val length : t -> int
end

let length_fill_drain ~name (module R : RING) =
  let a = Parena.create ~size_words:1024 () in
  let q = R.create a ~capacity:8 in
  let cap = R.capacity q in
  Alcotest.(check int) (name ^ " empty length") 0 (R.length q);
  Alcotest.(check bool) (name ^ " empty") true (R.is_empty q);
  for i = 1 to cap do
    Alcotest.(check bool) (name ^ " enqueue") true (R.enqueue q i);
    Alcotest.(check int) (name ^ " length tracks fill") i (R.length q);
    Alcotest.(check bool) (name ^ " non-empty") false (R.is_empty q)
  done;
  for i = cap downto 1 do
    ignore (R.dequeue q);
    Alcotest.(check int) (name ^ " length tracks drain") (i - 1) (R.length q)
  done;
  Alcotest.(check bool) (name ^ " empty after drain") true (R.is_empty q)

let test_spsc_length_exact_quiescent () =
  length_fill_drain ~name:"spsc" (module Pring.Spsc)

let test_mpsc_length_exact_quiescent () =
  length_fill_drain ~name:"mpsc" (module Pring.Mpsc)

let test_spsc_length_conservative_under_race () =
  let a = Parena.create ~size_words:1024 () in
  let q = Pring.Spsc.create a ~capacity:16 in
  let n = 2000 in
  match Unix.fork () with
  | 0 ->
    for v = 0 to n - 1 do
      while not (Pring.Spsc.enqueue q v) do
        Parena.sched_yield ()
      done
    done;
    Unix._exit 0
  | pid ->
    let ok = ref true in
    for expect = 0 to n - 1 do
      (* The consumer is this process, so between a successful dequeue
         and the next one the snapshots race only against the producer:
         length may over-report arrivals but must never go negative,
         and a non-empty verdict can only become MORE true. *)
      if Pring.Spsc.length q < 0 then ok := false;
      let rec next () =
        let v = Pring.Spsc.dequeue q in
        if v = Pring.nil then (
          Parena.sched_yield ();
          next ())
        else v
      in
      if next () <> expect then ok := false
    done;
    ignore (Unix.waitpid [] pid);
    Alcotest.(check bool) "length never negative under race, FIFO kept" true
      !ok;
    Alcotest.(check int) "drained exactly" 0 (Pring.Spsc.length q);
    Alcotest.(check bool) "empty at quiescence" true (Pring.Spsc.is_empty q)

(* One producer process, one consumer process, 5000 values in order
   through a 16-slot ring: the fenceless single-writer publishes must
   never tear or reorder across the MAP_SHARED mapping. *)
let cross_fork_transfer enqueue dequeue q =
  let n = 5000 in
  match Unix.fork () with
  | 0 ->
    for v = 0 to n - 1 do
      while not (enqueue q v) do
        Parena.sched_yield ()
      done
    done;
    Unix._exit 0
  | pid ->
    let ok = ref true in
    for expect = 0 to n - 1 do
      let rec next () =
        let v = dequeue q in
        if v = Pring.nil then (
          Parena.sched_yield ();
          next ())
        else v
      in
      if next () <> expect then ok := false
    done;
    ignore (Unix.waitpid [] pid);
    !ok

let test_spsc_cross_fork () =
  let a = Parena.create ~size_words:1024 () in
  let q = Pring.Spsc.create a ~capacity:16 in
  Alcotest.(check bool) "in-order across fork" true
    (cross_fork_transfer Pring.Spsc.enqueue Pring.Spsc.dequeue q)

let test_mpsc_cross_fork () =
  let a = Parena.create ~size_words:1024 () in
  let q = Pring.Mpsc.create a ~capacity:16 in
  Alcotest.(check bool) "in-order across fork" true
    (cross_fork_transfer Pring.Mpsc.enqueue Pring.Mpsc.dequeue q)

(* Sequential models at both capacity boundaries — [cap = ring] (1, 2,
   4, 8) and [cap < ring] (3, 5, 6, 7, 9) — so a producer's stale
   snapshot of the consumer's index is refreshed on both paths.  Each
   trial carves its ring from a fresh arena. *)
let prop_pring_model name (module R : RING) =
  QCheck.Test.make ~name ~count:200
    QCheck.(pair (int_range 1 9) (list (option (int_bound 100))))
    (fun (cap, program) ->
      let q = R.create (Parena.create ~size_words:256 ()) ~capacity:cap in
      let model = Queue.create () in
      List.for_all
        (fun op ->
          (match op with
          | Some v ->
            let accepted = R.enqueue q v in
            let model_accepts = Queue.length model < cap in
            if model_accepts then Queue.add v model;
            accepted = model_accepts
          | None -> (
            let got = R.dequeue q in
            match Queue.take_opt model with
            | Some v -> got = v
            | None -> got = Pring.nil))
          && R.length q = Queue.length model)
        program)

(* Filled to capacity and drained by one, the ring has exactly one free
   slot, which the producer process sees only by refreshing its stale
   snapshot of the consumer's index. *)
let stale_snapshot_case (module R : RING) ~capacity () =
  let q = R.create (Parena.create ~size_words:256 ()) ~capacity in
  for i = 1 to capacity do
    Alcotest.(check bool) "fill" true (R.enqueue q i)
  done;
  Alcotest.(check int) "drain one" 1 (R.dequeue q);
  Alcotest.(check bool) "the freed slot is seen" true (R.enqueue q 100);
  Alcotest.(check bool) "and then the ring is full" false (R.enqueue q 101);
  for i = 2 to capacity do
    Alcotest.(check int) "fifo" i (R.dequeue q)
  done;
  Alcotest.(check int) "last" 100 (R.dequeue q);
  Alcotest.(check int) "empty" Pring.nil (R.dequeue q)

let stale_snapshot_cases name ring =
  List.map
    (fun capacity ->
      Alcotest.test_case
        (Printf.sprintf "%s stale snapshot at capacity %d" name capacity)
        `Quick
        (stale_snapshot_case ring ~capacity))
    [ 4; 3 ]

(* Session arena sizing: every ring of a large session, request and
   reply alike, is driven through its last cell, and the rings are all
   full at once before any is drained, so a span that overlapped its
   neighbour would corrupt values.  After [create] the arena still holds
   the lines the fork driver carves (two barrier lines and one line per
   client). *)
let test_session_arena_sizing () =
  List.iter
    (fun (nclients, capacity) ->
      let sub = Proc_substrate.create ~capacity ~nclients () in
      let a = Proc_substrate.arena sub in
      let ring = Ulipc_real.Ring_layout.ceil_pow2 capacity in
      let chans =
        Proc_substrate.request sub
        :: List.init nclients (Proc_substrate.reply_channel sub)
      in
      let enq ch v =
        Alcotest.(check bool) "enqueue" true (Proc_substrate.enqueue sub ch v)
      in
      let deq ch v =
        Alcotest.(check int) "dequeue" v (Proc_substrate.dequeue sub ch)
      in
      (* Advance each ring so a full one ends on its last cell. *)
      List.iter
        (fun ch ->
          for i = 1 to ring - capacity do
            enq ch i;
            deq ch i
          done)
        chans;
      List.iteri
        (fun k ch ->
          for i = 1 to capacity do
            enq ch ((k * 1_000_000) + i)
          done)
        chans;
      List.iteri
        (fun k ch ->
          for i = 1 to capacity do
            deq ch ((k * 1_000_000) + i)
          done)
        chans;
      for _ = 1 to nclients + 2 do
        ignore (Parena.alloc_line a ~words:Parena.cache_line_words : int)
      done)
    [ (1, 1); (3, 3); (64, 1000) ]

(* ------------------------------------------------------------------ *)
(* Pslab across fork: slots allocated in the child are visible and
   releasable in the parent — index-passing ownership transfer. *)

let test_pslab_cross_fork_handoff () =
  let a = Parena.create ~size_words:4096 () in
  let slab = Pslab.create a ~slots:8 in
  let i =
    in_child (fun () ->
        let i = Pslab.try_alloc slab in
        Pslab.set_client slab i 3;
        Pslab.set_data slab i 777;
        i)
  in
  Alcotest.(check bool) "child allocated" true (i <> Pslab.nil);
  Alcotest.(check int) "payload crosses the fork" 777 (Pslab.get_data slab i);
  Alcotest.(check int) "client field crosses" 3 (Pslab.get_client slab i);
  Alcotest.(check int) "slot accounted in-use" 1 (Pslab.in_use_count slab);
  Pslab.release slab i;
  Alcotest.(check int) "parent released it" 0 (Pslab.in_use_count slab)

(* ------------------------------------------------------------------ *)
(* Proc_substrate.await across fork: a message a child enqueues ~4 us
   after the parent starts waiting is returned by [await] with the
   parent's awake flag still set, and the semaphore is never touched.
   Rounds repeat in bursts until 3 in 4 are caught, because a fresh
   child may share the parent's CPU for a while; a round [await] gave up
   on takes its message with a plain dequeue. *)

let test_await_across_fork () =
  if Ulipc_real.Grace.default = 0 then Alcotest.skip ();
  let sub =
    Proc_substrate.create ~extra_words:Parena.cache_line_words ~capacity:4
      ~nclients:1 ()
  in
  let a = Proc_substrate.arena sub in
  let go = Parena.alloc_line a ~words:1 in
  let ch = Proc_substrate.reply_channel sub 0 in
  let delay_ns = 4_000 in
  match Unix.fork () with
  | 0 ->
    (* Poster: round [r]'s message [delay_ns] after [go] reaches [r];
       a negative [go] ends it. *)
    let rec post next =
      let g = Parena.at_load a go in
      if g < 0 then ()
      else if g < next then begin
        Domain.cpu_relax ();
        post next
      end
      else begin
        let t0 = Ulipc_observe.Clock.now_ns () in
        while Ulipc_observe.Clock.now_ns () - t0 < delay_ns do
          Domain.cpu_relax ()
        done;
        ignore (Proc_substrate.enqueue sub ch next : bool);
        post (next + 1)
      end
    in
    (try post 1 with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 5.0 in
    (* -2: the child never posted (it died), which fails the round. *)
    let rec take () =
      let m = Proc_substrate.dequeue sub ch in
      if m <> Proc_substrate.no_msg then m
      else if Unix.gettimeofday () > deadline +. 5.0 then -2
      else begin
        Domain.cpu_relax ();
        take ()
      end
    in
    let rounds = 50 in
    let failure = ref None in
    let rec burst first =
      let hits = ref 0 in
      for r = first to first + rounds - 1 do
        Parena.at_store a go r;
        let m = Proc_substrate.await sub ch in
        if m = r then incr hits
        else if m <> Proc_substrate.no_msg || take () <> r then
          failure := Some (Printf.sprintf "round %d: wrong or lost message" r);
        if not (Proc_substrate.awake_read sub ch) then
          failure := Some (Printf.sprintf "round %d: await cleared the flag" r)
      done;
      if
        !failure <> None
        || !hits >= rounds * 3 / 4
        || Unix.gettimeofday () > deadline
      then !hits
      else burst (first + rounds)
    in
    let hits = burst 1 in
    Parena.at_store a go (-1);
    (match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> ()
    | _ -> Alcotest.fail "poster child did not exit cleanly");
    Option.iter Alcotest.fail !failure;
    Alcotest.(check bool)
      (Printf.sprintf "at least 3 in 4 rounds caught (%d of %d)" hits rounds)
      true
      (hits >= rounds * 3 / 4);
    Proc_substrate.harvest_sem_counters sub;
    let c = Proc_substrate.counters sub in
    Alcotest.(check int) "no parks" 0 c.Ulipc.Counters.sem_parks;
    Alcotest.(check int) "no credit" 0 (Proc_substrate.wake_residue sub)

(* ------------------------------------------------------------------ *)
(* Differential: fork'd shm processes vs in-process domains.

   The same client-dependent transform and the same seeded traces as
   test_differential.ml, so a reply delivered to the wrong channel, out
   of order, or dropped across the process boundary is caught.  The
   domains side reuses Ulipc_real.Rpc; the proc side forks one child
   per client and serves from the parent. *)

let transform ~client v = (2 * v) + client

let run_proc waiting (traces : int list array) =
  let nclients = Array.length traces in
  let t = Proc_rpc.create ~capacity:8 ~nclients waiting in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 traces in
  let children =
    Array.to_list
      (Array.mapi
         (fun c trace ->
           let rd, wr = Unix.pipe ~cloexec:false () in
           match Unix.fork () with
           | 0 ->
             Unix.close rd;
             (try
                let replies =
                  List.map (fun v -> Proc_rpc.call t ~client:c v) trace
                in
                let oc = Unix.out_channel_of_descr wr in
                Marshal.to_channel oc (replies : int list) [];
                flush oc
              with _ -> Unix._exit 1);
             Unix._exit 0
           | pid ->
             Unix.close wr;
             (pid, rd))
         traces)
  in
  for _ = 1 to total do
    Proc_rpc.serve t transform
  done;
  let replies =
    List.map
      (fun (pid, rd) ->
        let ic = Unix.in_channel_of_descr rd in
        let r : int list = Marshal.from_channel ic in
        close_in ic;
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, _ -> Alcotest.fail "proc client did not exit cleanly");
        r)
      children
  in
  Array.of_list replies

let run_domains waiting (traces : int list array) =
  let nclients = Array.length traces in
  let t : (int, int) Ulipc_real.Rpc.t =
    Ulipc_real.Rpc.create ~capacity:8
      ~transport:Ulipc_real.Real_substrate.Ring ~nclients waiting
  in
  let total = Array.fold_left (fun acc l -> acc + List.length l) 0 traces in
  let server =
    Domain.spawn (fun () ->
        for _ = 1 to total do
          let client, v = Ulipc_real.Rpc.receive t in
          Ulipc_real.Rpc.reply t ~client (transform ~client v)
        done)
  in
  let clients =
    Array.mapi
      (fun c trace ->
        Domain.spawn (fun () ->
            List.map (fun v -> Ulipc_real.Rpc.send t ~client:c v) trace))
      traces
  in
  let replies = Array.map Domain.join clients in
  Domain.join server;
  replies

let traces_arb =
  QCheck.make
    QCheck.Gen.(
      int_range 1 3 >>= fun nclients ->
      array_repeat nclients (list_size (int_bound 8) (int_bound 1000)))
    ~print:(fun traces ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun l ->
                "[" ^ String.concat "," (List.map string_of_int l) ^ "]")
              traces)))

let prop_proc_matches_domains name waiting =
  (* fork-per-trial is the dominant cost; 25 random programs per
     protocol keeps the suite under a few seconds while still varying
     client counts and interleavings. *)
  QCheck.Test.make ~count:25
    ~name:(Printf.sprintf "fork'd shm and domains agree: %s" name)
    traces_arb
    (fun traces ->
      let proc = run_proc waiting traces in
      (* The domains leg runs in a forked child: once a process spawns
         a domain it may never fork again (OCaml 5), and the next trial
         of this very property needs to. *)
      let dom = in_child (fun () -> run_domains waiting traces) in
      if proc <> dom then
        QCheck.Test.fail_reportf "reply sequences differ for %s" name;
      Array.iteri
        (fun c trace ->
          let expect = List.map (fun v -> transform ~client:c v) trace in
          if proc.(c) <> expect then
            QCheck.Test.fail_reportf "proc replies wrong for client %d" c)
        traces;
      true)

(* ------------------------------------------------------------------ *)
(* Dead peer: the server must detect a SIGKILLed client via the timed
   receive instead of parking forever in the futex. *)

let test_dead_peer_detected () =
  let t = Proc_rpc.create ~capacity:8 ~nclients:1 Proc_rpc.Block in
  match Unix.fork () with
  | 0 ->
    (* Client: call forever; the parent kills us mid-run. *)
    (try
       let i = ref 0 in
       while true do
         incr i;
         ignore (Proc_rpc.call t ~client:0 !i : int)
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    (* Serve a handful of requests so the kill lands mid-conversation,
       not before it starts. *)
    for _ = 1 to 5 do
      Proc_rpc.serve t (fun ~client:_ v -> v + 1)
    done;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    (* Drain any in-flight request the client enqueued before dying,
       then require a clean timeout — not a hang.  The 100ms budget per
       receive bounds the whole loop well under the test timeout. *)
    let t0 = Ulipc_observe.Clock.now_ns () in
    let rec drain n =
      match Proc_rpc.receive_opt t ~timeout_ns:100_000_000 with
      | Some (client, v) ->
        Proc_rpc.reply t ~client (v + 1);
        if n > 3 then Alcotest.fail "dead client keeps sending"
        else drain (n + 1)
      | None -> ()
    in
    drain 0;
    let elapsed_ms =
      (Ulipc_observe.Clock.now_ns () - t0) / 1_000_000
    in
    Alcotest.(check bool)
      (Printf.sprintf "detected dead peer promptly (%dms)" elapsed_ms)
      true (elapsed_ms < 2_000)

(* ------------------------------------------------------------------ *)
(* End to end through the fork driver: counters balance, echoes check
   out (the driver fails internally on a wrong echo), and the merged
   pid-namespaced trace passes the causal invariant checker. *)

let test_driver_counters_balance () =
  let m =
    Ulipc_workload.Proc_driver.run ~nclients:2 ~messages:100 Proc_rpc.Block
  in
  let c = m.Ulipc_workload.Metrics.counters in
  let open Ulipc.Counters in
  Alcotest.(check int) "driver reports all messages" 200
    m.Ulipc_workload.Metrics.messages;
  Alcotest.(check bool) "sends cover the workload" true (c.sends >= 200);
  Alcotest.(check int) "replies match sends" c.sends c.replies;
  Alcotest.(check bool) "throughput is finite" true
    (Float.is_finite m.Ulipc_workload.Metrics.throughput_msg_per_ms)

let test_driver_trace_invariants () =
  let events_out = ref [] and dropped_out = ref 0 in
  let _m =
    Ulipc_workload.Proc_driver.run ~nclients:2 ~messages:150 ~events_out
      ~dropped_out Proc_rpc.Block
  in
  let events = !events_out in
  Alcotest.(check bool) "trace non-empty" true (events <> []);
  (* Actors must be pid-namespaced: three processes, three actors. *)
  let actors =
    List.sort_uniq compare
      (List.map (fun e -> e.Ulipc_observe.Event.actor) events)
  in
  Alcotest.(check int) "one actor per process" 3 (List.length actors);
  let r =
    Ulipc_observe.Trace_analysis.analyse ~complete:(!dropped_out = 0) events
  in
  Alcotest.(check int) "no causal violations" 0
    (List.length r.Ulipc_observe.Trace_analysis.violations);
  Alcotest.(check bool) "blocks were observed" true
    (r.Ulipc_observe.Trace_analysis.blocks > 0)

(* Run [f] in a forked child that leads its own process group, and fail
   the test, killing the whole group, unless it exits cleanly within
   [timeout_s].  A lost wake-up leaves every process of a session parked
   in FUTEX_WAIT for good; the parent-side deadline turns that hang into
   a failure. *)
let within_deadline ~timeout_s what f =
  match Unix.fork () with
  | 0 ->
    ignore (Unix.setsid () : int);
    (try f () with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Alcotest.failf "%s: still running after %.0f s (lost wake-up)" what
          timeout_s
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> Alcotest.failf "%s: session failed" what
    in
    wait ()

(* Two producer processes into one consumer through a 4-slot Pring.Mpsc
   ([cap = ring], so every lap reuses cells through the snapshot
   refresh): no loss, no duplication, per-producer FIFO.  The whole
   transfer runs under a deadline, so a lost slot that starves the
   consumer fails instead of hanging. *)
let test_mpsc_two_producers_cross_fork () =
  within_deadline ~timeout_s:20.0 "2-producer mpsc transfer" (fun () ->
      let a = Parena.create ~size_words:1024 () in
      let q = Pring.Mpsc.create a ~capacity:4 in
      let per_producer = 5000 in
      let producer p =
        match Unix.fork () with
        | 0 ->
          for i = 1 to per_producer do
            while not (Pring.Mpsc.enqueue q ((p * 1_000_000) + i)) do
              Parena.sched_yield ()
            done
          done;
          Unix._exit 0
        | pid -> pid
      in
      let pids = [ producer 1; producer 2 ] in
      let next = [| 0; 1; 1 |] in
      for _ = 1 to 2 * per_producer do
        let rec take () =
          let v = Pring.Mpsc.dequeue q in
          if v = Pring.nil then (
            Parena.sched_yield ();
            take ())
          else v
        in
        let v = take () in
        let p = v / 1_000_000 and i = v mod 1_000_000 in
        if p < 1 || p > 2 || i <> next.(p) then
          failwith (Printf.sprintf "got %d, expected producer %d's %d" v p
                      (if p = 1 || p = 2 then next.(p) else -1));
        next.(p) <- i + 1
      done;
      List.iter (fun pid -> ignore (Unix.waitpid [] pid)) pids;
      if Pring.Mpsc.dequeue q <> Pring.nil then failwith "extra value")

(* Thousands of synchronous round trips through the blocking protocols,
   where every call parks one side or the other: each call is a chance
   for the consumer's awake-flag clear to be reordered after its queue
   check, which loses the wake-up and hangs the pair.  Once the session
   quiesces no semaphore may hold a credit: every V a consumer raced
   with its own second dequeue (or its await) must have been drained. *)
let test_blocking_echo_no_hang (name, waiting) () =
  let messages = 20_000 in
  within_deadline ~timeout_s:20.0 (name ^ " proc echo") (fun () ->
      let residue = ref (-1) in
      let m =
        Ulipc_workload.Proc_driver.run ~wake_residue_out:residue ~nclients:1
          ~messages waiting
      in
      if m.Ulipc_workload.Metrics.messages <> messages then
        failwith "message count";
      if !residue <> 0 then failwith "wake residue")

(* The pipelined path — Proc_rpc.post/collect/call_pipelined — with
   eight calls in flight per client. *)
let test_pipelined_echo_no_hang (name, waiting) () =
  let messages = 2_000 in
  within_deadline ~timeout_s:20.0 (name ^ " depth-8 proc echo") (fun () ->
      let m =
        Ulipc_workload.Proc_driver.run ~nclients:2 ~messages ~depth:8 waiting
      in
      if m.Ulipc_workload.Metrics.messages <> 2 * messages then
        failwith "message count")

(* The same deadline over the in-process domains backend.  Its awake
   flag is the low bit of the channel semaphore's word, so every
   producer test-and-set and consumer clear races a V or P on that
   word; a lost wake-up there would hang [dune runtest] in-process.
   The Real_driver session runs in the deadline's child, which is also
   what keeps this process domain-free for the next fork. *)
let test_real_echo_no_hang what ?depth ~nclients waiting () =
  let messages = 20_000 in
  within_deadline ~timeout_s:20.0 (what ^ " domains echo") (fun () ->
      let residue = ref (-1) in
      let m =
        Ulipc_workload.Real_driver.run ?depth ~wake_residue_out:residue
          ~nclients ~messages waiting
      in
      if m.Ulipc_workload.Metrics.messages <> nclients * messages then
        failwith "message count";
      if !residue <> 0 then failwith "wake residue")

(* [Limited_spin 0] skips the poll loop across processes too. *)
let test_bsls0_never_falls_through () =
  within_deadline ~timeout_s:20.0 "BSLS(0) proc echo" (fun () ->
      let m =
        Ulipc_workload.Proc_driver.run ~nclients:1 ~messages:500
          (Proc_rpc.Limited_spin 0)
      in
      let c = m.Ulipc_workload.Metrics.counters in
      if
        c.Ulipc.Counters.spin_fallthroughs <> 0
        || c.Ulipc.Counters.server_spin_fallthroughs <> 0
      then failwith "BSLS(0) charged a spin fall-through")

let test_create_rejects_negative_budgets () =
  Alcotest.check_raises "bad max_spin"
    (Invalid_argument "Proc_rpc.create: max_spin must be non-negative")
    (fun () ->
      ignore (Proc_rpc.create ~nclients:1 (Proc_rpc.Limited_spin (-1))));
  Alcotest.check_raises "bad adaptive cap"
    (Invalid_argument "Proc_rpc.create: adaptive spin cap must be non-negative")
    (fun () -> ignore (Proc_rpc.create ~nclients:1 (Proc_rpc.Adaptive (-1))))

let test_fd_baseline_echoes () =
  (* The pipe baseline the bench rows race: run it small, here, so a
     broken framing or a hung select fails in the suite and not only
     in CI's bench smoke. *)
  List.iter
    (fun transport ->
      let m =
        Ulipc_workload.Proc_driver.run_fd ~transport ~nclients:2 ~messages:50
          ()
      in
      Alcotest.(check int)
        (Ulipc_workload.Proc_driver.fd_transport_name transport ^ " messages")
        100 m.Ulipc_workload.Metrics.messages)
    Ulipc_workload.Proc_driver.[ Fd_pipe; Fd_socket ]

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "procipc.arena",
      [
        Alcotest.test_case "shared across fork" `Quick
          test_arena_shared_across_fork;
        QCheck_alcotest.to_alcotest prop_arena_alloc_invariants;
        Alcotest.test_case "exhaustion raises" `Quick
          test_arena_exhaustion_raises;
      ] );
    ( "procipc.fsem",
      [
        Alcotest.test_case "uncontended V/P" `Quick test_fsem_uncontended;
        Alcotest.test_case "cross-process wake" `Quick
          test_fsem_cross_process_wake;
        Alcotest.test_case "p_timed expires" `Quick test_fsem_p_timed_expires;
        Alcotest.test_case "p_timed woken by child" `Quick
          test_fsem_p_timed_woken_by_child;
      ] );
    ( "procipc.ring",
      [
        Alcotest.test_case "spsc fifo+capacity" `Quick
          test_spsc_fifo_and_capacity;
        Alcotest.test_case "mpsc fifo+capacity" `Quick
          test_mpsc_fifo_and_capacity;
        Alcotest.test_case "spsc length exact when quiescent" `Quick
          test_spsc_length_exact_quiescent;
        Alcotest.test_case "mpsc length exact when quiescent" `Quick
          test_mpsc_length_exact_quiescent;
        Alcotest.test_case "spsc length conservative under race" `Quick
          test_spsc_length_conservative_under_race;
        Alcotest.test_case "spsc cross-fork transfer" `Quick
          test_spsc_cross_fork;
        Alcotest.test_case "mpsc cross-fork transfer" `Quick
          test_mpsc_cross_fork;
        QCheck_alcotest.to_alcotest
          (prop_pring_model "Pring.Spsc matches a FIFO model"
             (module Pring.Spsc));
        QCheck_alcotest.to_alcotest
          (prop_pring_model "Pring.Mpsc matches a FIFO model"
             (module Pring.Mpsc));
        Alcotest.test_case "mpsc 2-producer cross-fork transfer" `Quick
          test_mpsc_two_producers_cross_fork;
        Alcotest.test_case "session arena fits every ring's last cell" `Quick
          test_session_arena_sizing;
        Alcotest.test_case "slab cross-fork handoff" `Quick
          test_pslab_cross_fork_handoff;
        Alcotest.test_case "await catches a message a few us late" `Quick
          test_await_across_fork;
      ]
      @ stale_snapshot_cases "spsc" (module Pring.Spsc)
      @ stale_snapshot_cases "mpsc" (module Pring.Mpsc) );
    ( "procipc.differential",
      [
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSW" Proc_rpc.Block);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSWY" Proc_rpc.Block_yield);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "ADAPT" (Proc_rpc.Adaptive 4096));
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSS" Proc_rpc.Spin);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSLS(3)" (Proc_rpc.Limited_spin 3));
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "HANDOFF" Proc_rpc.Handoff);
      ] );
    ( "procipc.liveness",
      [
        Alcotest.test_case "dead peer detected" `Quick test_dead_peer_detected;
        Alcotest.test_case "driver counters balance" `Quick
          test_driver_counters_balance;
        Alcotest.test_case "driver trace invariants" `Quick
          test_driver_trace_invariants;
        Alcotest.test_case "fd baselines echo" `Quick test_fd_baseline_echoes;
        Alcotest.test_case "BSW echo never hangs" `Quick
          (test_blocking_echo_no_hang ("BSW", Proc_rpc.Block));
        Alcotest.test_case "BSLS(50) echo never hangs" `Quick
          (test_blocking_echo_no_hang ("BSLS(50)", Proc_rpc.Limited_spin 50));
        Alcotest.test_case "BSW depth-8 echo never hangs" `Quick
          (test_pipelined_echo_no_hang ("BSW", Proc_rpc.Block));
        Alcotest.test_case "HANDOFF depth-8 echo never hangs" `Quick
          (test_pipelined_echo_no_hang ("HANDOFF", Proc_rpc.Handoff));
        Alcotest.test_case "BSLS(0) never falls through" `Quick
          test_bsls0_never_falls_through;
        Alcotest.test_case "create rejects negative budgets" `Quick
          test_create_rejects_negative_budgets;
      ] );
    ( "realipc.liveness",
      [
        Alcotest.test_case "BSW echo never hangs" `Quick
          (test_real_echo_no_hang "BSW" ~nclients:1 Ulipc_real.Rpc.Block);
        Alcotest.test_case "BSLS(50) echo never hangs" `Quick
          (test_real_echo_no_hang "BSLS(50)" ~nclients:1
             (Ulipc_real.Rpc.Limited_spin 50));
        Alcotest.test_case "BSW 2-client fan-in never hangs" `Quick
          (test_real_echo_no_hang "BSW fan-in" ~nclients:2
             Ulipc_real.Rpc.Block);
        Alcotest.test_case "BSW depth-8 echo never hangs" `Quick
          (test_real_echo_no_hang "BSW depth-8" ~depth:8 ~nclients:1
             Ulipc_real.Rpc.Block);
      ] );
  ]
