(* Tests for the real backend with fork'd peers: arena carving, the
   rings, the slab, the semaphore and the RPC cases (Ring_cases,
   Sem_cases, Rpc_cases) across fork(2), and the protocols end to end —
   including the differential property that fork'd processes over a
   session's shm arena compute exactly the reply sequences the
   in-process domains backend computes, and the dead-peer guard that
   keeps a server from hanging when its client is killed mid-run.

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
module Spsc = Ulipc_real.Spsc_ring
module Mpsc = Ulipc_real.Mpsc_ring
module Pslab = Ulipc_procipc.Pslab
module Proc_rpc = Ulipc_procipc.Proc_rpc
module Rpc = Ulipc_real.Rpc
module Real_substrate = Ulipc_real.Real_substrate
module Slab = Ulipc_real.Slab

(* A session fork'd peers can share: int codecs both ways. *)
let int_session ?capacity ~nclients waiting : (int, int) Rpc.t =
  Rpc.create ?capacity ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
    ~nclients waiting

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

(* The word atomics skip the lock in a one-domain process that has not
   forked since it mapped the arena (word_stubs.c), and this binary
   never spawns a domain: only the arena's fork stamp puts the lock back
   between processes.  A parent and a child that add to the same words
   at once, by fetch-and-add and by a CAS loop, must lose no update. *)
let test_arena_atomics_across_fork () =
  let n = 1_000_000 in
  let a = Parena.create ~size_words:32 () in
  let w = Parena.words a in
  let faa = Parena.alloc_line a ~words:1 in
  let cas = Parena.alloc_line a ~words:1 in
  let rec cas_incr () =
    let v = Parena.get a cas in
    if not (Parena.cas w cas v (v + 1)) then cas_incr ()
  in
  let work () =
    for _ = 1 to n do
      ignore (Parena.fetch_add w faa 1 : int);
      cas_incr ()
    done
  in
  let pid =
    match Unix.fork () with
    | 0 ->
      (try work () with _ -> Unix._exit 1);
      Unix._exit 0
    | pid -> pid
  in
  work ();
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "child did not exit cleanly");
  Alcotest.(check int) "fetch-and-add total" (2 * n) (Parena.get a faa);
  Alcotest.(check int) "CAS total" (2 * n) (Parena.get a cas)

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
    (Invalid_argument "Word_arena.alloc: arena exhausted (0 + 4096 > 32 words)")
    (fun () -> ignore (Parena.alloc a ~words:4096 ~align:1 : int))

(* A region no address space can hold: the mapping fails, and the
   failure is a [Failure] naming the arena and the size, not a bare
   [Unix_error] from inside the mapping. *)
let test_arena_mapping_failure () =
  let size_words = 1 lsl 47 in
  match Parena.create ~size_words () with
  | _ -> Alcotest.fail "a 2^50-byte arena was mapped"
  | exception Failure msg ->
    let prefix =
      Printf.sprintf "Word_arena.create: cannot map %d words" size_words
    in
    Alcotest.(check string) "clear failure" prefix
      (String.sub msg 0 (min (String.length msg) (String.length prefix)))

(* ------------------------------------------------------------------ *)
(* The flat rings carved from an arena, across fork *)

let test_spsc_fifo_and_capacity () =
  let a = Parena.create ~size_words:1024 () in
  let q = Spsc.carve a ~capacity:8 in
  let cap = Spsc.capacity q in
  Alcotest.(check bool) "empty" true (Spsc.is_empty q);
  let pushed = ref 0 in
  while Spsc.enqueue q (100 + !pushed) do
    incr pushed
  done;
  Alcotest.(check int) "fills to capacity" cap !pushed;
  for i = 0 to cap - 1 do
    Alcotest.(check int) "FIFO order" (100 + i) (Spsc.dequeue q)
  done;
  Alcotest.(check int) "empty again" Spsc.nil (Spsc.dequeue q)

let test_mpsc_fifo_and_capacity () =
  let a = Parena.create ~size_words:1024 () in
  let q = Mpsc.carve a ~capacity:8 in
  let cap = Mpsc.capacity q in
  let pushed = ref 0 in
  while Mpsc.enqueue q (200 + !pushed) do
    incr pushed
  done;
  Alcotest.(check int) "fills to capacity" cap !pushed;
  for i = 0 to cap - 1 do
    Alcotest.(check int) "FIFO order" (200 + i) (Mpsc.dequeue q)
  done;
  Alcotest.(check int) "empty again" Mpsc.nil (Mpsc.dequeue q);
  (* A drained ring is reusable: seq words were recycled, not burnt. *)
  Alcotest.(check bool) "reusable after drain" true (Mpsc.enqueue q 7);
  Alcotest.(check int) "value survives" 7 (Mpsc.dequeue q)

(* length/is_empty: exact when quiescent (the only writer is the
   caller), conservative under a race.  The sequential leg pins the
   exact values through a fill/drain cycle; the cross-fork leg polls
   length while a child producer runs and holds the documented
   invariant — never negative, and never "empty" while values the
   parent has not yet dequeued are known to be inside. *)
module type RING = sig
  type t

  val carve : Parena.t -> capacity:int -> t
  val capacity : t -> int
  val enqueue : t -> int -> bool
  val dequeue : t -> int
  val is_empty : t -> bool
  val length : t -> int
end

let length_fill_drain ~name (module R : RING) =
  let a = Parena.create ~size_words:1024 () in
  let q = R.carve a ~capacity:8 in
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
  length_fill_drain ~name:"spsc" (module Spsc)

let test_mpsc_length_exact_quiescent () =
  length_fill_drain ~name:"mpsc" (module Mpsc)

let test_spsc_length_conservative_under_race () =
  let a = Parena.create ~size_words:1024 () in
  let q = Spsc.carve a ~capacity:16 in
  let n = 2000 in
  match Unix.fork () with
  | 0 ->
    for v = 0 to n - 1 do
      while not (Spsc.enqueue q v) do
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
      if Spsc.length q < 0 then ok := false;
      let rec next () =
        let v = Spsc.dequeue q in
        if v = Spsc.nil then (
          Parena.sched_yield ();
          next ())
        else v
      in
      if next () <> expect then ok := false
    done;
    ignore (Unix.waitpid [] pid);
    Alcotest.(check bool) "length never negative under race, FIFO kept" true
      !ok;
    Alcotest.(check int) "drained exactly" 0 (Spsc.length q);
    Alcotest.(check bool) "empty at quiescence" true (Spsc.is_empty q)

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
        if v = Spsc.nil then (
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
  let q = Spsc.carve a ~capacity:16 in
  Alcotest.(check bool) "in-order across fork" true
    (cross_fork_transfer Spsc.enqueue Spsc.dequeue q)

let test_mpsc_cross_fork () =
  let a = Parena.create ~size_words:1024 () in
  let q = Mpsc.carve a ~capacity:16 in
  Alcotest.(check bool) "in-order across fork" true
    (cross_fork_transfer Mpsc.enqueue Mpsc.dequeue q)

(* Ring_cases across fork: every producer-side operation runs in a
   fresh child, so each model step and each stale snapshot is taken by a
   producer process that has never run before — producer state the ring
   kept in the OCaml heap instead of the arena (its index, its snapshot
   of the consumer's) would be lost between steps — and the
   torn-message cases run their producers as processes. *)
let fork_program op = QCheck.list_of_size QCheck.Gen.(0 -- 40) op

(* Fresh children start on the parent's CPU and take a while to
   migrate, so on a multiprocessor the cross-fork torn cases send more
   messages per producer than the in-process ones for the same chance of
   a reuse landing inside the consumer's copy: a consumer publishing its
   index before its word loads failed 3 of 10 runs at 200k, and every
   run at 1M.  On one CPU, where every hop of a tiny ring is a context
   switch, the in-process counts keep the cases inside their deadline. *)
let fork_torn_messages =
  if Domain.recommended_domain_count () > 1 then Some 1_000_000 else None

let in_processes ~nproducers produce =
  let pids =
    List.init nproducers (fun p ->
        match Unix.fork () with
        | 0 ->
          (try produce ~client:(p + 1) ~stopped:(fun () -> false)
           with _ -> Unix._exit 1);
          Unix._exit 0
        | pid -> pid)
  in
  fun () ->
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      pids

(* Session arena sizing: every ring of a large session, request lanes
   and reply rings alike, is driven through its last cell, and the rings
   are all full at once before any is drained, so a span that overlapped
   its neighbour would corrupt values.  Shards with one home client, with
   several, and with none (one ring carved alone, which a client on
   another shard reaches) are sized side by side.  Each producer's
   messages must come back from its consumer in order.  Then every slot
   of the session's slab is allocated, so the slab's words fit after the
   rings'. *)
let test_session_arena_sizing () =
  List.iter
    (fun (nservers, nclients, capacity, shard_assign) ->
      let sub =
        Real_substrate.create ~nservers ?shard_assign ~capacity ~nclients ()
      in
      let ring = Ulipc_real.Ring_layout.ceil_pow2 capacity in
      let shard = Real_substrate.request_shard sub in
      let load = Ulipc_real.Shard_map.load (Real_substrate.shard_map sub) in
      (* (producer, consumer) of every ring *)
      let rings =
        List.init nclients (fun c ->
            ( Real_substrate.request_lane sub c,
              shard (Real_substrate.shard_of_client sub c) ))
        @ List.filter_map
            (fun k -> if load.(k) = 0 then Some (shard k, shard k) else None)
            (List.init nservers Fun.id)
        @ List.init nclients (fun c ->
              let ch = Real_substrate.reply_channel sub c in
              (ch, ch))
      in
      let consumers =
        List.init nservers shard
        @ List.init nclients (Real_substrate.reply_channel sub)
      in
      let enq ch v =
        Alcotest.(check bool) "enqueue" true
          (Real_substrate.enqueue_pair sub ch ~client:0 ~word:v)
      in
      let deq ch =
        let m = Real_substrate.dequeue sub ch in
        if m = Real_substrate.no_msg then None
        else Some (Real_substrate.register_word sub m)
      in
      (* Advance each ring so a full one ends on its last cell. *)
      List.iter
        (fun (p, c) ->
          for i = 1 to ring - capacity do
            enq p i;
            Alcotest.(check (option int)) "dequeue" (Some i) (deq c)
          done)
        rings;
      List.iteri
        (fun k (p, _) ->
          for i = 1 to capacity do
            enq p ((k * 1_000_000) + i)
          done)
        rings;
      let rec drain ch acc =
        match deq ch with None -> List.rev acc | Some v -> drain ch (v :: acc)
      in
      let got = List.concat_map (fun ch -> drain ch []) consumers in
      Alcotest.(check int) "every message" (List.length rings * capacity)
        (List.length got);
      List.iteri
        (fun k _ ->
          Alcotest.(check (list int)) "a ring's messages, in order"
            (List.init capacity (fun i -> (k * 1_000_000) + i + 1))
            (List.filter (fun v -> v / 1_000_000 = k) got))
        rings;
      let slab = Real_substrate.slab sub in
      for _ = 1 to Slab.slots slab do
        Alcotest.(check bool) "slot" true (Slab.try_alloc slab <> Slab.nil)
      done)
    [
      (1, 1, 1, None);
      (1, 3, 3, None);
      (1, 64, 1000, None);
      (3, 5, 7, None);
      (2, 2, 13, None);
      (3, 3, 13, Some (fun c -> c mod 2));
      (1, 2, 5, None);
    ]

(* ------------------------------------------------------------------ *)
(* The slab across fork: a slot allocated in the child is in use in the
   parent, which may release it once and only once — its free list and
   in-use marks are shared words. *)

let test_slab_cross_fork_handoff () =
  let slab = Slab.create ~slots:8 () in
  let i = in_child (fun () -> Slab.try_alloc slab) in
  Alcotest.(check bool) "child allocated" true (i <> Slab.nil);
  Alcotest.(check int) "slot accounted in-use" 1 (Slab.in_use_count slab);
  Alcotest.(check int) "high-water mark" 1 (Slab.high_water slab);
  Slab.release slab i;
  Alcotest.(check int) "parent released it" 0 (Slab.in_use_count slab);
  Alcotest.check_raises "a second release"
    (Invalid_argument "Slab.release: slot is not allocated") (fun () ->
      Slab.release slab i);
  let again = in_child (fun () -> Slab.try_alloc slab) in
  Alcotest.(check int) "the child pops the slot the parent pushed" i again

(* A release outside [0, slots) is rejected before it writes a link or
   touches the free list: the slab still hands out exactly its slots. *)
let test_slab_release_rejects_bad_index () =
  let a = Parena.create ~size_words:4096 () in
  let slab = Pslab.create a ~slots:4 in
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "release %d" i)
        (Invalid_argument "Slab.release: index out of range")
        (fun () -> Pslab.release slab i))
    [ -1; 4; 1000 ];
  let got = List.init 5 (fun _ -> Pslab.try_alloc slab) in
  Alcotest.(check (list int)) "free list intact" [ 0; 1; 2; 3; Pslab.nil ] got;
  Alcotest.(check int) "in use" 4 (Pslab.in_use_count slab)

(* A boxed payload is a pointer into one process's heap: once a session
   has outlived a fork, a boxed encode or decode raises in the child and
   in the parent alike, and the int codec keeps working. *)
let test_boxed_codec_refuses_fork () =
  let boxed : (string, string) Rpc.t = Rpc.create ~nclients:1 Rpc.Block in
  let refused () =
    match Rpc.post boxed ~client:0 "ping" with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "refused in the child" true (in_child refused);
  Alcotest.(check bool) "refused in the parent" true (refused ());
  let ints = int_session ~nclients:1 Rpc.Block in
  Rpc.post ints ~client:0 41;
  Alcotest.(check (pair int int)) "int codec unaffected" (0, 41)
    (Rpc.receive ints)

(* ------------------------------------------------------------------ *)
(* Real_substrate.await across fork: a message a child enqueues ~4 us
   after the parent starts waiting is returned by [await] with the
   parent's awake flag still set, and the semaphore is never touched.
   Rounds repeat in bursts until 3 in 4 are caught, because a fresh
   child may share the parent's CPU for a while; a round [await] gave up
   on takes its message with a plain dequeue. *)

let test_await_across_fork () =
  if Ulipc_real.Grace.default = 0 then Alcotest.skip ();
  let sub = Real_substrate.create ~capacity:4 ~nclients:1 () in
  let a = Parena.create ~size_words:Parena.cache_line_words () in
  let go = 0 in
  let ch = Real_substrate.reply_channel sub 0 in
  let word m =
    if m = Real_substrate.no_msg then m else Real_substrate.register_word sub m
  in
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
        ignore (Real_substrate.enqueue_pair sub ch ~client:0 ~word:next : bool);
        post (next + 1)
      end
    in
    (try post 1 with _ -> Unix._exit 1);
    Unix._exit 0
  | pid ->
    let deadline = Unix.gettimeofday () +. 5.0 in
    (* -2: the child never posted (it died), which fails the round. *)
    let rec take () =
      let m = word (Real_substrate.dequeue sub ch) in
      if m <> Real_substrate.no_msg then m
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
        let m = word (Real_substrate.await sub ch) in
        if m = r then incr hits
        else if m <> Real_substrate.no_msg || take () <> r then
          failure := Some (Printf.sprintf "round %d: wrong or lost message" r);
        if not (Real_substrate.awake_read sub ch) then
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
    Real_substrate.harvest_sem_counters sub;
    let c = Real_substrate.counters sub in
    Alcotest.(check int) "no parks" 0 c.Ulipc.Counters.sem_parks;
    Alcotest.(check int) "no credit" 0 (Real_substrate.wake_residue sub)

(* ------------------------------------------------------------------ *)
(* Differential: fork'd shm processes vs in-process domains.

   The same client-dependent transform and the same seeded traces as
   test_differential.ml, so a reply delivered to the wrong channel, out
   of order, or dropped across the process boundary is caught.  Both
   sides are Ulipc_real.Rpc sessions: the proc side forks one child per
   client and serves from the parent. *)

let transform ~client v = (2 * v) + client

let run_proc waiting (traces : int list array) =
  let nclients = Array.length traces in
  let t = int_session ~capacity:8 ~nclients waiting in
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
                  List.map (fun v -> Rpc.call t ~client:c v) trace
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
    Rpc.serve t transform
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
    Ulipc_real.Rpc.create ~capacity:8 ~nclients waiting
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
  let t = int_session ~capacity:8 ~nclients:1 Rpc.Block in
  match Unix.fork () with
  | 0 ->
    (* Client: call forever; the parent kills us mid-run. *)
    (try
       let i = ref 0 in
       while true do
         incr i;
         ignore (Rpc.call t ~client:0 !i : int)
       done
     with _ -> ());
    Unix._exit 0
  | pid ->
    (* Serve a handful of requests so the kill lands mid-conversation,
       not before it starts. *)
    for _ = 1 to 5 do
      Rpc.serve t (fun ~client:_ v -> v + 1)
    done;
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    (* Drain any in-flight request the client enqueued before dying,
       then require a clean timeout — not a hang.  The 100ms budget per
       receive bounds the whole loop well under the test timeout. *)
    let t0 = Ulipc_observe.Clock.now_ns () in
    let rec drain n =
      match Rpc.receive_opt t ~timeout_ns:100_000_000 with
      | Some (client, v) ->
        Rpc.reply t ~client (v + 1);
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

(* Run [f] in a forked child that leads its own process group, and fail
   the test, killing the whole group, unless it exits cleanly within
   [timeout_s].  A lost wake-up leaves every process of a session parked
   in FUTEX_WAIT for good; the parent-side deadline turns that hang into
   a failure.  An exception [f] raises is printed to stderr first, and
   the group is killed then too: a failed case may leave peers parked
   on replies that never come. *)
let within_deadline ~timeout_s what f =
  match Unix.fork () with
  | 0 ->
    ignore (Unix.setsid () : int);
    (try f ()
     with e ->
       prerr_endline (Printexc.to_string e);
       Unix._exit 1);
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
      | _, _ ->
        (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
        Alcotest.failf "%s: session failed" what
    in
    wait ()

(* ------------------------------------------------------------------ *)
(* The semaphore across fork: Sem_cases with fork'd peers, and the
   harvest of a fork'd session's shared park and grant totals. *)

(* A fork'd peer running [f]; the returned join fails the case unless
   the peer exited cleanly. *)
let in_peer f =
  match Unix.fork () with
  | 0 ->
    (try f () with _ -> Unix._exit 1);
    Unix._exit 0
  | pid -> (
    fun () ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "peer process failed")

(* A channel pair whose consumers are two processes: the server Ps on
   the request channel and Vs the reply channel, and the client the
   other way round, 2 ms late each time, so the server parks on every
   P.  The park and grant totals are shared arena words, and the
   benchmark adds the client's and the server's harvested counters, so
   the two harvests must split the totals, not both report them.  The
   totals themselves are what a process that has consumed both channels
   harvests: the client marks the request channel too with a P that
   takes its own V's credit, which parks nothing and grants nothing. *)
let test_harvest_splits_shared_totals () =
  let calls = 40 in
  let out = Parena.create ~size_words:64 () in
  within_deadline ~timeout_s:20.0 "channel pair with an idle server"
    (fun () ->
      let sub = Real_substrate.create ~capacity:4 ~nclients:1 () in
      let req = Real_substrate.request sub
      and rep = Real_substrate.reply_channel sub 0 in
      let harvested () =
        Real_substrate.harvest_sem_counters sub;
        let c = Real_substrate.counters sub in
        (c.Ulipc.Counters.sem_parks, c.Ulipc.Counters.sem_grants)
      in
      let server =
        in_peer (fun () ->
            for _ = 1 to calls do
              Real_substrate.sem_p sub req;
              Real_substrate.sem_v sub rep
            done;
            let parks, grants = harvested () in
            Parena.at_store out 0 parks;
            Parena.at_store out 8 grants)
      in
      for _ = 1 to calls do
        Unix.sleepf 0.002;
        Real_substrate.sem_v sub req;
        Real_substrate.sem_p sub rep
      done;
      server ();
      let parks, grants = harvested () in
      Parena.at_store out 16 parks;
      Parena.at_store out 24 grants;
      Real_substrate.sem_v sub req;
      Real_substrate.sem_p sub req;
      let parks, grants = harvested () in
      Parena.at_store out 32 parks;
      Parena.at_store out 40 grants);
  let w i = Parena.at_load out (8 * i) in
  Alcotest.(check bool)
    (Printf.sprintf "the idle server parked (%d parks)" (w 0))
    true
    (w 0 > 0);
  Alcotest.(check int) "server + client parks = shared total" (w 4)
    (w 0 + w 2);
  Alcotest.(check int) "server + client grants = shared total" (w 5)
    (w 1 + w 3)

(* Two producer processes into one consumer through a 4-slot Pring.Mpsc
   ([cap = ring], so every lap reuses cells through the snapshot
   refresh): no loss, no duplication, per-producer FIFO.  The whole
   transfer runs under a deadline, so a lost slot that starves the
   consumer fails instead of hanging. *)
let test_mpsc_two_producers_cross_fork () =
  within_deadline ~timeout_s:20.0 "2-producer mpsc transfer" (fun () ->
      let a = Parena.create ~size_words:1024 () in
      let q = Mpsc.carve a ~capacity:4 in
      let per_producer = 5000 in
      let producer p =
        match Unix.fork () with
        | 0 ->
          for i = 1 to per_producer do
            while not (Mpsc.enqueue q ((p * 1_000_000) + i)) do
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
          let v = Mpsc.dequeue q in
          if v = Spsc.nil then (
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
      if Mpsc.dequeue q <> Spsc.nil then failwith "extra value")

(* End to end through the echo driver with fork'd peers: a pool of two
   server processes behind four client processes.  The driver checks
   every echo, stops the servers with poison posted from the parent
   across the fork, and fails unless every child exits cleanly. *)
let test_driver_server_pool () =
  within_deadline ~timeout_s:30.0 "2-server pool, 4 clients" (fun () ->
      let nclients = 4 and messages = 200 in
      let m =
        Ulipc_workload.Real_driver.run ~peers:Processes ~nservers:2 ~nclients
          ~messages Rpc.Block
      in
      let c = m.Ulipc_workload.Metrics.counters in
      if m.Ulipc_workload.Metrics.messages <> nclients * messages then
        failwith "driver lost messages";
      if c.Ulipc.Counters.replies <> c.Ulipc.Counters.sends then
        failwith
          (Printf.sprintf "%d replies for %d sends" c.Ulipc.Counters.replies
             c.Ulipc.Counters.sends);
      if not (Float.is_finite m.Ulipc_workload.Metrics.utilization_max) then
        failwith "no utilization_max")

(* A fork'd child that SIGKILLs itself: the status waitpid returns is
   named SIGKILL, as the driver reports a peer that died that way. *)
let test_killed_child_named () =
  match Unix.fork () with
  | 0 ->
    Unix.kill (Unix.getpid ()) Sys.sigkill;
    Unix._exit 0
  | pid ->
    let _, status = Unix.waitpid [] pid in
    Alcotest.(check string) "status" "killed by SIGKILL"
      (Ulipc_workload.Real_driver.status_text status)

(* The oldest live child of [parent], from /proc: the smallest
   (start time, pid). *)
let oldest_child parent =
  let stat pid =
    match
      In_channel.with_open_text
        (Printf.sprintf "/proc/%d/stat" pid)
        In_channel.input_all
    with
    | exception Sys_error _ -> None
    | line -> (
      (* Fields after the parenthesised command name: state, ppid, and
         the start time 18 fields on. *)
      let after = String.rindex line ')' + 2 in
      match
        String.split_on_char ' '
          (String.sub line after (String.length line - after))
      with
      | _ :: ppid :: rest when int_of_string ppid = parent ->
        Some (int_of_string (List.nth rest 17), pid)
      | _ -> None)
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun d -> Option.bind (int_of_string_opt d) stat)
  |> List.sort compare
  |> function
  | (_, pid) :: _ -> Some pid
  | [] -> None

(* [run ()], a driver run whose server is killed, must fail naming
   server peer 0, and leave no peer of the process unreaped once
   [reap_first] has run. *)
let fails_naming_server ?(reap_first = ignore) run =
  let want = "server peer 0 failed" in
  let named msg =
    let n = String.length want in
    let rec at i =
      i + n <= String.length msg && (String.sub msg i n = want || at (i + 1))
    in
    at 0
  in
  match run () with
  | _ -> failwith "the run outlived its server"
  | exception Failure msg when named msg -> (
    prerr_endline msg;
    reap_first ();
    match Unix.waitpid [ Unix.WNOHANG ] (-1) with
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    | _ -> failwith "a peer was left unreaped")

(* A fork'd server that dies mid-run fails the run, naming the server,
   instead of leaving the parent waiting on clients parked for replies
   that never come; the stranded client is killed and reaped.  The
   driver forks its server first, so the server is the oldest child of
   the process running the driver; the telemetry hook, which the driver
   calls while it waits, SIGKILLs it a few frames into the run. *)
let test_dead_server_named () =
  within_deadline ~timeout_s:20.0 "a run whose server dies" (fun () ->
      let me = Unix.getpid () and frames = ref 0 in
      let on_frame _ =
        incr frames;
        if !frames = 3 then
          match oldest_child me with
          | Some pid -> Unix.kill pid Sys.sigkill
          | None -> failwith "no child to kill"
      in
      let telemetry = Ulipc_observe.Telemetry.create ~on_frame () in
      fails_naming_server (fun () ->
          Ulipc_workload.Real_driver.run ~peers:Processes ~traced:false
            ~telemetry ~nclients:1 ~messages:100_000_000 Rpc.Block))

(* The children of [pid] in the order it forked them, from its task's
   /proc children list. *)
let children pid =
  match
    In_channel.with_open_text
      (Printf.sprintf "/proc/%d/task/%d/children" pid pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> []
  | line -> List.filter_map int_of_string_opt (String.split_on_char ' ' line)

(* A fork'd server that dies before the clients have checked in at the
   start barrier — client 0's allocation probe makes real calls before
   it does — fails the run, naming the server, instead of leaving the
   parent waiting at the barrier for good.  A watcher process, forked
   before the run, SIGKILLs the driver's first child (the server) as
   soon as it appears. *)
let test_early_dead_server_named () =
  within_deadline ~timeout_s:20.0 "a run whose server dies before the barrier"
    (fun () ->
      let me = Unix.getpid () in
      match Unix.fork () with
      | 0 ->
        let self = Unix.getpid () in
        let rec watch () =
          match List.filter (( <> ) self) (children me) with
          | pid :: _ ->
            Unix.kill pid Sys.sigkill;
            Unix._exit 0
          | [] -> watch ()
        in
        watch ()
      | watcher ->
        fails_naming_server
          ~reap_first:(fun () ->
            ignore (Unix.waitpid [] watcher : int * Unix.process_status))
          (fun () ->
            Ulipc_workload.Real_driver.run ~peers:Processes ~traced:false
              ~nclients:1 ~messages:1000 Rpc.Block))

let test_create_rejects_negative_budgets () =
  Alcotest.check_raises "bad max_spin"
    (Invalid_argument "Rpc.create: max_spin must be non-negative")
    (fun () -> ignore (Proc_rpc.create ~nclients:1 (Rpc.Limited_spin (-1))));
  Alcotest.check_raises "bad adaptive cap"
    (Invalid_argument "Rpc.create: adaptive spin cap must be non-negative")
    (fun () -> ignore (Proc_rpc.create ~nclients:1 (Rpc.Adaptive (-1))))

let test_fd_baseline_echoes () =
  (* The pipe baseline the bench rows race: run it small, here, so a
     broken framing or a hung select fails in the suite and not only
     in CI's bench smoke. *)
  List.iter
    (fun transport ->
      let m =
        Ulipc_workload.Real_driver.run_fd ~transport ~nclients:2 ~messages:50
          ()
      in
      Alcotest.(check int)
        (Ulipc_workload.Real_driver.fd_transport_name transport ^ " messages")
        100 m.Ulipc_workload.Metrics.messages)
    Ulipc_workload.Real_driver.[ Fd_pipe; Fd_socket ]

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "procipc.arena",
      [
        Alcotest.test_case "shared across fork" `Quick
          test_arena_shared_across_fork;
        Alcotest.test_case "atomics stay atomic across fork" `Quick
          test_arena_atomics_across_fork;
        QCheck_alcotest.to_alcotest prop_arena_alloc_invariants;
        Alcotest.test_case "exhaustion raises" `Quick
          test_arena_exhaustion_raises;
        Alcotest.test_case "a mapping that fails raises Failure" `Quick
          test_arena_mapping_failure;
      ] );
    ( "procipc.rsem",
      Sem_cases.cases ~model_count:100 ~run:in_child
        ~program:QCheck.Gen.(list_size (int_bound 12))
        ~spawn:in_peer ~within:within_deadline ()
      @ [
          Alcotest.test_case "harvests split the shared totals" `Quick
            test_harvest_splits_shared_totals;
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
          (Ring_cases.prop_spsc_model ~count:100 ~producer:in_child
             ~program:fork_program
             ~name:"Spsc_ring matches a FIFO model across fork"
             (fun ~capacity -> Spsc.create ~capacity ()));
        QCheck_alcotest.to_alcotest
          (Ring_cases.prop_mpsc_model ~count:100 ~producer:in_child
             ~program:fork_program
             ~name:"Mpsc_ring matches a FIFO model across fork"
             (fun ~capacity -> Mpsc.create ~capacity ()));
        Alcotest.test_case "mpsc 2-producer cross-fork transfer" `Quick
          test_mpsc_two_producers_cross_fork;
        Alcotest.test_case "session arena fits every ring's last cell" `Quick
          test_session_arena_sizing;
        Alcotest.test_case "slab cross-fork handoff" `Quick
          test_slab_cross_fork_handoff;
        Alcotest.test_case "slab release rejects a bad index" `Quick
          test_slab_release_rejects_bad_index;
        Alcotest.test_case "await catches a message a few us late" `Quick
          test_await_across_fork;
      ]
      @ Ring_cases.stale_snapshot_cases ~producer:in_child "spsc"
          (fun ~capacity -> Spsc.create ~capacity ())
          Spsc.enqueue Spsc.dequeue Spsc.nil
      @ Ring_cases.stale_snapshot_cases ~producer:in_child "mpsc"
          (fun ~capacity -> Mpsc.create ~capacity ())
          Mpsc.enqueue Mpsc.dequeue Mpsc.nil
      @ Ring_cases.torn_cases ?per_producer:fork_torn_messages
          ~start:in_processes "spsc 1p/1c across fork" Ring_cases.spsc_torn
      @ Ring_cases.torn_cases ?per_producer:fork_torn_messages
          ~start:in_processes "mpsc 2p/1c across fork" Ring_cases.mpsc_torn
      @ [
          QCheck_alcotest.to_alcotest
            (Ring_cases.prop_paired_model ~count:100 ~producer:in_child
               ~program:fork_program ~spsc:true
               ~name:"paired mpsc+spsc lanes match FIFO models across fork"
               ());
          QCheck_alcotest.to_alcotest
            (Ring_cases.prop_paired_model ~count:100 ~producer:in_child
               ~program:fork_program ~spsc:false
               ~name:"paired mpsc+mpsc lanes match FIFO models across fork"
               ());
        ]
      @ Ring_cases.paired_torn_cases ?per_producer:fork_torn_messages
          ~start:in_processes "paired mpsc 2p + spsc 1p across fork" );
    ( "procipc.differential",
      [
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSW" Rpc.Block);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSWY" Rpc.Block_yield);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "ADAPT" (Rpc.Adaptive 4096));
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSS" Rpc.Spin);
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "BSLS(3)" (Rpc.Limited_spin 3));
        QCheck_alcotest.to_alcotest
          (prop_proc_matches_domains "HANDOFF" Rpc.Handoff);
      ] );
    ( "procipc.rpc",
      Rpc_cases.cases ~spawn:in_peer ~within:within_deadline ()
      @ [
          Alcotest.test_case "a boxed codec refuses to cross fork" `Quick
            test_boxed_codec_refuses_fork;
        ] );
    ( "procipc.liveness",
      [
        Alcotest.test_case "dead peer detected" `Quick test_dead_peer_detected;
        Alcotest.test_case "driver counters balance" `Quick
          (Driver_cases.counters_balance ~peers:Processes);
        Alcotest.test_case "driver trace invariants" `Quick
          (Driver_cases.trace_invariants ~peers:Processes);
        Alcotest.test_case "fd baselines echo" `Quick test_fd_baseline_echoes;
        Alcotest.test_case "BSLS(0) never falls through" `Quick
          (Driver_cases.bsls0_never_falls_through ~peers:Processes
             ~within:within_deadline);
        Alcotest.test_case "depth 8 on 2 servers keeps order" `Quick
          (Driver_cases.pooled_pipelining ~peers:Processes
             ~within:within_deadline);
        Alcotest.test_case "create rejects negative budgets" `Quick
          test_create_rejects_negative_budgets;
        Alcotest.test_case "driver server pool across fork" `Quick
          test_driver_server_pool;
        Alcotest.test_case "a SIGKILLed child is named SIGKILL" `Quick
          test_killed_child_named;
        Alcotest.test_case "a dead server fails the run, named" `Quick
          test_dead_server_named;
        Alcotest.test_case "a server that dies before the barrier fails the \
                            run, named"
          `Quick test_early_dead_server_named;
      ] );
  ]
