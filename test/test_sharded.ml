(* Tests for the sharded server fleet: the client→shard map, the
   steal-token rebalancing protocol, the pooled sessions' observational
   equivalence with a single server, and the directed Rsem wake-ups the
   fleet leans on.  Everything here runs on real domains. *)

open Ulipc_real
module Trace_ring = Ulipc_observe.Trace_ring

(* ------------------------------------------------------------------ *)
(* Shard_map *)

let test_shard_map_default () =
  let m = Shard_map.create ~nclients:7 ~nshards:3 () in
  Alcotest.(check int) "nshards" 3 (Shard_map.nshards m);
  Alcotest.(check int) "nclients" 7 (Shard_map.nclients m);
  Alcotest.(check (list int)) "round-robin affinity"
    [ 0; 1; 2; 0; 1; 2; 0 ]
    (List.init 7 (Shard_map.shard m));
  Alcotest.(check (list int)) "per-shard load" [ 3; 2; 2 ]
    (Array.to_list (Shard_map.load m))

let test_shard_map_custom () =
  let m =
    Shard_map.create ~assign:(fun _ -> 1) ~nclients:4 ~nshards:2 ()
  in
  Alcotest.(check (list int)) "all pinned" [ 1; 1; 1; 1 ]
    (List.init 4 (Shard_map.shard m));
  Alcotest.(check (list int)) "load all on shard 1" [ 0; 4 ]
    (Array.to_list (Shard_map.load m))

let test_shard_map_validation () =
  Alcotest.check_raises "no shards"
    (Invalid_argument "Shard_map.create: nshards must be positive") (fun () ->
      ignore (Shard_map.create ~nclients:1 ~nshards:0 () : Shard_map.t));
  Alcotest.check_raises "no clients"
    (Invalid_argument "Shard_map.create: nclients must be positive") (fun () ->
      ignore (Shard_map.create ~nclients:0 ~nshards:1 () : Shard_map.t));
  Alcotest.check_raises "assign out of range"
    (Invalid_argument
       "Shard_map.create: assignment maps client 2 to shard 5 (have 2 shards)")
    (fun () ->
      ignore
        (Shard_map.create
           ~assign:(fun c -> if c = 2 then 5 else 0)
           ~nclients:3 ~nshards:2 ()
          : Shard_map.t))

let await ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  while (not (pred ())) && Unix.gettimeofday () < deadline do
    Domain.cpu_relax ()
  done;
  if not (pred ()) then Alcotest.fail ("timed out waiting for " ^ what)

(* ------------------------------------------------------------------ *)
(* Pooled echo harness.

   [nservers] server domains run the driver's poison discipline: serve
   until a poison request ([-1 - shard]) naming the server's own shard
   arrives; forward a sibling's poison to its target.  Poisons are
   posted only after all client traffic has been collected, so each ring
   then holds at most its own poison (depth 1 < steal_min) and no poison
   can be stolen. *)

let spawn_server (t : (int, int) Rpc.t) ~k ~reply_of =
  Domain.spawn (fun () ->
      let live = ref true in
      while !live do
        let client, v = Rpc.receive ~server:k t in
        if v >= 0 then Rpc.reply t ~client (reply_of v)
        else begin
          let target = -1 - v in
          if target = k then live := false
          else Rpc.post ~shard:target t ~client:0 v
        end
      done)

(* The same discipline on the batch path: [receive_batch], then one
   [reply_batch] for the batch's requests.  A poison ends the server
   after its batch is answered. *)
let spawn_batch_server (t : (int, int) Rpc.t) ~k ~reply_of =
  Domain.spawn (fun () ->
      let live = ref true in
      while !live do
        let replies =
          List.filter_map
            (fun (client, v) ->
              if v >= 0 then Some (client, reply_of v)
              else begin
                let target = -1 - v in
                if target = k then live := false
                else Rpc.post ~shard:target t ~client:0 v;
                None
              end)
            (Rpc.receive_batch ~server:k t ~max:4)
        in
        Rpc.reply_batch t replies
      done)

let spawn_pool ?(batch = false) (t : (int, int) Rpc.t) ~nservers ~reply_of =
  Array.init nservers (fun k ->
      if batch then spawn_batch_server t ~k ~reply_of
      else spawn_server t ~k ~reply_of)

let poison_pool (t : (int, int) Rpc.t) ~nservers servers =
  for k = 0 to nservers - 1 do
    Rpc.post ~shard:k t ~client:0 (-1 - k)
  done;
  Array.iter Domain.join servers

(* Each client posts its requests in windows of [window], collecting the
   window's replies before the next — enough outstanding traffic to
   build shard backlog (and trigger stealing), bounded enough never to
   exceed queue capacity.  Returns each client's reply multiset, sorted.
   Stealing may reorder a client's in-flight requests, so the sorted
   list is the observable a pooled run must preserve. *)
let pooled_echo ?shard_assign ?(window = 8) ?(codec = Rpc.int_codec)
    ~nservers ~nclients ~messages ~reply_of () =
  let t : (int, int) Rpc.t =
    Rpc.create ?shard_assign ~req_codec:codec ~rep_codec:codec ~nservers
      ~nclients Rpc.Block
  in
  let servers = spawn_pool t ~nservers ~reply_of in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            let got = ref [] in
            let sent = ref 0 in
            while !sent < messages do
              let k = min window (messages - !sent) in
              for j = 1 to k do
                Rpc.post t ~client:c ((c * 1_000_000) + !sent + j)
              done;
              for _ = 1 to k do
                got := Rpc.collect t ~client:c :: !got
              done;
              sent := !sent + k
            done;
            List.sort compare !got))
  in
  let replies = List.map Domain.join clients in
  poison_pool t ~nservers servers;
  (t, replies)

let expected_replies ~nclients ~messages ~reply_of =
  List.init nclients (fun c ->
      List.sort compare
        (List.init messages (fun j -> reply_of ((c * 1_000_000) + j + 1))))

(* Differential: for every pool size, a pooled echo session delivers to
   each client exactly the multiset of replies the single-server session
   defines — no loss, no duplication, no cross-client leak.  Randomised
   over pool size, client count and per-client traffic. *)
let prop_pool_differential =
  QCheck.Test.make ~name:"N-server echo = single-server echo (per client)"
    ~count:15
    QCheck.(triple (int_range 1 4) (int_range 1 5) (int_range 1 40))
    (fun (nservers, nclients, messages) ->
      let reply_of v = (2 * v) + 1 in
      let t, replies =
        pooled_echo ~nservers ~nclients ~messages ~reply_of ()
      in
      replies = expected_replies ~nclients ~messages ~reply_of
      && Slab.in_use_count (Rpc.slab t) = 0)

(* Forced stealing: every client pinned to shard 0 of a 4-server pool.
   A thief scans its siblings once per receive (then parks until its own
   ring gets traffic — a handoff or a poison), so the test sequences the
   race deterministically: build shard 0's backlog first, start the
   idle servers second (their first scan finds the backlog and one of
   them claims the steal token), and start the victim last, so its very
   first receive finds the token with the backlog still deep and must
   hand a span over.  The handoffs must neither lose, duplicate nor
   double-deliver a message (the multiset check), nor leak a slot.  Run
   with the word codec and with the boxed one, whose slot indices ride
   the stolen spans and the stash in place of the payloads. *)
let test_forced_stealing codec () =
  let nservers = 4 and nclients = 4 and messages = 256 in
  let window = 8 in
  let reply_of v = v * 3 in
  let t : (int, int) Rpc.t =
    Rpc.create
      ~shard_assign:(fun _ -> 0)
      ~req_codec:codec ~rep_codec:codec ~nservers ~nclients Rpc.Block
  in
  (* First window for every client, posted before any server exists:
     shard 0 starts [nclients * window] deep. *)
  for c = 0 to nclients - 1 do
    for j = 1 to window do
      Rpc.post t ~client:c ((c * 1_000_000) + j)
    done
  done;
  (* Idle servers first: each finds its own ring empty, scans, and one
     of them claims the steal token on shard 0.  Wait for the claim
     before letting the victim near its backlog. *)
  let thieves =
    Array.init (nservers - 1) (fun i -> spawn_server t ~k:(i + 1) ~reply_of)
  in
  await "a steal token posted" (fun () ->
      (Rpc.counters t).Ulipc.Counters.steal_posts > 0);
  let victim = spawn_server t ~k:0 ~reply_of in
  let servers = Array.append [| victim |] thieves in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            let got = ref [] in
            (* collect the pre-posted window, then run the rest *)
            for _ = 1 to window do
              got := Rpc.collect t ~client:c :: !got
            done;
            let sent = ref window in
            while !sent < messages do
              let k = min window (messages - !sent) in
              for j = 1 to k do
                Rpc.post t ~client:c ((c * 1_000_000) + !sent + j)
              done;
              for _ = 1 to k do
                got := Rpc.collect t ~client:c :: !got
              done;
              sent := !sent + k
            done;
            List.sort compare !got))
  in
  let replies = List.map Domain.join clients in
  poison_pool t ~nservers servers;
  Alcotest.(check bool) "per-client reply multisets exact" true
    (replies = expected_replies ~nclients ~messages ~reply_of);
  let c = Rpc.counters t in
  Alcotest.(check bool)
    (Printf.sprintf "steal handoffs happened (posts=%d handoffs=%d msgs=%d)"
       c.Ulipc.Counters.steal_posts c.Ulipc.Counters.steal_handoffs
       c.Ulipc.Counters.steal_msgs)
    true
    (c.Ulipc.Counters.steal_handoffs > 0 && c.Ulipc.Counters.steal_msgs > 0);
  Alcotest.(check bool) "stolen messages bounded by traffic" true
    (c.Ulipc.Counters.steal_msgs <= nclients * messages);
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

(* Stealing into a loaded shard: shard 1 has clients of its own, and
   with capacity 4 its ring often fills between the moment its idle
   server posts a claim on shard 0 and the moment shard 0's server
   honours it, so the handoff only partly fits and the victim keeps the
   rest in its private stash (every run here stashes, tens to hundreds
   of times, pinned to one CPU or not).  Stashed messages are pairs
   that must come back out intact — through the victim's register on
   the [receive] path, through its batch span on the [receive_batch]
   path: every client's reply multiset must be exact, and a boxed
   session must return every side-table slot. *)
let test_stash_stress ~batch codec () =
  let nservers = 2 and nclients = 8 and messages = 2000 and window = 4 in
  let reply_of v = v + 5 in
  let t : (int, int) Rpc.t =
    Rpc.create ~capacity:4
      ~shard_assign:(fun c -> if c < 6 then 0 else 1)
      ~req_codec:codec ~rep_codec:codec ~nservers ~nclients Rpc.Block
  in
  let servers = spawn_pool ~batch t ~nservers ~reply_of in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            let got = ref [] in
            let sent = ref 0 in
            while !sent < messages do
              let k = min window (messages - !sent) in
              for j = 1 to k do
                Rpc.post t ~client:c ((c * 1_000_000) + !sent + j)
              done;
              for _ = 1 to k do
                got := Rpc.collect t ~client:c :: !got
              done;
              sent := !sent + k
            done;
            List.sort compare !got))
  in
  let replies = List.map Domain.join clients in
  poison_pool t ~nservers servers;
  Alcotest.(check bool) "per-client reply multisets exact" true
    (replies = expected_replies ~nclients ~messages ~reply_of);
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

(* A steal token is consumed at most once: total messages handed off can
   never exceed total requests, and with no traffic at all an idle pool
   posts tokens but never completes a handoff. *)
let test_steal_token_idle_pool () =
  let nservers = 4 in
  let t : (int, int) Rpc.t =
    Rpc.create ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec ~nservers
      ~nclients:2 Rpc.Block
  in
  let servers = spawn_pool t ~nservers ~reply_of:(fun v -> v) in
  (* No traffic: every server is parked (or about to park) on an empty
     shard.  Poison the pool and make sure shutdown alone neither steals
     nor loses anything. *)
  Unix.sleepf 0.05;
  poison_pool t ~nservers servers;
  let c = Rpc.counters t in
  Alcotest.(check int) "no handoffs without traffic" 0
    c.Ulipc.Counters.steal_handoffs;
  Alcotest.(check int) "no stolen messages" 0 c.Ulipc.Counters.steal_msgs;
  Alcotest.(check int) "no leaked slab slots" 0
    (Slab.in_use_count (Rpc.slab t))

(* An 8-server pooled run under trace: the merged event stream must pass
   every Trace_analysis invariant — queue underflow, orphan blocks, lost
   wakes and sequence gaps would each expose a sharding or stealing bug
   (a message dequeued twice, a wake posted to the wrong shard's
   semaphore, ...). *)
let test_pool_trace_invariants () =
  let nservers = 8 and nclients = 16 and messages = 40 in
  let trace = Trace_ring.create ~capacity:65536 () in
  let t : (int, int) Rpc.t =
    Rpc.create ~trace ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
      ~nservers ~nclients Rpc.Block
  in
  let servers = spawn_pool t ~nservers ~reply_of:(fun v -> v + 9) in
  let clients =
    List.init nclients (fun c ->
        Domain.spawn (fun () ->
            for i = 1 to messages do
              let v = (c * 1_000_000) + i in
              if Rpc.send t ~client:c v <> v + 9 then
                failwith "echo mismatch"
            done))
  in
  List.iter Domain.join clients;
  poison_pool t ~nservers servers;
  let report =
    Ulipc_observe.Trace_analysis.analyse
      ~complete:(Trace_ring.dropped trace = 0)
      (Trace_ring.events trace)
  in
  Alcotest.(check int)
    (Format.asprintf "zero trace violations (%a)"
       (Format.pp_print_list Ulipc_observe.Trace_analysis.pp_violation)
       report.Ulipc_observe.Trace_analysis.violations)
    0
    (List.length report.Ulipc_observe.Trace_analysis.violations);
  Alcotest.(check int) "no stale wake residue" 0 (Rpc.wake_residue t)

(* ------------------------------------------------------------------ *)
(* Pool plumbing details *)

let test_rpc_pool_validation () =
  Alcotest.check_raises "bad nservers"
    (Invalid_argument "Rpc.create: nservers must be positive") (fun () ->
      ignore (Rpc.create ~nservers:0 ~nclients:1 Rpc.Block : (int, int) Rpc.t));
  let t : (int, int) Rpc.t = Rpc.create ~nservers:2 ~nclients:3 Rpc.Block in
  Alcotest.(check int) "nservers" 2 (Rpc.nservers t);
  Alcotest.(check (list int)) "home shards" [ 0; 1; 0 ]
    (List.init 3 (Rpc.shard_of_client t));
  Alcotest.check_raises "bad server"
    (Invalid_argument "Real_substrate.request_shard: no shard 7") (fun () ->
      ignore (Rpc.receive ~server:7 t));
  Alcotest.check_raises "bad shard on post"
    (Invalid_argument "Real_substrate.request_shard: no shard 5") (fun () ->
      Rpc.post ~shard:5 t ~client:0 1)

(* The boxed codec's side table is sized from (nclients, nservers,
   capacity) by default; an explicitly undersized one must fail the
   sender with a clear error after bounded back-off, never hang. *)
let test_slab_exhaustion_error () =
  let t : (int, int) Rpc.t =
    Rpc.create ~capacity:4 ~slots:1 ~req_codec:(Rpc.boxed_codec ())
      ~rep_codec:(Rpc.boxed_codec ()) ~nclients:1 Rpc.Block
  in
  Rpc.post t ~client:0 1;
  (* slot 1 of 1 is now in flight with no server to release it *)
  match Rpc.post t ~client:0 2 with
  | () -> Alcotest.fail "undersized slab did not fail the sender"
  | exception Failure msg ->
    let prefix = "Rpc: payload slab exhausted" in
    Alcotest.(check bool)
      (Printf.sprintf "clear exhaustion error (got %S)" msg)
      true
      (String.length msg >= String.length prefix
      && String.sub msg 0 (String.length prefix) = prefix)

(* The boxed codec's payloads are what the slab holds: their run records
   a high-water mark within the slab, while the word codec's never
   allocates a slot at all. *)
let test_slab_high_water () =
  let reply_of v = v + 1 in
  let echo codec =
    let t, replies =
      pooled_echo ~codec ~nservers:2 ~nclients:3 ~messages:32 ~reply_of ()
    in
    Alcotest.(check bool) "echo correct" true
      (replies = expected_replies ~nclients:3 ~messages:32 ~reply_of);
    Rpc.slab t
  in
  let s = echo (Rpc.boxed_codec ()) in
  Alcotest.(check int) "quiescent slab empty" 0 (Slab.in_use_count s);
  Alcotest.(check bool)
    (Printf.sprintf "high-water mark recorded (%d)" (Slab.high_water s))
    true
    (Slab.high_water s > 0 && Slab.high_water s <= Slab.slots s);
  Alcotest.(check int) "an int session never touches the slab" 0
    (Slab.high_water (echo Rpc.int_codec))

(* ------------------------------------------------------------------ *)
(* Rsem directed wake-ups *)

(* [n] credits, one V each. *)
let post_credits s n =
  for _ = 1 to n do
    Rsem.v s
  done

(* Fewer credits than sleepers must release exactly that many waiters —
   a broadcast here would wake the whole herd and the surplus would
   show up as extra completions. *)
let test_rsem_directed_wake () =
  let n = 8 in
  let s = Rsem.create 0 in
  let completed = Atomic.make 0 in
  let waiters =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            Rsem.p s;
            Atomic.incr completed))
  in
  await "all waiters parked" (fun () -> Rsem.parked s = n);
  post_credits s 3;
  await "3 directed wake-ups" (fun () -> Atomic.get completed = 3);
  (* The remaining 5 must still be asleep: give a stray broadcast time
     to surface before checking. *)
  Unix.sleepf 0.05;
  Alcotest.(check int) "exactly 3 released" 3 (Atomic.get completed);
  Alcotest.(check int) "5 still parked" (n - 3) (Rsem.parked s);
  post_credits s (n - 3);
  List.iter Domain.join waiters;
  Alcotest.(check int) "all released" n (Atomic.get completed);
  Alcotest.(check int) "no waiters left" 0 (Rsem.parked s);
  Alcotest.(check int) "no credit left" 0 (Rsem.value s)

(* Wake-latency microtest, 2 → 64 parked waiters: emit the Figure 5
   event shapes around the semaphore ops (Block before P, Dequeue after
   it returns; Enqueue then Wake around each posted credit) and let
   Trace_analysis recover the V→dequeue latency distribution.  The
   assertions are lenient — zero invariant violations, every wake paired,
   and a loose absolute p99 roof — so the test gates against pathologies
   (lost wake-ups hang the join; a thundering-herd wake path shows up as
   a runaway p99), not against scheduler noise.

   Parking is serialised (waiter [i] stamps its Block only once [i]
   waiters are already committed): the analysis pairs wakes with blocks
   in timestamp order while the waiting array serves park *tickets* in
   claim order, and a park storm can commit tickets in a different
   order than the Block stamps — a mispairing the trace would report as
   a wake-without-dequeue even though the semaphore behaved.  Serial
   parking pins stamp order to ticket order so the causal pairing is
   exact. *)
let test_rsem_wake_latency n () =
  let trace = Trace_ring.create ~capacity:8192 () in
  let chan = 1 in
  let s = Rsem.create ~slots:n 0 in
  let waiters =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            await "my turn to park" (fun () -> Rsem.parked s = i);
            Trace_ring.record trace Ulipc_observe.Event.Block ~chan;
            Rsem.p s;
            Trace_ring.record trace Ulipc_observe.Event.Dequeue ~chan))
  in
  await "all waiters parked" (fun () -> Rsem.parked s = n);
  (* Half the credits one V at a time, the rest stamped first and then
     posted as one run of Vs. *)
  let half = n / 2 in
  for _ = 1 to half do
    Trace_ring.record trace Ulipc_observe.Event.Enqueue ~chan;
    Trace_ring.record trace Ulipc_observe.Event.Wake ~chan;
    Rsem.v s
  done;
  for _ = 1 to n - half do
    Trace_ring.record trace Ulipc_observe.Event.Enqueue ~chan;
    Trace_ring.record trace Ulipc_observe.Event.Wake ~chan
  done;
  post_credits s (n - half);
  List.iter Domain.join waiters;
  let report =
    Ulipc_observe.Trace_analysis.analyse
      ~complete:(Trace_ring.dropped trace = 0)
      (Trace_ring.events trace)
  in
  let open Ulipc_observe.Trace_analysis in
  Alcotest.(check int)
    (Format.asprintf "zero violations (%a)"
       (Format.pp_print_list pp_violation)
       report.violations)
    0
    (List.length report.violations);
  Alcotest.(check int) "every wake paired with a dequeue" n
    report.wake_latency.n;
  Alcotest.(check bool)
    (Printf.sprintf "wake-latency p99 bounded (%.1f us)"
       report.wake_latency.p99_us)
    true
    (Float.is_finite report.wake_latency.p99_us
    && report.wake_latency.p99_us < 2_000_000.0)

(* The 512-waiter extension of the sweep above.  512 parked entities
   exceed what real domains can provide, so this point runs on
   systhreads through the Sem_bench harness — same causal pipeline
   (serialised parking, one directed credit per wake, full violation
   checking), scaled past the domain cap. *)
let test_sem_bench_512 () =
  let r =
    Ulipc_workload.Sem_bench.wake_latency ~target_samples:512 ~waiters:512 ()
  in
  Alcotest.(check int) "zero violations" 0
    r.Ulipc_workload.Sem_bench.violations;
  Alcotest.(check int) "one sample per waiter" 512
    (Array.length r.Ulipc_workload.Sem_bench.samples);
  Alcotest.(check int) "every waiter got a private slot" 0
    r.Ulipc_workload.Sem_bench.broadcasts;
  Alcotest.(check bool)
    (Printf.sprintf "wake-latency p99 bounded (%.1f us)"
       r.Ulipc_workload.Sem_bench.p99_us)
    true
    (Float.is_finite r.Ulipc_workload.Sem_bench.p99_us
    && r.Ulipc_workload.Sem_bench.p99_us < 2_000_000.0)

(* Waiting-array observability: the cumulative dispensers and per-slot
   counters that harvest_sem_counters folds into the session totals. *)
let test_rsem_observability () =
  let n = 3 in
  let s = Rsem.create ~slots:4 0 in
  Alcotest.(check int) "array rounded to a power of two" 4 (Rsem.array_size s);
  let waiters =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            await "my turn to park" (fun () -> Rsem.parked s = i);
            Rsem.p s))
  in
  await "all waiters parked" (fun () -> Rsem.parked s = n);
  Alcotest.(check int) "parks counts committed tickets" n (Rsem.parks s);
  Alcotest.(check int) "no grants yet" 0 (Rsem.grants s);
  post_credits s n;
  List.iter Domain.join waiters;
  Alcotest.(check int) "all grants dispensed" n (Rsem.grants s);
  Alcotest.(check int) "nobody left parked" 0 (Rsem.parked s);
  Alcotest.(check int) "per-slot waits sum to parks" n
    (Array.fold_left ( + ) 0 (Rsem.slot_waits s));
  Alcotest.(check int) "private slots, no shared-slot broadcasts" 0
    (Rsem.shared_slot_broadcasts s)

(* Generation sharing: an array smaller than the population must still
   release everyone (waiters of different generations share a slot; a
   grant that finds several sleepers broadcasts and each rechecks its
   own generation's credit). *)
let test_rsem_shared_slot () =
  let n = 3 in
  let s = Rsem.create ~slots:1 0 in
  Alcotest.(check int) "single-slot array" 1 (Rsem.array_size s);
  let completed = Atomic.make 0 in
  let waiters =
    List.init n (fun i ->
        Domain.spawn (fun () ->
            await "my turn to park" (fun () -> Rsem.parked s = i);
            Rsem.p s;
            Atomic.incr completed))
  in
  await "all waiters parked" (fun () -> Rsem.parked s = n);
  (* Release one at a time: each grant lands in the shared slot and must
     free exactly the oldest generation. *)
  for k = 1 to n do
    Rsem.v s;
    await "oldest generation released" (fun () -> Atomic.get completed = k)
  done;
  List.iter Domain.join waiters;
  Alcotest.(check int) "all released through one slot" n (Atomic.get completed);
  Alcotest.(check int) "waits all on slot 0" n (Rsem.slot_waits s).(0);
  Alcotest.(check int) "no credit left" 0 (Rsem.value s)

(* Fairness / starvation-freedom property: under paced bursts of Vs, the
   FIFO ticket dispenser must spread wakes evenly — no waiter's tally
   may exceed 3x the median, and every posted credit must release
   exactly one park (a lost wake-up times out the pacing await; a
   thundering herd inflates the tally sum). *)
(* Credits posted through round [r]: bursts cycle 1 .. n. *)
let total_of_rounds n rounds =
  let t = ref 0 in
  for r = 1 to rounds do
    t := !t + 1 + (r mod n)
  done;
  !t

let prop_rsem_fairness =
  QCheck.Test.make ~name:"waiting array is fair under V bursts"
    ~count:15
    QCheck.(pair (int_range 2 4) (int_range 8 30))
    (fun (n, rounds) ->
      let s = Rsem.create ~slots:n 0 in
      let counts = Array.init n (fun _ -> Atomic.make 0) in
      let stop = Atomic.make false in
      let waiters =
        List.init n (fun i ->
            Domain.spawn (fun () ->
                let rec loop () =
                  Rsem.p s;
                  if not (Atomic.get stop) then begin
                    Atomic.incr counts.(i);
                    loop ()
                  end
                in
                loop ()))
      in
      let tally () =
        Array.fold_left (fun acc c -> acc + Atomic.get c) 0 counts
      in
      for round = 1 to rounds do
        await "all waiters parked" (fun () -> Rsem.parked s = n);
        let burst = 1 + (round mod n) in
        post_credits s burst;
        (* Pacing: every credit of the burst consumed and its takers
           re-parked before the next burst — this is where a lost
           wake-up would hang (and fail the await). *)
        await "burst fully consumed" (fun () ->
            tally () = total_of_rounds n round && Rsem.parked s = n)
      done;
      let total = tally () in
      Atomic.set stop true;
      post_credits s n;
      List.iter Domain.join waiters;
      let sorted = Array.map Atomic.get counts in
      Array.sort compare sorted;
      let median = sorted.(n / 2) in
      total = total_of_rounds n rounds
      && Array.for_all (fun c -> Atomic.get c <= max 3 (3 * median)) counts)

let suites =
  [
    ( "realipc.shard_map",
      [
        Alcotest.test_case "round-robin default" `Quick test_shard_map_default;
        Alcotest.test_case "custom assignment" `Quick test_shard_map_custom;
        Alcotest.test_case "validation" `Quick test_shard_map_validation;
      ] );
    ( "realipc.fleet",
      [
        QCheck_alcotest.to_alcotest prop_pool_differential;
        Alcotest.test_case "forced stealing: no loss/dup" `Quick
          (test_forced_stealing Rpc.int_codec);
        Alcotest.test_case "idle pool: tokens never deliver" `Quick
          test_steal_token_idle_pool;
        Alcotest.test_case "8-server trace invariants" `Quick
          test_pool_trace_invariants;
        Alcotest.test_case "pool validation" `Quick test_rpc_pool_validation;
        Alcotest.test_case "undersized slab fails clearly" `Quick
          test_slab_exhaustion_error;
        Alcotest.test_case "slab high-water mark" `Quick test_slab_high_water;
        Alcotest.test_case "forced stealing, boxed codec: no loss/dup" `Quick
          (test_forced_stealing (Rpc.boxed_codec ()));
        Alcotest.test_case "stealing into a loaded shard: stashed leftovers"
          `Quick
          (test_stash_stress ~batch:false Rpc.int_codec);
        Alcotest.test_case
          "stealing into a loaded shard: stashed leftovers, boxed batches"
          `Quick
          (test_stash_stress ~batch:true (Rpc.boxed_codec ()));
      ] );
    ( "realipc.rsem_directed",
      [
        Alcotest.test_case "n Vs wake exactly n" `Quick
          test_rsem_directed_wake;
        Alcotest.test_case "wake latency, 2 waiters" `Quick
          (test_rsem_wake_latency 2);
        Alcotest.test_case "wake latency, 8 waiters" `Quick
          (test_rsem_wake_latency 8);
        Alcotest.test_case "wake latency, 64 waiters" `Quick
          (test_rsem_wake_latency 64);
        Alcotest.test_case "wake latency, 512 waiters (systhreads)" `Quick
          test_sem_bench_512;
        Alcotest.test_case "observability counters" `Quick
          test_rsem_observability;
        Alcotest.test_case "generation-shared slot" `Quick
          test_rsem_shared_slot;
        QCheck_alcotest.to_alcotest prop_rsem_fairness;
      ] );
  ]
