(* The RPC cases that run both in one process and across fork: echo
   sessions under the blocking protocols (synchronous, fan-in and
   pipelined), pooled batch servers that must keep every shard's order,
   and the timed receive.  An {!Rpc} session keeps every word its peers
   share in its session arena, so the same cases hold whether the peers
   are domains or fork'd processes.  Each case takes its peers as
   parameters, as {!Sem_cases} does:

   - [~spawn f] starts a peer running [f] and returns the function that
     waits for it (and fails the case if [f] failed);
   - [~within ~timeout_s what f] runs [f] (the whole case) and fails
     the case, instead of hanging, unless [f] completes within
     [timeout_s]: a lost wake-up parks a session for good.

   Every session is created before its peers start and uses int codecs
   in both directions, the only ones that cross fork.  A peer checks
   what it receives and fails on a wrong one, so a peer reports nothing
   back but its failure.  This module is linked into both test
   binaries, so it spawns neither domains nor processes itself. *)

open Ulipc_real

let session ?capacity ?nservers ?shard_assign ~nclients waiting :
    (int, int) Rpc.t =
  Rpc.create ?capacity ?nservers ?shard_assign ~req_codec:Rpc.int_codec
    ~rep_codec:Rpc.int_codec ~nclients waiting

let join_all joins = List.iter (fun join -> join ()) joins

(* Thousands of round trips through one server, where every call may
   park one side or the other: each call is a chance for the consumer's
   awake-flag clear to be reordered after its queue check, which loses
   the wake-up and hangs the pair.  Clients call one at a time
   ([depth = 1]) or pipeline chunks of 64 requests [depth] deep.  Once
   the session quiesces no semaphore may hold a credit: every V a
   consumer raced with its own second dequeue (or its await) must have
   been drained. *)
let echo ?(depth = 1) ~nclients ~messages waiting ~spawn () =
  let t = session ~nclients waiting in
  let reply_of ~client v = (2 * v) + client in
  let server =
    spawn (fun () ->
        for _ = 1 to nclients * messages do
          Rpc.serve t reply_of
        done)
  in
  let client c () =
    if depth = 1 then
      for i = 1 to messages do
        if Rpc.send t ~client:c i <> reply_of ~client:c i then
          failwith "wrong reply"
      done
    else begin
      let sent = ref 0 in
      while !sent < messages do
        let reqs = List.init (min 64 (messages - !sent)) (fun j -> !sent + j) in
        if
          Rpc.call_pipelined t ~client:c ~depth reqs
          <> List.map (reply_of ~client:c) reqs
        then failwith "wrong replies";
        sent := !sent + List.length reqs
      done
    end
  in
  join_all (List.init nclients (fun c -> spawn (client c)));
  server ();
  Alcotest.(check int) "no wake residue" 0 (Rpc.wake_residue t)

(* A pool of [nservers] servers answering with [receive_batch]/
   [reply_batch] until a poison, any negative request, arrives: poisons
   go only to the shard they stop. *)
let pool t ~nservers ~reply_of ~spawn =
  List.init nservers (fun k ->
      spawn (fun () ->
          let live = ref true in
          while !live do
            Rpc.reply_batch t
              (List.filter_map
                 (fun (client, v) ->
                   if v >= 0 then Some (client, reply_of v)
                   else begin
                     live := false;
                     None
                   end)
                 (Rpc.receive_batch ~server:k t ~max:4))
          done))

(* Poisons go out once every client has collected its last reply. *)
let poison t ~nservers servers =
  for k = 0 to nservers - 1 do
    Rpc.post ~shard:k t ~client:0 (-1 - k)
  done;
  join_all servers

(* Client [c] posts [messages] requests in windows of [window] and
   collects each window before the next; each window's replies must
   come back in post order. *)
let windowed_client t ~messages ~window ~reply_of c () =
  let sent = ref 0 in
  while !sent < messages do
    let k = min window (messages - !sent) in
    let reqs = List.init k (fun j -> (c * 1_000_000) + !sent + j) in
    List.iter (fun v -> Rpc.post t ~client:c v) reqs;
    let got = List.init k (fun _ -> Rpc.collect t ~client:c) in
    if got <> List.map reply_of reqs then
      failwith (Printf.sprintf "client %d: wrong replies" c);
    sent := !sent + k
  done

(* The pooled batch path: 2 servers answering with [receive_batch]/
   [reply_batch], 6 clients posting in windows of 4.  Capacity 4, with
   4 clients homed on shard 0 and 2 on shard 1, so shard 0's ring is
   often full and its clients wait for room while both servers reply
   concurrently, each only to its own shard's clients.  A reply lost,
   garbled or reordered on that path fails a client's check or hangs
   it. *)
let pooled_batch ~spawn () =
  let nservers = 2 and nclients = 6 and messages = 2000 and window = 4 in
  let t =
    session ~capacity:4
      ~shard_assign:(fun c -> if c < 4 then 0 else 1)
      ~nservers ~nclients Rpc.Block
  in
  let servers = pool t ~nservers ~reply_of:(fun v -> v + 3) ~spawn in
  join_all
    (List.init nclients (fun c ->
         spawn
           (windowed_client t ~messages ~window ~reply_of:(fun v -> v + 3) c)));
  poison t ~nservers servers

(* A pool of 2 servers with every client pinned to shard 0: server 1
   has no traffic of its own and must receive nothing but its poison,
   while server 0, which serves slowly (100 us a request), keeps a
   backlog on its ring and must see each client's requests in post
   order.  Each client's windows come back in order. *)
let pinned_shard ~spawn () =
  let nservers = 2 and nclients = 2 and messages = 400 and window = 8 in
  let t =
    session ~shard_assign:(fun _ -> 0) ~nservers ~nclients Rpc.Block
  in
  let reply_of v = v + 7 in
  let server k () =
    let next = Array.make nclients 0 and live = ref true in
    while !live do
      let c, v = Rpc.receive ~server:k t in
      if v < 0 then live := false
      else if k <> 0 then
        failwith (Printf.sprintf "server %d: request %d of client %d" k v c)
      else begin
        let due = (c * 1_000_000) + next.(c) in
        if v <> due then
          failwith
            (Printf.sprintf "client %d: request %d where %d was due" c v due);
        next.(c) <- next.(c) + 1;
        let until = Ulipc_observe.Clock.now_ns () + 100_000 in
        while Ulipc_observe.Clock.now_ns () < until do
          Domain.cpu_relax ()
        done;
        Rpc.reply t ~client:c (reply_of v)
      end
    done
  in
  let servers = List.init nservers (fun k -> spawn (server k)) in
  join_all
    (List.init nclients (fun c ->
         spawn (windowed_client t ~messages ~window ~reply_of c)));
  poison t ~nservers servers

(* Both batch list builders, on random shapes: [nclients] clients each
   send [n] requests through [call_pipelined ~depth], then [n] more
   with [post_batch] and [collect_batch ~n], to a batch server that
   answers with [receive_batch ~max]/[reply_batch].  A [max] below the
   depth makes the server's sweeps short, so a client's sweep often
   leaves replies outstanding; [n > depth] takes several windows.
   Replies must be the echo of the requests, in order, and the server
   checks that it sees each client's requests in post order.  Every
   boxed payload must be back in the slab afterwards. *)
let batch_lists ~codec ~spawn () =
  let nclients = 2 in
  let request c j = (c * 1000) + j and echo v = (2 * v) + 1 in
  let trial (n, depth, max) =
    let t : (int, int) Rpc.t =
      Rpc.create ~req_codec:codec ~rep_codec:codec ~nclients Rpc.Block
    in
    let server =
      spawn (fun () ->
          let next = Array.make nclients 0 and left = ref (2 * n * nclients) in
          while !left > 0 do
            let batch = Rpc.receive_batch t ~max in
            if List.length batch > max then failwith "batch longer than max";
            List.iter
              (fun (c, v) ->
                if v <> request c next.(c) then
                  failwith
                    (Printf.sprintf "client %d: request %d where %d was due" c
                       v (request c next.(c)));
                next.(c) <- next.(c) + 1)
              batch;
            left := !left - List.length batch;
            Rpc.reply_batch t (List.map (fun (c, v) -> (c, echo v)) batch)
          done)
    in
    let client c () =
      let reqs = List.init n (request c) in
      if Rpc.call_pipelined t ~client:c ~depth reqs <> List.map echo reqs then
        failwith (Printf.sprintf "client %d: call_pipelined replies" c);
      let reqs = List.init n (fun j -> request c (n + j)) in
      Rpc.post_batch t ~client:c reqs;
      if Rpc.collect_batch t ~client:c ~n <> List.map echo reqs then
        failwith (Printf.sprintf "client %d: collect_batch replies" c)
    in
    join_all (List.init nclients (fun c -> spawn (client c)));
    server ();
    Slab.in_use_count (Rpc.slab t) = 0
  in
  (* Unshrunk: QCheck's integer shrinker leaves the drawn ranges. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"batch lists echo in order"
       (QCheck.make
          ~print:(fun (n, depth, max) ->
            Printf.sprintf "n = %d, depth = %d, max = %d" n depth max)
          QCheck.Gen.(triple (int_range 0 40) (int_range 1 10) (int_range 1 10)))
       trial)

(* The same shapes on a pool: 2 servers and 3 clients spread over
   them round-robin, so shard 0 has two home clients and shard 1, which
   is paired, has one.  Nothing is pinned or nudged.  Each client
   compares its replies with the echo of its requests in order, and
   each server checks that it receives only its own shard's clients,
   each client's requests in post order: a shard has one consumer and
   each reply ring one producer, so per-shard FIFO holds end to end. *)
let pooled_batch_lists ~spawn () =
  let nclients = 3 and nservers = 2 in
  let request c j = (c * 1000) + j and echo v = (2 * v) + 1 in
  let trial (n, depth, max) =
    let t = session ~nservers ~nclients Rpc.Block in
    let server k () =
      let next = Array.make nclients 0 and live = ref true in
      while !live do
        let batch = Rpc.receive_batch ~server:k t ~max in
        if List.length batch > max then failwith "batch longer than max";
        Rpc.reply_batch t
          (List.filter_map
             (fun (c, v) ->
               if v < 0 then begin
                 live := false;
                 None
               end
               else begin
                 if Rpc.shard_of_client t c <> k then
                   failwith
                     (Printf.sprintf "server %d: request %d of client %d" k v
                        c);
                 if v <> request c next.(c) then
                   failwith
                     (Printf.sprintf
                        "server %d, client %d: request %d where %d was due" k
                        c v (request c next.(c)));
                 next.(c) <- next.(c) + 1;
                 Some (c, echo v)
               end)
             batch)
      done
    in
    let servers = List.init nservers (fun k -> spawn (server k)) in
    let client c () =
      let reqs = List.init n (request c) in
      if Rpc.call_pipelined t ~client:c ~depth reqs <> List.map echo reqs then
        failwith (Printf.sprintf "client %d: call_pipelined replies" c);
      let reqs = List.init n (fun j -> request c (n + j)) in
      Rpc.post_batch t ~client:c reqs;
      if Rpc.collect_batch t ~client:c ~n <> List.map echo reqs then
        failwith (Printf.sprintf "client %d: collect_batch replies" c)
    in
    join_all (List.init nclients (fun c -> spawn (client c)));
    poison t ~nservers servers;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"pooled batch lists echo in order"
       (QCheck.make
          ~print:(fun (n, depth, max) ->
            Printf.sprintf "n = %d, depth = %d, max = %d" n depth max)
          QCheck.Gen.(triple (int_range 0 40) (int_range 1 10) (int_range 1 10)))
       trial)

(* The timed receive: on an idle shard it ends in a clean timeout, not a
   park; then it returns a request a peer sends, and the session is left
   without a stray credit. *)
let timed_receive ~spawn () =
  let t = session ~nclients:1 Rpc.Block in
  let t0 = Ulipc_observe.Clock.now_ns () in
  Alcotest.(check bool) "idle shard times out" true
    (Rpc.receive_opt t ~timeout_ns:2_000_000 = None);
  Alcotest.(check bool) "after the timeout" true
    (Ulipc_observe.Clock.now_ns () - t0 >= 2_000_000);
  let client =
    spawn (fun () -> if Rpc.send t ~client:0 5 <> 6 then failwith "reply")
  in
  (match Rpc.receive_opt t ~timeout_ns:10_000_000_000 with
  | Some (0, 5) -> Rpc.reply t ~client:0 6
  | Some (c, v) -> Alcotest.failf "got (%d, %d)" c v
  | None -> Alcotest.fail "timed out with a request on its way");
  client ();
  Alcotest.(check int) "no wake residue" 0 (Rpc.wake_residue t)

let cases ~spawn ~within () =
  let bounded name case =
    Alcotest.test_case name `Quick (fun () ->
        within ~timeout_s:20.0 name (case ~spawn))
  in
  [
    bounded "BSW echo never hangs"
      (echo ~nclients:1 ~messages:20_000 Rpc.Block);
    bounded "BSLS(50) echo never hangs"
      (echo ~nclients:1 ~messages:20_000 (Rpc.Limited_spin 50));
    bounded "BSW 2-client fan-in never hangs"
      (echo ~nclients:2 ~messages:20_000 Rpc.Block);
    bounded "BSW depth-8 echo never hangs"
      (echo ~depth:8 ~nclients:1 ~messages:20_000 Rpc.Block);
    bounded "HANDOFF depth-8 echo never hangs"
      (echo ~depth:8 ~nclients:2 ~messages:2_000 Rpc.Handoff);
    bounded "BSW pooled batch echo never hangs" pooled_batch;
    bounded "fleet: a pinned shard's idle sibling receives nothing"
      pinned_shard;
    bounded "receive_opt: clean timeout, then a peer's request"
      timed_receive;
    bounded "batch lists: echo in order, requests in post order"
      (batch_lists ~codec:Rpc.int_codec);
    bounded "batch lists on a pool: replies in order, shards in post order"
      pooled_batch_lists;
  ]
