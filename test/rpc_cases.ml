(* The RPC cases that run both in one process and across fork: echo
   sessions under the blocking protocols (synchronous, fan-in and
   pipelined), a pooled batch server, a fleet whose idle server steals,
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
   its own replies and fails on a wrong one; what a peer must report
   beyond that goes through the words of a small shared "board" arena,
   because a fork'd peer's counters are its own.  This module is linked
   into both test binaries, so it spawns neither domains nor processes
   itself. *)

open Ulipc_real

let board () =
  Word_arena.create ~size_words:(16 * Word_arena.cache_line_words) ()

let cell i = i * Word_arena.cache_line_words

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

(* A request a server drops without a reply: it only makes the server
   run its receive again. *)
let nudge = min_int

(* A pool of [nservers] servers answering with [receive_batch]/
   [reply_batch] (or one request at a time) until a poison naming their
   own shard arrives: any other negative request is a poison for shard
   [-1 - v], which a server forwards, or a nudge.  [on_exit k] runs as
   server [k] stops. *)
let pool ?(batch = false) ?(on_exit = fun _ -> ()) t ~nservers ~reply_of
    ~spawn =
  let serve k live v =
    if v = nudge then ()
    else if -1 - v = k then live := false
    else Rpc.post ~shard:(-1 - v) t ~client:0 v
  in
  List.init nservers (fun k ->
      spawn (fun () ->
          let live = ref true in
          while !live do
            if batch then
              Rpc.reply_batch t
                (List.filter_map
                   (fun (client, v) ->
                     if v >= 0 then Some (client, reply_of ~server:k v)
                     else begin
                       serve k live v;
                       None
                     end)
                   (Rpc.receive_batch ~server:k t ~max:4))
            else begin
              let client, v = Rpc.receive ~server:k t in
              if v >= 0 then Rpc.reply t ~client (reply_of ~server:k v)
              else serve k live v
            end
          done;
          on_exit k))

(* Poisons go out once every client has collected its last reply; one
   that a sibling steals along with a nudge is forwarded home. *)
let poison t ~nservers servers =
  for k = 0 to nservers - 1 do
    Rpc.post ~shard:k t ~client:0 (-1 - k)
  done;
  join_all servers

(* Client [c] posts [messages] requests in windows of [window] and
   collects each window before the next, nudging shard [nudge_shard]
   after each window's posts if given.  Stealing may reorder a window,
   so it is compared as a set. *)
let windowed_client ?nudge_shard t ~messages ~window ~reply_of c () =
  let sent = ref 0 in
  while !sent < messages do
    let k = min window (messages - !sent) in
    let reqs = List.init k (fun j -> (c * 1_000_000) + !sent + j) in
    List.iter (fun v -> Rpc.post t ~client:c v) reqs;
    Option.iter (fun shard -> Rpc.post ~shard t ~client:c nudge) nudge_shard;
    let got = List.init k (fun _ -> Rpc.collect t ~client:c) in
    if List.sort compare got <> List.map reply_of reqs then
      failwith (Printf.sprintf "client %d: wrong replies" c);
    sent := !sent + k
  done

(* The pooled batch path: 2 servers answering with [receive_batch]/
   [reply_batch], 6 clients posting in windows of 4.  Capacity 4, with
   4 clients homed on shard 0 and 2 on shard 1, so the idle server
   steals and the victim stashes what the thief's ring cannot take,
   while both servers reply concurrently, often to the same client.  A
   reply lost or garbled on that path fails a client's check or hangs
   it. *)
let pooled_batch ~spawn () =
  let nservers = 2 and nclients = 6 and messages = 2000 and window = 4 in
  let t =
    session ~capacity:4
      ~shard_assign:(fun c -> if c < 4 then 0 else 1)
      ~nservers ~nclients Rpc.Block
  in
  let servers =
    pool ~batch:true t ~nservers ~reply_of:(fun ~server:_ v -> v + 3) ~spawn
  in
  join_all
    (List.init nclients (fun c ->
         spawn
           (windowed_client t ~messages ~window ~reply_of:(fun v -> v + 3) c)));
  poison t ~nservers servers

(* A fleet of 2 servers with every client pinned to shard 0: server 1
   has no traffic of its own, so it posts a steal token on shard 0, and
   server 0, which serves slowly, must hand it a span of its backlog.
   A server posts a claim only when a receive finds its ring empty, so
   each client nudges server 1 after posting a window, while shard 0 is
   deep.  The steal tokens are shared words: if a token were private to
   each server, the victim would never see the thief's claim.  Every
   reply must be right, and the victim reports its handoffs on the
   board. *)
let fleet_steals ~spawn () =
  let nservers = 2 and nclients = 2 and messages = 400 and window = 8 in
  let t =
    session ~shard_assign:(fun _ -> 0) ~nservers ~nclients Rpc.Block
  in
  let b = board () in
  let reply_of ~server v =
    if server = 0 then Unix.sleepf 1e-4;
    v + 7
  in
  let servers =
    pool t ~nservers ~reply_of ~spawn ~on_exit:(fun k ->
        Word_arena.at_store b (cell k)
          (Rpc.counters t).Ulipc.Counters.steal_handoffs)
  in
  join_all
    (List.init nclients (fun c ->
         spawn
           (windowed_client ~nudge_shard:1 t ~messages ~window
              ~reply_of:(fun v -> v + 7) c)));
  poison t ~nservers servers;
  let handoffs = Word_arena.at_load b (cell 0) in
  Alcotest.(check bool)
    (Printf.sprintf "the victim handed spans over (%d handoffs)" handoffs)
    true (handoffs > 0)

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

(* The same shapes on a pool: 2 servers with every client pinned to
   shard 0, so server 1 has no traffic of its own and steals.  Server 0
   nudges shard 1 after each batch, so server 1 comes back to an empty
   ring of its own while shard 0 may still be deep, and posts a claim.
   The thief answers what it steals, and server 0 may in turn steal
   back from a deep shard 1, so neither the replies nor a server's
   requests keep post order: each client's replies are compared with
   the echo of its requests as a multiset, which still catches a lost,
   duplicated or garbled message.  Across the trials the victim must
   have handed spans over, so the stash and steal path that a lone
   server skips stays under the property. *)
let pooled_batch_lists ~spawn () =
  let nclients = 2 and nservers = 2 in
  let request c j = (c * 1000) + j and echo v = (2 * v) + 1 in
  let b = board () in
  let trial (n, depth, max) =
    let t =
      session ~nservers ~shard_assign:(fun _ -> 0) ~nclients Rpc.Block
    in
    let server k () =
      let live = ref true in
      while !live do
        let batch = Rpc.receive_batch ~server:k t ~max in
        if List.length batch > max then failwith "batch longer than max";
        Rpc.reply_batch t
          (List.filter_map
             (fun (c, v) ->
               if v = nudge then None
               else if v < 0 then begin
                 if -1 - v = k then live := false
                 else Rpc.post ~shard:(-1 - v) t ~client:0 v;
                 None
               end
               else Some (c, echo v))
             batch);
        if k = 0 && !live then Rpc.post ~shard:1 t ~client:0 nudge
      done;
      if k = 0 then
        ignore
          (Word_arena.at_fetch_add b (cell 0)
             (Rpc.counters t).Ulipc.Counters.steal_handoffs
            : int)
    in
    let servers = List.init nservers (fun k -> spawn (server k)) in
    let sorted l = List.sort compare l in
    let client c () =
      let reqs = List.init n (request c) in
      if
        sorted (Rpc.call_pipelined t ~client:c ~depth reqs)
        <> List.map echo reqs
      then failwith (Printf.sprintf "client %d: call_pipelined replies" c);
      let reqs = List.init n (fun j -> request c (n + j)) in
      Rpc.post_batch t ~client:c reqs;
      if sorted (Rpc.collect_batch t ~client:c ~n) <> List.map echo reqs then
        failwith (Printf.sprintf "client %d: collect_batch replies" c)
    in
    join_all (List.init nclients (fun c -> spawn (client c)));
    (* Server 0 stops first, so no nudge lands after server 1 is gone. *)
    List.iteri
      (fun k join ->
        Rpc.post ~shard:k t ~client:0 (-1 - k);
        join ())
      servers;
    true
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:100 ~name:"pooled batch lists echo"
       (QCheck.make
          ~print:(fun (n, depth, max) ->
            Printf.sprintf "n = %d, depth = %d, max = %d" n depth max)
          QCheck.Gen.(triple (int_range 0 40) (int_range 1 10) (int_range 1 10)))
       trial);
  let handoffs = Word_arena.at_load b (cell 0) in
  Alcotest.(check bool)
    (Printf.sprintf "the victim handed spans over (%d handoffs)" handoffs)
    true (handoffs > 0)

(* A pool server that honours a steal claim while the thief's ring is
   full keeps the span it took in its stash, and those requests are
   older than everything still on its ring, so its receive must return
   them first.  Capacity 4, 2 servers, requests 10, 11 and 12 on shard
   0; server 1 finds its own ring empty, posts a claim on shard 0 and
   parks; shard 1 is then filled with 4 posts, and server 0's
   [receive_batch] takes the claim, hands request 10 over, finds the
   thief's ring full and stashes it.  The thief is a thread of the
   process running the case, woken by the posts but normally held off
   by the runtime lock until the batch is in; a systhreads tick can
   still hand it the lock in that window, and then it drains a message
   and the handoff succeeds.  Such an attempt does not take the stash
   path, so it is run again on a fresh session. *)
let stash_order ~spawn:_ () =
  let attempt () =
    let t =
      session ~capacity:4 ~nservers:2 ~shard_assign:(fun _ -> 0) ~nclients:1
        Rpc.Block
    in
    List.iter (fun v -> Rpc.post t ~client:0 v) [ 10; 11; 12 ];
    let thief =
      Thread.create (fun () -> ignore (Rpc.receive ~server:1 t)) ()
    in
    let deadline = Unix.gettimeofday () +. 10.0 in
    while
      (Rpc.counters t).Ulipc.Counters.steal_posts = 0
      && Unix.gettimeofday () < deadline
    do
      Thread.delay 0.001
    done;
    Alcotest.(check int) "server 1 posted a claim" 1
      (Rpc.counters t).Ulipc.Counters.steal_posts;
    for i = 1 to 4 do
      Rpc.post ~shard:1 t ~client:0 (100 + i)
    done;
    let batch = Rpc.receive_batch ~server:0 t ~max:4 in
    Thread.join thief;
    ((Rpc.counters t).Ulipc.Counters.steal_handoffs, List.map snd batch)
  in
  let rec stashed tries =
    match attempt () with
    | 0, order -> order
    | handoffs, _ when tries <= 1 ->
      Alcotest.failf "the thief's ring took %d in every attempt" handoffs
    | _ -> stashed (tries - 1)
  in
  Alcotest.(check (list int)) "shard 0's requests in post order"
    [ 10; 11; 12 ] (stashed 5)

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
    bounded "fleet: the idle server steals from a pinned shard" fleet_steals;
    bounded "receive_opt: clean timeout, then a peer's request"
      timed_receive;
    bounded "batch lists: echo in order, requests in post order"
      (batch_lists ~codec:Rpc.int_codec);
    bounded "batch lists on a pool: every client on shard 0, one thief"
      pooled_batch_lists;
    bounded "a pool server returns its stash before its ring" stash_order;
  ]
