open Ulipc_os
open Ulipc_shm

type variant = No_second_dequeue | Plain_store_wake | Unconditional_wake

let name = function
  | No_second_dequeue -> "no-second-dequeue"
  | Plain_store_wake -> "plain-store-wake"
  | Unconditional_wake -> "unconditional-wake"

(* The BSW consumer with step C.3 removed: empty queue -> clear flag ->
   sleep.  Interleaving 4 makes this lose wake-ups. *)
let consumer_without_second_dequeue (s : Session.t) (ch : Channel.t) ~side =
  let count_block () =
    match side with
    | Prims.Client ->
      s.Session.counters.Counters.client_blocks <-
        s.Session.counters.Counters.client_blocks + 1
    | Prims.Server ->
      s.Session.counters.Counters.server_blocks <-
        s.Session.counters.Counters.server_blocks + 1
  in
  let rec outer () =
    match Ms_queue.dequeue ch.Channel.queue with
    | Some m -> m
    | None ->
      Mem.Flag.write ch.Channel.awake false;
      (* C.3 deliberately missing *)
      count_block ();
      Usys.sem_p ch.Channel.sem;
      Mem.Flag.write ch.Channel.awake true;
      outer ()
  in
  outer ()

(* The producer's wake-up with a plain read-then-store instead of
   test-and-set: concurrent producers both see the flag clear and both V
   (Interleaving 2); a producer racing a successful second dequeue leaves
   an undrainable V behind (Interleaving 3). *)
let wake_plain_store (s : Session.t) (ch : Channel.t) ~target =
  if not (Mem.Flag.read ch.Channel.awake) then begin
    Mem.Flag.write ch.Channel.awake true;
    (match target with
    | Prims.Client ->
      s.Session.counters.Counters.client_wakeups <-
        s.Session.counters.Counters.client_wakeups + 1
    | Prims.Server ->
      s.Session.counters.Counters.server_wakeups <-
        s.Session.counters.Counters.server_wakeups + 1);
    Usys.sem_v ch.Channel.sem
  end

let wake_unconditional (s : Session.t) (ch : Channel.t) ~target =
  (match target with
  | Prims.Client ->
    s.Session.counters.Counters.client_wakeups <-
      s.Session.counters.Counters.client_wakeups + 1
  | Prims.Server ->
    s.Session.counters.Counters.server_wakeups <-
      s.Session.counters.Counters.server_wakeups + 1);
  Usys.sem_v ch.Channel.sem

let iface variant =
  let wake =
    match variant with
    | No_second_dequeue ->
      fun s ch ~target -> ignore (Prims.wake_consumer s ch ~target : bool)
    | Plain_store_wake -> wake_plain_store
    | Unconditional_wake -> wake_unconditional
  in
  let consume s ch ~side =
    match variant with
    | No_second_dequeue -> consumer_without_second_dequeue s ch ~side
    | Plain_store_wake | Unconditional_wake ->
      Prims.blocking_dequeue s ch ~side No_hint
  in
  let send (s : Session.t) ~client msg =
    Prims.flow_enqueue s s.Session.request msg;
    wake s s.Session.request ~target:Prims.Server;
    let ans = consume s (Session.reply_channel s client) ~side:Prims.Client in
    s.Session.counters.Counters.sends <- s.Session.counters.Counters.sends + 1;
    ans
  in
  let receive (s : Session.t) =
    let m = consume s s.Session.request ~side:Prims.Server in
    s.Session.counters.Counters.receives <-
      s.Session.counters.Counters.receives + 1;
    m
  in
  let reply (s : Session.t) ~client msg =
    let ch = Session.reply_channel s client in
    Prims.flow_enqueue s ch msg;
    wake s ch ~target:Prims.Client;
    s.Session.counters.Counters.replies <-
      s.Session.counters.Counters.replies + 1
  in
  { Iface.send; receive; reply }

let semaphore_residue (s : Session.t) ~kernel =
  let value ch = Kernel.sem_value kernel ch.Channel.sem in
  Array.fold_left
    (fun acc ch -> acc + value ch)
    (value s.Session.request) s.Session.replies
