module Event = Ulipc_observe.Event

type call = {
  client : int;
  actor : int;
  t_start_us : float;
  t_end_us : float;
  msgs : int;
}

type t = {
  paired : int;
  unpaired : int;
  misordered : int;
  client_send_us : float;
  request_wait_us : float;
  service_us : float;
  reply_wait_us : float;
  client_recv_us : float;
  rt_mean_us : float;
  unexplained_us : float;
}

let queue_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
    let q = Queue.create () in
    Hashtbl.replace tbl key q;
    q

let split ~skip ~calls events =
  (* Per-actor program order: the merged stream is time-sorted, and the
     per-actor sequence numbers restore each actor's own order exactly. *)
  let by_actor = Hashtbl.create 8 in
  List.iter (fun (e : Event.t) -> Queue.push e (queue_of by_actor e.actor)) events;
  let req_enq = Hashtbl.create 4 (* actor -> request Enqueue stamps *)
  and served = Hashtbl.create 4 (* reply chan -> (req Dequeue, reply Enqueue) *)
  and rep_deq = Hashtbl.create 4 (* reply chan -> reply Dequeue stamps *) in
  Hashtbl.iter
    (fun actor q ->
      let evs = Array.of_seq (Queue.to_seq q) in
      Array.stable_sort (fun (a : Event.t) b -> compare a.seq b.seq) evs;
      let unanswered = Queue.create () in
      Array.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Enqueue when e.chan < 0 ->
            Queue.push e.t_us (queue_of req_enq actor)
          | Event.Dequeue when e.chan < 0 -> Queue.push e.t_us unanswered
          | Event.Enqueue when not (Queue.is_empty unanswered) ->
            let d1 = Queue.pop unanswered in
            Queue.push (d1, e.t_us) (queue_of served e.chan)
          | _ -> ())
        evs)
    by_actor;
  List.iter
    (fun (e : Event.t) ->
      if e.kind = Event.Dequeue && e.chan >= 0 then
        Queue.push e.t_us (queue_of rep_deq e.chan))
    events;
  let drop q n =
    for _ = 1 to n do
      ignore (Queue.take_opt q)
    done
  in
  Array.iteri
    (fun c n ->
      (match List.find_opt (fun k -> k.client = c) calls with
      | Some k -> drop (queue_of req_enq k.actor) n
      | None -> ());
      drop (queue_of served c) n;
      drop (queue_of rep_deq c) n)
    skip;
  let paired = ref 0 and unpaired = ref 0 and misordered = ref 0 in
  let parts = Array.make 5 0.0 in
  let rt_sum = ref 0.0 and rt_n = ref 0 in
  List.iter
    (fun k ->
      let rt = k.t_end_us -. k.t_start_us in
      for _ = 1 to k.msgs do
        rt_sum := !rt_sum +. rt;
        incr rt_n;
        match
          ( Queue.take_opt (queue_of req_enq k.actor),
            Queue.take_opt (queue_of served k.client),
            Queue.take_opt (queue_of rep_deq k.client) )
        with
        | Some e1, Some (d1, e2), Some d2 ->
          let p =
            [|
              e1 -. k.t_start_us; d1 -. e1; e2 -. d1; d2 -. e2; k.t_end_us -. d2;
            |]
          in
          if Array.exists (fun x -> x < 0.0) p then incr misordered;
          Array.iteri (fun i x -> parts.(i) <- parts.(i) +. x) p;
          incr paired
        | _ -> incr unpaired
      done)
    calls;
  let mean s n = if n = 0 then nan else s /. float_of_int n in
  let part i = mean parts.(i) !paired in
  let rt_mean_us = mean !rt_sum !rt_n in
  {
    paired = !paired;
    unpaired = !unpaired;
    misordered = !misordered;
    client_send_us = part 0;
    request_wait_us = part 1;
    service_us = part 2;
    reply_wait_us = part 3;
    client_recv_us = part 4;
    rt_mean_us;
    unexplained_us =
      rt_mean_us -. mean (Array.fold_left ( +. ) 0.0 parts) !paired;
  }
