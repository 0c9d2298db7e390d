(* Overload-aware BSLS: the §5 future-work sketch.  Replies defer their
   wake-up V operations behind an admission window; deferred wake-ups
   are released on every receive — including right before the server
   would block, which is what guarantees no deferred client starves.
   The client half and the server's receive are plain BSLS, through the
   shared protocol core. *)

type server_state = {
  max_active : int;
  mutable active : int;
      (* wake-ups issued whose follow-up request has not yet been
         received *)
  mutable pending : Channel.t list; (* deferred wake-ups, oldest first *)
}

let server_state ~max_pending =
  if max_pending <= 0 then
    invalid_arg "Bsls_throttle.server_state: max_pending must be positive";
  { max_active = max_pending; active = 0; pending = [] }

let pending_wakeups st = List.length st.pending

let wake_now s st ch =
  if Prims.wake_consumer s ch ~target:Client then st.active <- st.active + 1

(* Release deferred clients while the admission window has room. *)
let rec release_window s st =
  match st.pending with
  | ch :: rest when st.active < st.max_active ->
    st.pending <- rest;
    wake_now s st ch;
    release_window s st
  | _ :: _ | [] -> ()

(* Progress guarantee: if no request is waiting we may be about to block,
   and only a released client can produce the next request — keep
   releasing until a wake-up actually lands (a false return means the
   released client was already awake or has exited). *)
let rec force_release s st =
  match st.pending with
  | [] -> ()
  | ch :: rest ->
    st.pending <- rest;
    if Prims.wake_consumer s ch ~target:Client then st.active <- st.active + 1
    else force_release s st

let iface ~max_spin st =
  let bsls = Protocol_core.Limited_spin max_spin in
  let receive (s : Session.t) =
    release_window s st;
    if Sim_substrate.queue_is_empty s s.Session.request then force_release s st;
    let m = Dispatch.receive_with bsls s in
    (* A request arrived: whoever sent it is no longer sleeping. *)
    if st.active > 0 then st.active <- st.active - 1;
    m
  in
  let reply s ~client msg =
    let ch = Session.reply_channel s client in
    Prims.flow_enqueue s ch msg;
    (* Defer only while the client is still awake (spinning): the reply
       is already enqueued, so a client that clears its flag after this
       read must find it at the second dequeue (step C.3) and never
       sleeps.  A client whose flag is already clear may be asleep and
       might never be flushed if the server stops receiving — wake it
       now. *)
    if st.active < st.max_active || not (Sim_substrate.awake_read s ch) then
      wake_now s st ch
    else st.pending <- st.pending @ [ ch ];
    let c = s.Session.counters in
    c.Counters.replies <- c.Counters.replies + 1
  in
  { Iface.send = Dispatch.send_with bsls; receive; reply }
