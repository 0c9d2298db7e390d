(* The producer and consumer halves of the session's protocol: the shared
   core's [produce]/[consume] for every waiting mode (so [collect] is
   exactly the client half of a synchronous send), per-item semaphore
   grants for CSEM, and the kernel queues for SYSV. *)

open Ulipc_os
module P = Sim_protocols

let post (s : Session.t) ~client:_ msg =
  match s.Session.kind with
  | Protocol_kind.CSEM -> Csem.produce s s.Session.request msg
  | Protocol_kind.SYSV ->
    (* System V is naturally asynchronous: msgsnd does not wait. *)
    Usys.msgsnd s.Session.sysv_request ~mtype:Sysv_ipc.request_mtype
      (s.Session.inject msg)
  | kind ->
    ignore
      (P.produce s (Dispatch.waiting kind) s.Session.request ~target:Server msg
        : bool)

let collect (s : Session.t) ~client =
  let ch = Session.reply_channel s client in
  match s.Session.kind with
  | Protocol_kind.CSEM -> Csem.consume ch
  | Protocol_kind.SYSV -> (
    match
      s.Session.project
        (Usys.msgrcv s.Session.sysv_reply
           ~mtype:(Session.sysv_reply_mtype ~client))
    with
    | Some m -> m
    | None -> invalid_arg "Async.collect: foreign payload in session queue")
  | kind -> P.consume s (Dispatch.waiting kind) ch ~side:Client ~budget:P.budget

let try_collect (s : Session.t) ~client =
  Ulipc_shm.Ms_queue.dequeue (Session.reply_channel s client).Channel.queue

let call_batch s ~client msgs =
  List.iter (post s ~client) msgs;
  List.map (fun (_ : Message.t) -> collect s ~client) msgs
