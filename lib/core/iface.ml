type t = {
  send : Session.t -> client:int -> Message.t -> Message.t;
  receive : Session.t -> Message.t;
  reply : Session.t -> client:int -> Message.t -> unit;
}

let of_kind kind =
  match kind with
  | Protocol_kind.SYSV ->
    { send = Sysv_ipc.send; receive = Sysv_ipc.receive; reply = Sysv_ipc.reply }
  | Protocol_kind.CSEM ->
    { send = Csem.send; receive = Csem.receive; reply = Csem.reply }
  | kind ->
    let w = Dispatch.waiting kind in
    {
      send = Dispatch.send_with w;
      receive = Dispatch.receive_with w;
      reply = Dispatch.reply_with w;
    }
