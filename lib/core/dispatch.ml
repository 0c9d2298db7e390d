module P = Sim_protocols

(* ADAPT n runs as BSLS n: the adaptive controller reads the host's
   clock, which the simulator must not, and the cap is the budget an
   always-rewarded spinner converges to. *)
let waiting kind =
  match Protocol_kind.to_waiting kind with
  | Some (Protocol_core.Adaptive n) -> Protocol_core.Limited_spin n
  | Some w -> w
  | None ->
    invalid_arg
      ("Dispatch.waiting: " ^ Protocol_kind.name kind
     ^ " is not a waiting mode of the protocol core")

let send_with w (s : Session.t) ~client msg =
  P.send s w ~req:s.Session.request
    ~reply:(Session.reply_channel s client)
    ~budget:P.budget msg

let receive_with w (s : Session.t) =
  P.receive s w s.Session.request ~budget:P.budget

let reply_with w (s : Session.t) ~client msg =
  P.reply s w (Session.reply_channel s client) msg

let send (s : Session.t) ~client msg =
  match s.Session.kind with
  | Protocol_kind.SYSV -> Sysv_ipc.send s ~client msg
  | Protocol_kind.CSEM -> Csem.send s ~client msg
  | kind -> send_with (waiting kind) s ~client msg

let receive (s : Session.t) =
  match s.Session.kind with
  | Protocol_kind.SYSV -> Sysv_ipc.receive s
  | Protocol_kind.CSEM -> Csem.receive s
  | kind -> receive_with (waiting kind) s

let reply (s : Session.t) ~client msg =
  match s.Session.kind with
  | Protocol_kind.SYSV -> Sysv_ipc.reply s ~client msg
  | Protocol_kind.CSEM -> Csem.reply s ~client msg
  | kind -> reply_with (waiting kind) s ~client msg
