type t = {
  kernel : Ulipc_os.Kernel.t;
  costs : Ulipc_os.Costs.t;
  multiprocessor : bool;
  kind : Protocol_kind.t;
  request : Channel.t;
  replies : Channel.t array;
  sysv_request : Ulipc_os.Syscall.msq_id;
  sysv_reply : Ulipc_os.Syscall.msq_id;
  inject : Message.t -> Ulipc_engine.Univ.t;
  project : Ulipc_engine.Univ.t -> Message.t option;
  mutable server_pid : Ulipc_os.Syscall.pid;
  counters : Counters.t;
}

let create ~kernel ~costs ~multiprocessor ~kind ~nclients ~capacity () =
  if nclients <= 0 then invalid_arg "Session.create: nclients must be positive";
  if capacity <= 0 then invalid_arg "Session.create: capacity must be positive";
  (* The budget check every session constructor shares.  No single-core
     clamp: the simulated machine's CPU count, not the host's, decides
     whether a spin can pay off here. *)
  Option.iter
    (fun w ->
      ignore
        (Protocol_core.validate ~who:"Session.create" ~host:false w
          : Protocol_core.waiting))
    (Protocol_kind.to_waiting kind);
  let inject, project = Ulipc_engine.Univ.embed () in
  {
    kernel;
    costs;
    multiprocessor;
    kind;
    request = Channel.create ~kernel ~costs ~capacity ~id:(-1);
    replies =
      Array.init nclients (fun id -> Channel.create ~kernel ~costs ~capacity ~id);
    sysv_request = Ulipc_os.Kernel.new_msgq kernel ~capacity;
    sysv_reply = Ulipc_os.Kernel.new_msgq kernel ~capacity;
    inject;
    project;
    server_pid = 0;
    counters = Counters.create ();
  }

let register_server t pid = t.server_pid <- pid

let reply_channel t n =
  if n < 0 || n >= Array.length t.replies then
    invalid_arg (Printf.sprintf "Session.reply_channel: no channel %d" n);
  t.replies.(n)

let nclients t = Array.length t.replies
let sysv_reply_mtype ~client = client + 1
