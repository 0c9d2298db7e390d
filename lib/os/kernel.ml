open Ulipc_engine
module Event = Ulipc_observe.Event

exception Proc_failure of string * exn

type event = Dispatch of int | Wake of Proc.t

type cpu = {
  idx : int;
  mutable current : Proc.t option;
  mutable idle : bool;
  mutable busy : Sim_time.t; (* process execution + switch overhead *)
}

type sem = { mutable count : int; sem_waiters : Proc.t Queue.t }

type msg_item = { mtype : int; payload : Univ.t }

type rcv_waiter = { rproc : Proc.t; sel : int; deliver : Univ.t -> unit }
type snd_waiter = { sproc : Proc.t; pending : msg_item; sent : unit -> unit }

type msq = {
  capacity : int;
  mutable items : msg_item list; (* FIFO: head is oldest *)
  mutable rcv_waiters : rcv_waiter list; (* FIFO *)
  mutable snd_waiters : snd_waiter list; (* FIFO *)
}

type run_result =
  | Completed
  | Deadlock of Proc.t list
  | Time_limit
  | Step_limit

type t = {
  costs : Costs.t;
  policy : Policy.t;
  events : Ulipc_observe.Trace_ring.t option;
  heap : event Event_heap.t;
  cpus : cpu array;
  mutable now : Sim_time.t;
  mutable all_procs : Proc.t list; (* reverse spawn order *)
  mutable next_pid : int;
  mutable live : int;
  sems : (int, sem) Hashtbl.t;
  mutable next_sem : int;
  msqs : (int, msq) Hashtbl.t;
  mutable next_msq : int;
  mutable steps : int;
  max_steps : int;
  mutable failure : (string * exn) option;
  mutable cur_pid : int; (* pid being stepped, 0 between steps *)
}

let create ?events ?(max_steps = 200_000_000) ~ncpus ~policy ~costs () =
  if ncpus <= 0 then invalid_arg "Kernel.create: ncpus must be positive";
  {
    costs;
    policy;
    events;
    heap = Event_heap.create ();
    cpus =
      Array.init ncpus (fun idx -> { idx; current = None; idle = true; busy = Sim_time.zero });
    now = Sim_time.zero;
    all_procs = [];
    next_pid = 1;
    live = 0;
    sems = Hashtbl.create 16;
    next_sem = 0;
    msqs = Hashtbl.create 16;
    next_msq = 0;
    steps = 0;
    max_steps;
    failure = None;
    cur_pid = 0;
  }

let now t = t.now
let current_pid t = t.cur_pid
let events t = t.events

(* One kernel event into the ring, if there is one: uncharged
   instrumentation, stamped in simulated nanoseconds. *)
let record t kind ~actor ~at ~chan =
  match t.events with
  | None -> ()
  | Some r -> Ulipc_observe.Trace_ring.record_as r kind ~actor ~t_ns:at ~chan

let procs t = List.rev t.all_procs
let live_count t = t.live
let steps_executed t = t.steps

let find_sem t id =
  match Hashtbl.find_opt t.sems id with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Kernel: unknown semaphore %d" id)

let find_msq t id =
  match Hashtbl.find_opt t.msqs id with
  | Some q -> q
  | None -> invalid_arg (Printf.sprintf "Kernel: unknown message queue %d" id)

let sem_value t id = (find_sem t id).count
let sem_waiters t id = Queue.length (find_sem t id).sem_waiters
let msgq_length t id = List.length (find_msq t id).items

let new_sem t ~init =
  if init < 0 then invalid_arg "Kernel.new_sem: negative initial count";
  let id = t.next_sem in
  t.next_sem <- id + 1;
  Hashtbl.add t.sems id { count = init; sem_waiters = Queue.create () };
  id

let new_msgq t ~capacity =
  if capacity <= 0 then invalid_arg "Kernel.new_msgq: capacity must be positive";
  let id = t.next_msq in
  t.next_msq <- id + 1;
  Hashtbl.add t.msqs id
    { capacity; items = []; rcv_waiters = []; snd_waiters = [] };
  id

let schedule t ~at ev = Event_heap.push t.heap ~time:at ev

(* Wake an idle CPU so it notices newly ready work.  At most one CPU is
   kicked per call: one process became ready, one CPU is enough. *)
let kick t ~at =
  let rec find i =
    if i >= Array.length t.cpus then ()
    else if t.cpus.(i).idle then begin
      t.cpus.(i).idle <- false;
      schedule t ~at (Dispatch i)
    end
    else find (i + 1)
  in
  find 0

let make_ready t proc ~at ~reason =
  proc.Proc.state <- Proc.Ready;
  t.policy.Policy.enqueue proc reason ~now:at;
  kick t ~at

let spawn t ~name body =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  let proc = Proc.make ~pid ~name ~body in
  proc.Proc.usage_stamp <- t.now;
  t.all_procs <- proc :: t.all_procs;
  t.live <- t.live + 1;
  record t Event.Spawn ~actor:pid ~at:t.now ~chan:0;
  t.policy.Policy.enqueue proc Policy.New ~now:t.now;
  kick t ~at:t.now;
  proc

(* Account [d] of CPU consumed by [p], finishing at [now_end]. *)
let charge t p d ~now_end =
  p.Proc.cpu_time <- Sim_time.add p.Proc.cpu_time d;
  p.Proc.quantum_used <- Sim_time.add p.Proc.quantum_used d;
  t.policy.Policy.charge p ~ran:d ~now:now_end

let ctx_switch_cost t =
  Sim_time.add t.costs.Costs.ctx_switch
    (t.costs.Costs.ctx_switch_per_ready * t.policy.Policy.ready_count ())

(* Mark the process blocked in system call [req].  Blocking is always
   voluntary. *)
let block t p req ~why =
  p.Proc.state <- Proc.Blocked why;
  p.Proc.vcsw <- p.Proc.vcsw + 1;
  record t Event.Sleep ~actor:p.Proc.pid ~at:t.now ~chan:(Syscall.code req)

(* Move messages around after a send or a receive changed the queue state:
   deliver queued items to matching blocked receivers, then admit blocked
   senders while there is room, until a fixpoint. *)
let rec msq_settle t q ~at =
  let progress = ref false in
  (* Match the longest-waiting receiver against the queue. *)
  (match q.rcv_waiters with
  | [] -> ()
  | w :: rest ->
    let matches item = w.sel = 0 || item.mtype = w.sel in
    let rec split seen = function
      | [] -> None
      | item :: tl ->
        if matches item then Some (item, List.rev_append seen tl)
        else split (item :: seen) tl
    in
    (match split [] q.items with
    | None -> ()
    | Some (item, remaining) ->
      q.items <- remaining;
      q.rcv_waiters <- rest;
      w.deliver item.payload;
      make_ready t w.rproc ~at ~reason:Policy.Woken;
      record t Event.Msgq_deliver ~actor:t.cur_pid ~at ~chan:w.rproc.Proc.pid;
      progress := true));
  (* Admit the longest-waiting sender if there is room. *)
  (match q.snd_waiters with
  | w :: rest when List.length q.items < q.capacity ->
    q.snd_waiters <- rest;
    q.items <- q.items @ [ w.pending ];
    w.sent ();
    make_ready t w.sproc ~at ~reason:Policy.Woken;
    progress := true
  | _ :: _ | [] -> ());
  if !progress then msq_settle t q ~at

(* Handle one system call from process [p] running on [cpu] at time [now].
   Every branch charges the caller, stores how the process resumes, and
   schedules the CPU's next dispatch. *)
let handle_call (type a) t cpu p (req : a Syscall.t)
    (k : (a, Proc.step) Effect.Deep.continuation) ~now_ : unit =
  let c = t.costs in
  let entry = c.Costs.syscall_entry in
  record t Event.Syscall ~actor:p.Proc.pid ~at:now_ ~chan:(Syscall.code req);
  let finish_at cost =
    let fin = Sim_time.add now_ cost in
    charge t p cost ~now_end:fin;
    cpu.busy <- Sim_time.add cpu.busy cost;
    fin
  in
  let continue_running ~fin (v : a) =
    Proc.set_resume p k v;
    schedule t ~at:fin (Dispatch cpu.idx)
  in
  match req with
  | Syscall.Yield ->
    p.Proc.yield_count <- p.Proc.yield_count + 1;
    let fin = finish_at (Sim_time.add entry c.Costs.yield_body) in
    Proc.set_resume p k ();
    t.policy.Policy.on_yield p ~now:fin;
    p.Proc.state <- Proc.Ready;
    t.policy.Policy.enqueue p Policy.Yielded ~now:fin;
    schedule t ~at:fin (Dispatch cpu.idx)
  | Syscall.Handoff target ->
    p.Proc.yield_count <- p.Proc.yield_count + 1;
    let fin = finish_at (Sim_time.add entry c.Costs.yield_body) in
    Proc.set_resume p k ();
    (* A handoff is a yield variant — the caller declares it has nothing to
       do — so the policy's yield treatment (e.g. quantum expiry under the
       modified Linux scheduler) applies to every target form. *)
    t.policy.Policy.on_yield p ~now:fin;
    (match target with
    | Syscall.To_self -> ()
    | Syscall.To_pid pid -> (
      match
        List.find_opt (fun q -> q.Proc.pid = pid && Proc.is_alive q) t.all_procs
      with
      | Some target_proc -> t.policy.Policy.set_hint (Policy.Favor target_proc)
      | None -> ())
    | Syscall.To_any -> t.policy.Policy.set_hint (Policy.Avoid p));
    p.Proc.state <- Proc.Ready;
    t.policy.Policy.enqueue p Policy.Yielded ~now:fin;
    schedule t ~at:fin (Dispatch cpu.idx)
  | Syscall.Sem_p id ->
    let sem = find_sem t id in
    if sem.count > 0 then begin
      let fin = finish_at (Sim_time.add entry c.Costs.sem_op) in
      sem.count <- sem.count - 1;
      continue_running ~fin ()
    end
    else begin
      let fin =
        finish_at
          (Sim_time.add entry (Sim_time.add c.Costs.sem_op c.Costs.block_extra))
      in
      Proc.set_resume p k ();
      block t p req ~why:(Printf.sprintf "sem %d" id);
      Queue.add p sem.sem_waiters;
      schedule t ~at:fin (Dispatch cpu.idx)
    end
  | Syscall.Sem_v id ->
    let sem = find_sem t id in
    let waking = not (Queue.is_empty sem.sem_waiters) in
    let cost = Sim_time.add entry c.Costs.sem_op in
    let cost = if waking then Sim_time.add cost c.Costs.wake_extra else cost in
    let fin = finish_at cost in
    (* A V wakes a waiter but deliberately does NOT force a rescheduling
       decision — the behaviour §3.1 identifies as the reason BSW performs
       no better than System V IPC. *)
    (match Queue.take_opt sem.sem_waiters with
    | Some w -> make_ready t w ~at:fin ~reason:Policy.Woken
    | None -> sem.count <- sem.count + 1);
    continue_running ~fin ()
  | Syscall.Sem_value id ->
    let sem = find_sem t id in
    let fin = finish_at entry in
    continue_running ~fin sem.count
  | Syscall.Msg_snd (id, mtype, payload) ->
    if mtype <= 0 then invalid_arg "msgsnd: mtype must be positive";
    let q = find_msq t id in
    let room = List.length q.items < q.capacity in
    let cost = Sim_time.add entry c.Costs.msg_op in
    let cost =
      if room && q.rcv_waiters <> [] then Sim_time.add cost c.Costs.wake_extra
      else if not room then Sim_time.add cost c.Costs.block_extra
      else cost
    in
    let fin = finish_at cost in
    if room then begin
      q.items <- q.items @ [ { mtype; payload } ];
      Proc.set_resume p k ();
      msq_settle t q ~at:fin;
      schedule t ~at:fin (Dispatch cpu.idx)
    end
    else begin
      block t p req ~why:(Printf.sprintf "msgsnd %d" id);
      q.snd_waiters <-
        q.snd_waiters
        @ [
            {
              sproc = p;
              pending = { mtype; payload };
              sent = (fun () -> Proc.set_resume p k ());
            };
          ];
      schedule t ~at:fin (Dispatch cpu.idx)
    end
  | Syscall.Msg_rcv (id, sel) ->
    let q = find_msq t id in
    let matches item = sel = 0 || item.mtype = sel in
    let rec split seen = function
      | [] -> None
      | item :: tl ->
        if matches item then Some (item, List.rev_append seen tl)
        else split (item :: seen) tl
    in
    (match split [] q.items with
    | Some (item, remaining) ->
      let cost = Sim_time.add entry c.Costs.msg_op in
      let cost =
        if q.snd_waiters <> [] then Sim_time.add cost c.Costs.wake_extra
        else cost
      in
      let fin = finish_at cost in
      q.items <- remaining;
      Proc.set_resume p k item.payload;
      msq_settle t q ~at:fin;
      schedule t ~at:fin (Dispatch cpu.idx)
    | None ->
      let fin =
        finish_at
          (Sim_time.add entry (Sim_time.add c.Costs.msg_op c.Costs.block_extra))
      in
      block t p req ~why:(Printf.sprintf "msgrcv %d" id);
      q.rcv_waiters <-
        q.rcv_waiters
        @ [ { rproc = p; sel; deliver = (fun v -> Proc.set_resume p k v) } ];
      schedule t ~at:fin (Dispatch cpu.idx))
  | Syscall.Sleep d ->
    let fin =
      finish_at
        (Sim_time.add entry
           (Sim_time.add c.Costs.sleep_setup c.Costs.block_extra))
    in
    Proc.set_resume p k ();
    block t p req ~why:"sleep";
    schedule t ~at:(Sim_time.add fin d) (Wake p);
    schedule t ~at:fin (Dispatch cpu.idx)
  | Syscall.Get_time ->
    let fin = finish_at c.Costs.time_read in
    continue_running ~fin fin
  | Syscall.Get_usage ->
    let fin = finish_at entry in
    continue_running ~fin (Proc.usage_snapshot p)
  | Syscall.Set_fixed_priority b ->
    let fin = finish_at entry in
    let supported = t.policy.Policy.supports_fixed_priority in
    if supported then p.Proc.fixed_prio <- b;
    continue_running ~fin supported
  | Syscall.Get_pid ->
    let fin = finish_at entry in
    continue_running ~fin p.Proc.pid

(* Run one step of [p] on [cpu] at time [now]. *)
let run_step t cpu p ~now_ =
  t.steps <- t.steps + 1;
  t.cur_pid <- p.Proc.pid;
  match Proc.run_next p with
  | Proc.Working (d, k) ->
    Proc.set_resume p k ();
    let fin = Sim_time.add now_ d in
    charge t p d ~now_end:fin;
    cpu.busy <- Sim_time.add cpu.busy d;
    schedule t ~at:fin (Dispatch cpu.idx)
  | Proc.Calling (req, k) ->
    p.Proc.syscall_count <- p.Proc.syscall_count + 1;
    handle_call t cpu p req k ~now_
  | Proc.Finished ->
    p.Proc.state <- Proc.Dead;
    t.live <- t.live - 1;
    t.policy.Policy.remove p;
    record t Event.Exit ~actor:p.Proc.pid ~at:now_ ~chan:0;
    schedule t ~at:now_ (Dispatch cpu.idx)
  | Proc.Failed e -> t.failure <- Some (p.Proc.name, e)

(* Choose who runs next on [cpu] and either run them (same process: the
   yield "returned to the caller") or pay the context switch. *)
let pick_and_run t cpu ~now_ =
  match t.policy.Policy.pick ~now:now_ with
  | None ->
    cpu.idle <- true;
    record t Event.Idle ~actor:0 ~at:now_ ~chan:cpu.idx
  | Some q ->
    let same = match cpu.current with Some c -> c == q | None -> false in
    q.Proc.state <- Proc.Running cpu.idx;
    q.Proc.quantum_used <- Sim_time.zero;
    if same then begin
      (* The "preemption" or yield did not switch after all. *)
      if q.Proc.preempted then begin
        q.Proc.preempted <- false;
        q.Proc.icsw <- q.Proc.icsw - 1
      end;
      run_step t cpu q ~now_
    end
    else begin
      (match cpu.current with
      | Some prev when prev != q -> (
        match prev.Proc.state with
        | Proc.Ready ->
          if prev.Proc.preempted then prev.Proc.preempted <- false
          else prev.Proc.vcsw <- prev.Proc.vcsw + 1
        | Proc.Blocked _ | Proc.Dead | Proc.Running _ -> ())
      | Some _ | None -> ());
      cpu.current <- Some q;
      record t Event.Switch ~actor:q.Proc.pid ~at:now_ ~chan:cpu.idx;
      let cs = ctx_switch_cost t in
      cpu.busy <- Sim_time.add cpu.busy cs;
      schedule t ~at:(Sim_time.add now_ cs) (Dispatch cpu.idx)
    end

let dispatch t cpu ~now_ =
  match cpu.current with
  | Some p
    when (match p.Proc.state with
         | Proc.Running i -> i = cpu.idx
         | Proc.Ready | Proc.Blocked _ | Proc.Dead -> false) ->
    if t.policy.Policy.should_preempt p ~now:now_ then begin
      p.Proc.icsw <- p.Proc.icsw + 1;
      p.Proc.preempted <- true;
      p.Proc.state <- Proc.Ready;
      t.policy.Policy.enqueue p Policy.Preempted ~now:now_;
      record t Event.Preempt ~actor:p.Proc.pid ~at:now_ ~chan:cpu.idx;
      pick_and_run t cpu ~now_
    end
    else run_step t cpu p ~now_
  | Some _ | None -> pick_and_run t cpu ~now_

let blocked_procs t =
  List.filter
    (fun p -> match p.Proc.state with Proc.Blocked _ -> true | _ -> false)
    (procs t)

let run ?until t =
  let result = ref None in
  while !result = None do
    (match t.failure with
    | Some (name, e) -> raise (Proc_failure (name, e))
    | None -> ());
    if t.steps >= t.max_steps then result := Some Step_limit
    else
      match Event_heap.pop t.heap with
      | None ->
        result := Some (if t.live = 0 then Completed else Deadlock (blocked_procs t))
      | Some (time, ev) -> (
        match until with
        | Some horizon when time > horizon ->
          (* Put the event back so a later run with a larger horizon can
             resume without losing a dispatch or wake-up. *)
          Event_heap.push t.heap ~time ev;
          t.now <- horizon;
          result := Some Time_limit
        | Some _ | None -> (
          t.now <- Sim_time.max t.now time;
          match ev with
          | Dispatch i -> dispatch t t.cpus.(i) ~now_:t.now
          | Wake p ->
            if Proc.is_alive p then
              make_ready t p ~at:t.now ~reason:Policy.Woken))
  done;
  (match t.failure with
  | Some (name, e) -> raise (Proc_failure (name, e))
  | None -> ());
  match !result with Some r -> r | None -> assert false

let cpu_busy t idx =
  if idx < 0 || idx >= Array.length t.cpus then
    invalid_arg "Kernel.cpu_busy: no such cpu";
  t.cpus.(idx).busy

let utilization t =
  if t.now = 0 then 0.0
  else
    let busy =
      Array.fold_left (fun acc c -> acc + c.busy) 0 t.cpus
    in
    float_of_int busy /. float_of_int (t.now * Array.length t.cpus)

let pp_result ppf = function
  | Completed -> Format.pp_print_string ppf "completed"
  | Deadlock ps ->
    Format.fprintf ppf "deadlock (%d blocked: %s)" (List.length ps)
      (String.concat ", " (List.map (fun p -> p.Proc.name) ps))
  | Time_limit -> Format.pp_print_string ppf "time limit reached"
  | Step_limit -> Format.pp_print_string ppf "step limit reached"
