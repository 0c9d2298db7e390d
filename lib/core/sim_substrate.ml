(* The simulated-OS instantiation of Substrate.S: queues and flags live in
   cost-charged shared memory, the semaphore and the scheduling hints are
   syscall effects the simulated kernel interprets.  Every function here
   is exactly the substrate-specific half of what lib/core's protocols did
   before the functorization.

   Events go into the kernel's event ring, beside the kernel's own, and
   their emission reads the kernel's clock and current pid directly —
   uncharged instrumentation reads, not [Usys] syscalls — so attaching a
   ring changes nothing about the simulated run.  Timestamps follow the
   causal discipline shared with the real backend: producer-side events
   (Enqueue, Wake, Block) are stamped before the operation and Dequeue
   after it, so a merged cross-proc stream never shows an effect before
   its cause even when a proc is preempted mid-operation. *)

open Ulipc_engine
open Ulipc_os
open Ulipc_shm

type t = Session.t
type channel = Channel.t
type msg = Message.t

(* The simulator keeps its boxed Message.t view; the conversion seam to
   the core's sentinel-based dequeue is this one distinguished block,
   compared physically.  It is allocated once here and never enqueued,
   so [==] can only be true for the sentinel itself. *)
let no_msg : msg = Message.make ~opcode:(Custom (-1)) ~reply_chan:(-1) nan

let now (s : Session.t) = Kernel.now s.Session.kernel

let emit_at (s : Session.t) (ch : channel) kind ~t_ns =
  match Kernel.events s.Session.kernel with
  | None -> ()
  | Some ring ->
    Ulipc_observe.Trace_ring.record_as ring kind
      ~actor:(Kernel.current_pid s.Session.kernel)
      ~t_ns ~chan:ch.Channel.id

let emit (s : Session.t) (ch : channel) kind = emit_at s ch kind ~t_ns:(now s)

let request (s : Session.t) = s.Session.request
let reply_channel = Session.reply_channel

let enqueue (s : t) (ch : channel) m =
  let t_ns = now s in
  let ok = Ms_queue.enqueue ch.Channel.queue m in
  if ok then emit_at s ch Ulipc_observe.Event.Enqueue ~t_ns;
  ok

let dequeue (s : t) (ch : channel) =
  match Ms_queue.dequeue ch.Channel.queue with
  | Some m ->
    emit s ch Ulipc_observe.Event.Dequeue;
    m
  | None -> no_msg

let queue_is_empty (_ : t) (ch : channel) = Ms_queue.is_empty ch.Channel.queue

(* The paper's consumer clears its flag right after a failed dequeue;
   the simulator runs it unchanged, so [await] gives up at once, charges
   nothing and emits nothing. *)
let await (_ : t) (_ : channel) = no_msg

let awake_test_and_set (_ : t) ch = Mem.Flag.test_and_set ch.Channel.awake
let awake_clear (_ : t) ch = Mem.Flag.write ch.Channel.awake false
let awake_set (_ : t) ch = Mem.Flag.write ch.Channel.awake true
let awake_read (_ : t) ch = Mem.Flag.read ch.Channel.awake

let sem_p (s : t) ch =
  emit s ch Ulipc_observe.Event.Block;
  Usys.sem_p ch.Channel.sem

let sem_v (s : t) ch =
  emit s ch Ulipc_observe.Event.Wake;
  Usys.sem_v ch.Channel.sem

(* A single non-blocking semop: the count peek is an uncharged kernel-state
   read so the whole operation costs exactly one system call — the same
   charge the pre-functor code paid for its (never-blocking) plain P. *)
let sem_try_p (s : t) ch =
  if Kernel.sem_value s.Session.kernel ch.Channel.sem > 0 then begin
    Usys.sem_p ch.Channel.sem;
    emit s ch Ulipc_observe.Event.Wake_drain;
    true
  end
  else false

let busy_wait (s : t) ~short:_ _ =
  if s.Session.multiprocessor then Usys.work s.Session.costs.Costs.spin_delay
  else Usys.yield ()

(* On a multiprocessor, slice the 25 µs poll into 1 µs pieces and re-check
   emptiness on every slice (§5: "the empty check is made on every
   iteration"), so a reply arriving mid-poll is noticed promptly. *)
let poll (s : t) (ch : channel) =
  if s.Session.multiprocessor then begin
    let slice = Sim_time.us 1 in
    let slices = max 1 (s.Session.costs.Costs.poll_spin / slice) in
    let rec go i =
      if i < slices && Ms_queue.is_empty ch.Channel.queue then begin
        Usys.work slice;
        go (i + 1)
      end
    in
    go 0
  end
  else Usys.yield ()

let yield (_ : t) = Usys.yield ()

let handoff_server (s : t) =
  emit s s.Session.request Ulipc_observe.Event.Handoff;
  if s.Session.server_pid > 0 then
    Usys.handoff (Syscall.To_pid s.Session.server_pid)
  else
    (* Server not registered yet (connection phase): plain yield. *)
    Usys.yield ()

let handoff_any (s : t) =
  emit s s.Session.request Ulipc_observe.Event.Handoff;
  Usys.handoff Syscall.To_any

let flow_sleep (_ : t) _ = Usys.sleep (Sim_time.sec 1)

let note_spin_exhausted (s : t) ch =
  emit s ch Ulipc_observe.Event.Spin_exhaust

let counters (s : t) = s.Session.counters
