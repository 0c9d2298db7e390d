type kind =
  | Enqueue
  | Dequeue
  | Block
  | Wake
  | Wake_drain
  | Handoff
  | Spin_exhaust
  | Spawn
  | Exit
  | Switch
  | Preempt
  | Idle
  | Syscall
  | Sleep
  | Msgq_deliver

let is_protocol = function
  | Enqueue | Dequeue | Block | Wake | Wake_drain | Handoff | Spin_exhaust ->
    true
  | Spawn | Exit | Switch | Preempt | Idle | Syscall | Sleep | Msgq_deliver ->
    false

let kind_name = function
  | Enqueue -> "enqueue"
  | Dequeue -> "dequeue"
  | Block -> "block"
  | Wake -> "wake"
  | Wake_drain -> "wake-drain"
  | Handoff -> "handoff"
  | Spin_exhaust -> "spin-exhaust"
  | Spawn -> "spawn"
  | Exit -> "exit"
  | Switch -> "switch"
  | Preempt -> "preempt"
  | Idle -> "idle"
  | Syscall -> "syscall"
  | Sleep -> "sleep"
  | Msgq_deliver -> "msgq-deliver"

(* Dense int codes so allocation-free recorders (Trace_ring) can store a
   kind in a flat int array and rebuild the constructor at drain time. *)
let kind_tag = function
  | Enqueue -> 0
  | Dequeue -> 1
  | Block -> 2
  | Wake -> 3
  | Wake_drain -> 4
  | Handoff -> 5
  | Spin_exhaust -> 6
  | Spawn -> 7
  | Exit -> 8
  | Switch -> 9
  | Preempt -> 10
  | Idle -> 11
  | Syscall -> 12
  | Sleep -> 13
  | Msgq_deliver -> 14

(* In tag order.  A list literal is static data: no allocation at
   module initialisation, which shifts the main domain's minor heap. *)
let kinds =
  [
    Enqueue; Dequeue; Block; Wake; Wake_drain; Handoff; Spin_exhaust; Spawn;
    Exit; Switch; Preempt; Idle; Syscall; Sleep; Msgq_deliver;
  ]

let kind_of_tag n =
  match if n < 0 then None else List.nth_opt kinds n with
  | Some k -> k
  | None -> invalid_arg (Printf.sprintf "Event.kind_of_tag: %d" n)

type t = { t_us : float; actor : int; seq : int; chan : int; kind : kind }

let compare a b =
  let c = Float.compare a.t_us b.t_us in
  if c <> 0 then c
  else
    let c = Int.compare a.actor b.actor in
    if c <> 0 then c else Int.compare a.seq b.seq

(* Cross-process actor namespacing: every fork'd process records with
   [Domain.self () = 0], so merging the children's streams verbatim
   would fuse distinct processes into one actor and break both the
   per-actor sequence order and the analysis' per-consumer state
   machines.  Folding the pid into the high bits keeps the low bits
   recognisable (domain ids are tiny) while making actors unique
   machine-wide; 12 bits of domain id is far above the 128-domain
   runtime cap. *)
let namespace_actor ~pid ev =
  { ev with actor = (pid lsl 12) lor (ev.actor land 0xfff) }

(* What [chan] holds depends on the kind: a channel for the protocol
   kinds, a CPU for the scheduler's, a syscall code for a syscall or the
   sleep it entered, the receiving actor for a message delivery. *)
let pp ?(actor_name = Printf.sprintf "actor %d") ?(syscall_name = string_of_int)
    ppf ev =
  let arg =
    match ev.kind with
    | Enqueue | Dequeue | Block | Wake | Wake_drain | Handoff | Spin_exhaust ->
      Printf.sprintf "chan %d" ev.chan
    | Switch | Preempt | Idle -> Printf.sprintf "cpu %d" ev.chan
    | Syscall | Sleep -> syscall_name ev.chan
    | Msgq_deliver -> "to " ^ actor_name ev.chan
    | Spawn | Exit -> ""
  in
  Format.fprintf ppf "%.3f us  %s #%d  %s%s" ev.t_us (actor_name ev.actor)
    ev.seq (kind_name ev.kind)
    (if arg = "" then "" else " " ^ arg)
