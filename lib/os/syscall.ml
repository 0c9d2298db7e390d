type pid = int
type sem_id = int
type msq_id = int

type handoff_target = To_pid of pid | To_self | To_any

type usage = {
  voluntary_switches : int;
  involuntary_switches : int;
  cpu_time : Ulipc_engine.Sim_time.t;
  syscalls : int;
}

type _ t =
  | Yield : unit t
  | Handoff : handoff_target -> unit t
  | Sem_p : sem_id -> unit t
  | Sem_v : sem_id -> unit t
  | Sem_value : sem_id -> int t
  | Msg_snd : msq_id * int * Ulipc_engine.Univ.t -> unit t
  | Msg_rcv : msq_id * int -> Ulipc_engine.Univ.t t
  | Sleep : Ulipc_engine.Sim_time.t -> unit t
  | Get_time : Ulipc_engine.Sim_time.t t
  | Get_usage : usage t
  | Set_fixed_priority : bool -> bool t
  | Get_pid : pid t

(* Dense codes, so an event ring can store which call was made in an
   int; the arguments are not recorded.  The names are in code order, a
   list so that they are static data. *)
let names =
  [
    "yield"; "handoff"; "sem_p"; "sem_v"; "sem_value"; "msgsnd"; "msgrcv";
    "sleep"; "gettime"; "getrusage"; "setfixedprio"; "getpid";
  ]

let code (type a) (req : a t) =
  match req with
  | Yield -> 0
  | Handoff _ -> 1
  | Sem_p _ -> 2
  | Sem_v _ -> 3
  | Sem_value _ -> 4
  | Msg_snd _ -> 5
  | Msg_rcv _ -> 6
  | Sleep _ -> 7
  | Get_time -> 8
  | Get_usage -> 9
  | Set_fixed_priority _ -> 10
  | Get_pid -> 11

let name_of_code c =
  match if c < 0 then None else List.nth_opt names c with
  | Some name -> name
  | None -> Printf.sprintf "syscall %d" c
