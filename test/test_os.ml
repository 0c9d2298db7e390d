(* Tests for the simulated kernel: scheduling, syscalls, blocking,
   accounting, determinism. *)

open Ulipc_engine
open Ulipc_os

let us = Sim_time.us

let make_kernel ?(ncpus = 1) ?policy ?(costs = Costs.default) () =
  let policy =
    match policy with
    | Some p -> p
    | None -> Sched_fixed.create Sched_fixed.default_params
  in
  Kernel.create ~ncpus ~policy ~costs ()

let check_completed result =
  Alcotest.(check string)
    "run completed" "completed"
    (Format.asprintf "%a" Kernel.pp_result result)

(* ------------------------------------------------------------------ *)
(* Basic execution *)

let test_single_proc_work () =
  let k = make_kernel () in
  let done_ = ref false in
  let p =
    Kernel.spawn k ~name:"worker" (fun () ->
        Usys.work (us 100);
        Usys.work (us 50);
        done_ := true)
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool) "body ran" true !done_;
  Alcotest.(check int) "cpu time" (us 150) p.Proc.cpu_time;
  Alcotest.(check int) "live" 0 (Kernel.live_count k)

let test_spawn_returns_distinct_pids () =
  let k = make_kernel () in
  let a = Kernel.spawn k ~name:"a" (fun () -> ()) in
  let b = Kernel.spawn k ~name:"b" (fun () -> ()) in
  Alcotest.(check bool) "pids differ" true (a.Proc.pid <> b.Proc.pid);
  check_completed (Kernel.run k)

let test_elapsed_includes_switch_cost () =
  let k = make_kernel () in
  let _ = Kernel.spawn k ~name:"w" (fun () -> Usys.work (us 100)) in
  check_completed (Kernel.run k);
  (* initial dispatch pays one context switch (10us default) + 100us work *)
  Alcotest.(check int) "final time" (us 110) (Kernel.now k)

let test_proc_failure_propagates () =
  let k = make_kernel () in
  let _ = Kernel.spawn k ~name:"bad" (fun () -> failwith "boom") in
  match Kernel.run k with
  | exception Kernel.Proc_failure (name, Failure msg) ->
    Alcotest.(check string) "failing process" "bad" name;
    Alcotest.(check string) "original message" "boom" msg
  | exception e -> Alcotest.failf "unexpected exception %s" (Printexc.to_string e)
  | r -> Alcotest.failf "expected failure, got %a" Kernel.pp_result r

(* ------------------------------------------------------------------ *)
(* Yield under fixed round-robin *)

let test_yield_round_robin () =
  let k = make_kernel () in
  let log = ref [] in
  let mk name =
    Kernel.spawn k ~name (fun () ->
        for i = 1 to 3 do
          Usys.work (us 10);
          log := (name, i) :: !log;
          Usys.yield ()
        done)
  in
  let _a = mk "a" and _b = mk "b" in
  check_completed (Kernel.run k);
  let order = List.rev !log in
  Alcotest.(check (list (pair string int)))
    "strict alternation"
    [ ("a", 1); ("b", 1); ("a", 2); ("b", 2); ("a", 3); ("b", 3) ]
    order

let test_yield_alone_returns_to_caller () =
  let k = make_kernel () in
  let p =
    Kernel.spawn k ~name:"solo" (fun () ->
        for _ = 1 to 5 do
          Usys.yield ()
        done)
  in
  check_completed (Kernel.run k);
  (* No other process: the yields never produce a context switch. *)
  Alcotest.(check int) "no voluntary switches" 0 p.Proc.vcsw

let test_yield_switch_counts_voluntary () =
  let k = make_kernel () in
  let body () =
    for _ = 1 to 4 do
      Usys.work (us 1);
      Usys.yield ()
    done
  in
  let a = Kernel.spawn k ~name:"a" body in
  let _b = Kernel.spawn k ~name:"b" body in
  check_completed (Kernel.run k);
  (* Every yield hands off under round-robin (until the peer dies). *)
  Alcotest.(check bool)
    (Printf.sprintf "a.vcsw = %d >= 3" a.Proc.vcsw)
    true (a.Proc.vcsw >= 3)

(* ------------------------------------------------------------------ *)
(* Semaphores *)

let test_sem_p_nonblocking_when_positive () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:2 in
  let _ =
    Kernel.spawn k ~name:"taker" (fun () ->
        Usys.sem_p sem;
        Usys.sem_p sem)
  in
  check_completed (Kernel.run k);
  Alcotest.(check int) "count drained" 0 (Kernel.sem_value k sem)

let test_sem_blocks_and_wakes () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let got = ref Sim_time.zero in
  let waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        Usys.sem_p sem;
        got := Usys.time ())
  in
  let _poster =
    Kernel.spawn k ~name:"poster" (fun () ->
        Usys.work (us 500);
        Usys.sem_v sem)
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool) "woke after the V" true (!got >= us 500);
  Alcotest.(check bool) "block was voluntary" true (waiter.Proc.vcsw >= 1)

let test_sem_v_accumulates () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let _ =
    Kernel.spawn k ~name:"poster" (fun () ->
        for _ = 1 to 5 do
          Usys.sem_v sem
        done)
  in
  check_completed (Kernel.run k);
  Alcotest.(check int) "count accumulated" 5 (Kernel.sem_value k sem)

let test_sem_v_does_not_reschedule () =
  (* The §3.1 behaviour: V readies the waiter but the caller keeps the
     CPU, so work after the V happens before the waiter's work. *)
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let log = ref [] in
  let _waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        Usys.sem_p sem;
        log := "waiter" :: !log)
  in
  let _poster =
    Kernel.spawn k ~name:"poster" (fun () ->
        Usys.work (us 10);
        Usys.sem_v sem;
        Usys.work (us 10);
        log := "poster" :: !log)
  in
  check_completed (Kernel.run k);
  Alcotest.(check (list string))
    "poster finished first" [ "poster"; "waiter" ] (List.rev !log)

let test_sem_wakes_fifo () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let order = ref [] in
  let waiter name =
    ignore
      (Kernel.spawn k ~name (fun () ->
           Usys.sem_p sem;
           order := name :: !order))
  in
  waiter "w1";
  waiter "w2";
  waiter "w3";
  let _ =
    Kernel.spawn k ~name:"poster" (fun () ->
        Usys.work (us 100);
        for _ = 1 to 3 do
          Usys.sem_v sem
        done)
  in
  check_completed (Kernel.run k);
  Alcotest.(check (list string)) "fifo wakeups" [ "w1"; "w2"; "w3" ]
    (List.rev !order)

let test_sem_value_syscall () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:3 in
  let seen = ref (-1) in
  let _ = Kernel.spawn k ~name:"r" (fun () -> seen := Usys.sem_value sem) in
  check_completed (Kernel.run k);
  Alcotest.(check int) "value" 3 !seen

(* ------------------------------------------------------------------ *)
(* Sleep *)

let test_sleep_duration () =
  let k = make_kernel () in
  let woke = ref Sim_time.zero in
  let _ =
    Kernel.spawn k ~name:"sleeper" (fun () ->
        Usys.sleep (Sim_time.ms 5);
        woke := Usys.time ())
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool)
    (Format.asprintf "woke at %a >= 5ms" Sim_time.pp !woke)
    true
    (!woke >= Sim_time.ms 5)

let test_sleepers_wake_in_order () =
  let k = make_kernel () in
  let order = ref [] in
  let sleeper name d =
    ignore
      (Kernel.spawn k ~name (fun () ->
           Usys.sleep d;
           order := name :: !order))
  in
  sleeper "late" (Sim_time.ms 10);
  sleeper "early" (Sim_time.ms 1);
  sleeper "mid" (Sim_time.ms 5);
  check_completed (Kernel.run k);
  Alcotest.(check (list string))
    "wake order" [ "early"; "mid"; "late" ] (List.rev !order)

(* ------------------------------------------------------------------ *)
(* Message queues *)

let univ_int : (int -> Univ.t) * (Univ.t -> int option) = Univ.embed ()

let test_msgq_send_receive () =
  let inj, proj = univ_int in
  let k = make_kernel () in
  let q = Kernel.new_msgq k ~capacity:8 in
  let got = ref [] in
  let _rcv =
    Kernel.spawn k ~name:"rcv" (fun () ->
        for _ = 1 to 3 do
          match proj (Usys.msgrcv q ~mtype:0) with
          | Some v -> got := v :: !got
          | None -> Alcotest.fail "wrong payload brand"
        done)
  in
  let _snd =
    Kernel.spawn k ~name:"snd" (fun () ->
        List.iter (fun v -> Usys.msgsnd q ~mtype:1 (inj v)) [ 10; 20; 30 ])
  in
  check_completed (Kernel.run k);
  Alcotest.(check (list int)) "fifo payloads" [ 10; 20; 30 ] (List.rev !got)

let test_msgq_mtype_selection () =
  let inj, proj = univ_int in
  let k = make_kernel () in
  let q = Kernel.new_msgq k ~capacity:8 in
  let got = ref [] in
  let _snd =
    Kernel.spawn k ~name:"snd" (fun () ->
        Usys.msgsnd q ~mtype:7 (inj 70);
        Usys.msgsnd q ~mtype:3 (inj 30);
        Usys.msgsnd q ~mtype:7 (inj 71))
  in
  let _rcv =
    Kernel.spawn k ~name:"rcv" (fun () ->
        let take mtype =
          match proj (Usys.msgrcv q ~mtype) with
          | Some v -> got := v :: !got
          | None -> Alcotest.fail "wrong brand"
        in
        take 3;
        take 7;
        take 7)
  in
  check_completed (Kernel.run k);
  Alcotest.(check (list int)) "selected by type" [ 30; 70; 71 ] (List.rev !got)

let test_msgq_full_blocks_sender () =
  let inj, _ = univ_int in
  let k = make_kernel () in
  let q = Kernel.new_msgq k ~capacity:2 in
  let sent = ref 0 in
  let snd =
    Kernel.spawn k ~name:"snd" (fun () ->
        for i = 1 to 4 do
          Usys.msgsnd q ~mtype:1 (inj i);
          sent := i
        done)
  in
  let _rcv =
    Kernel.spawn k ~name:"rcv" (fun () ->
        Usys.sleep (Sim_time.ms 1);
        for _ = 1 to 4 do
          ignore (Usys.msgrcv q ~mtype:0)
        done)
  in
  check_completed (Kernel.run k);
  Alcotest.(check int) "all sent" 4 !sent;
  Alcotest.(check bool) "sender blocked at least once" true (snd.Proc.vcsw >= 1);
  Alcotest.(check int) "queue drained" 0 (Kernel.msgq_length k q)

let test_msgq_rcv_blocks_until_send () =
  let inj, proj = univ_int in
  let k = make_kernel () in
  let q = Kernel.new_msgq k ~capacity:4 in
  let got = ref 0 in
  let rcv =
    Kernel.spawn k ~name:"rcv" (fun () ->
        match proj (Usys.msgrcv q ~mtype:0) with
        | Some v -> got := v
        | None -> Alcotest.fail "wrong brand")
  in
  let _snd =
    Kernel.spawn k ~name:"snd" (fun () ->
        Usys.work (us 300);
        Usys.msgsnd q ~mtype:1 (inj 99))
  in
  check_completed (Kernel.run k);
  Alcotest.(check int) "received" 99 !got;
  Alcotest.(check bool) "receiver blocked" true (rcv.Proc.vcsw >= 1)

(* ------------------------------------------------------------------ *)
(* Termination conditions *)

let test_deadlock_detection () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let _ = Kernel.spawn k ~name:"stuck" (fun () -> Usys.sem_p sem) in
  match Kernel.run k with
  | Kernel.Deadlock [ p ] ->
    Alcotest.(check string) "blocked proc" "stuck" p.Proc.name
  | r -> Alcotest.failf "expected deadlock, got %a" Kernel.pp_result r

let test_time_limit () =
  let k = make_kernel () in
  let _ =
    Kernel.spawn k ~name:"spinner" (fun () ->
        while true do
          Usys.yield ()
        done)
  in
  match Kernel.run ~until:(Sim_time.ms 10) k with
  | Kernel.Time_limit ->
    Alcotest.(check bool) "time advanced" true (Kernel.now k >= Sim_time.ms 9)
  | r -> Alcotest.failf "expected time limit, got %a" Kernel.pp_result r

let test_step_limit () =
  let k =
    Kernel.create ~max_steps:1000 ~ncpus:1
      ~policy:(Sched_fixed.create Sched_fixed.default_params)
      ~costs:Costs.default ()
  in
  let _ =
    Kernel.spawn k ~name:"spinner" (fun () ->
        while true do
          Usys.work (us 1)
        done)
  in
  match Kernel.run k with
  | Kernel.Step_limit -> ()
  | r -> Alcotest.failf "expected step limit, got %a" Kernel.pp_result r

(* ------------------------------------------------------------------ *)
(* Multiprocessor *)

let test_two_cpus_run_in_parallel () =
  let k = make_kernel ~ncpus:2 () in
  let body () = Usys.work (Sim_time.ms 1) in
  let _ = Kernel.spawn k ~name:"w1" body in
  let _ = Kernel.spawn k ~name:"w2" body in
  check_completed (Kernel.run k);
  Alcotest.(check bool)
    (Format.asprintf "parallel elapsed %a < 1.5ms" Sim_time.pp (Kernel.now k))
    true
    (Kernel.now k < Sim_time.ms 1 + Sim_time.us 500)

let test_idle_cpu_picks_up_woken_proc () =
  let k = make_kernel ~ncpus:2 () in
  let sem = Kernel.new_sem k ~init:0 in
  let woke = ref Sim_time.zero in
  let _waiter =
    Kernel.spawn k ~name:"waiter" (fun () ->
        Usys.sem_p sem;
        woke := Usys.time ())
  in
  let _poster =
    Kernel.spawn k ~name:"poster" (fun () ->
        Usys.work (us 100);
        Usys.sem_v sem;
        (* keeps running: the waiter must proceed on the other CPU *)
        Usys.work (Sim_time.ms 5))
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool)
    (Format.asprintf "waiter resumed at %a, before poster finished" Sim_time.pp
       !woke)
    true
    (!woke > us 100 && !woke < Sim_time.ms 2)

(* ------------------------------------------------------------------ *)
(* Handoff *)

let test_handoff_favors_target () =
  let k = make_kernel () in
  let log = ref [] in
  let spin name =
    Kernel.spawn k ~name (fun () ->
        Usys.work (us 1);
        log := name :: !log)
  in
  (* Three ready processes; the first hands off to the third, jumping the
     FIFO order. *)
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        Usys.work (us 1);
        log := "a" :: !log;
        Usys.handoff (Syscall.To_pid 4);
        log := "a2" :: !log)
  in
  let _b = spin "b" in
  let _c = spin "c" in
  let d = spin "d" in
  Alcotest.(check int) "pid of d" 4 d.Proc.pid;
  check_completed (Kernel.run k);
  let order = List.rev !log in
  Alcotest.(check (list string))
    "d jumped the queue" [ "a"; "d"; "b"; "c"; "a2" ] order

let test_handoff_any_avoids_caller () =
  let k = make_kernel () in
  let log = ref [] in
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        log := "a1" :: !log;
        Usys.handoff Syscall.To_any;
        log := "a2" :: !log)
  in
  let _b = Kernel.spawn k ~name:"b" (fun () -> log := "b" :: !log) in
  check_completed (Kernel.run k);
  Alcotest.(check (list string)) "b ran in between" [ "a1"; "b"; "a2" ]
    (List.rev !log)

(* ------------------------------------------------------------------ *)
(* Policies: decay and Linux behaviours *)

let test_decay_policy_fairness () =
  let policy = Sched_decay.create Sched_decay.default_params in
  let k = make_kernel ~policy () in
  let a_count = ref 0 and b_count = ref 0 in
  let spin counter =
    for _ = 1 to 2000 do
      Usys.work (us 10);
      incr counter
    done
  in
  let _a = Kernel.spawn k ~name:"a" (fun () -> spin a_count) in
  let _b = Kernel.spawn k ~name:"b" (fun () -> spin b_count) in
  check_completed (Kernel.run k);
  Alcotest.(check int) "a finished" 2000 !a_count;
  Alcotest.(check int) "b finished" 2000 !b_count

let test_decay_yield_can_return_to_caller () =
  (* With degrading priorities, a fresh yield need not switch: the caller
     may still have the best priority (the §2.2 phenomenon). *)
  let policy = Sched_decay.create Sched_decay.default_params in
  let k = make_kernel ~policy () in
  let switches = ref 0 in
  let yields = 50 in
  let spin name =
    ignore
      (Kernel.spawn k ~name (fun () ->
           for _ = 1 to yields do
             Usys.work (us 2);
             Usys.yield ()
           done))
  in
  spin "a";
  spin "b";
  check_completed (Kernel.run k);
  List.iter (fun p -> switches := !switches + p.Proc.vcsw) (Kernel.procs k);
  Alcotest.(check bool)
    (Printf.sprintf "switches %d < total yields %d" !switches (2 * yields))
    true
    (!switches < 2 * yields)

let test_linux_unmodified_yield_starves () =
  (* Stock Linux 1.0: yield between equal spinners returns to the caller
     until a whole timer tick is accounted. *)
  let policy = Sched_linux.create Sched_linux.default_params in
  let k = make_kernel ~policy () in
  let first_switch = ref Sim_time.zero in
  let other_ran = ref false in
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        while not !other_ran do
          Usys.work (us 5);
          Usys.yield ()
        done)
  in
  let _b =
    Kernel.spawn k ~name:"b" (fun () ->
        other_ran := true;
        first_switch := Usys.time ())
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool)
    (Format.asprintf "first switch at %a, tick-scale" Sim_time.pp !first_switch)
    true
    (!first_switch >= Sim_time.ms 5)

let test_linux_modified_yield_switches_fast () =
  let policy =
    Sched_linux.create { Sched_linux.default_params with modified_yield = true }
  in
  let k = make_kernel ~policy () in
  let first_switch = ref Sim_time.zero in
  let other_ran = ref false in
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        while not !other_ran do
          Usys.work (us 5);
          Usys.yield ()
        done)
  in
  let _b =
    Kernel.spawn k ~name:"b" (fun () ->
        other_ran := true;
        first_switch := Usys.time ())
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool)
    (Format.asprintf "first switch at %a, microsecond-scale" Sim_time.pp
       !first_switch)
    true
    (!first_switch < Sim_time.ms 1)

(* ------------------------------------------------------------------ *)
(* Fixed-priority syscall *)

let test_set_fixed_priority_support () =
  let k = make_kernel ~policy:(Sched_decay.create Sched_decay.default_params) () in
  let supported = ref false in
  let _ =
    Kernel.spawn k ~name:"p" (fun () ->
        supported := Usys.set_fixed_priority true)
  in
  check_completed (Kernel.run k);
  Alcotest.(check bool) "decay supports fixed" true !supported;
  let kl = make_kernel ~policy:(Sched_linux.create Sched_linux.default_params) () in
  let supported_l = ref true in
  let _ =
    Kernel.spawn kl ~name:"p" (fun () ->
        supported_l := Usys.set_fixed_priority true)
  in
  check_completed (Kernel.run kl);
  Alcotest.(check bool) "linux 1.0 does not" false !supported_l

(* ------------------------------------------------------------------ *)
(* Accounting and determinism *)

let test_usage_snapshot () =
  let k = make_kernel () in
  let sem = Kernel.new_sem k ~init:0 in
  let usage = ref None in
  let _w =
    Kernel.spawn k ~name:"w" (fun () ->
        Usys.work (us 100);
        Usys.sem_p sem;
        usage := Some (Usys.usage ()))
  in
  let _p =
    Kernel.spawn k ~name:"p" (fun () ->
        Usys.work (us 10);
        Usys.sem_v sem)
  in
  check_completed (Kernel.run k);
  match !usage with
  | None -> Alcotest.fail "no usage recorded"
  | Some u ->
    Alcotest.(check bool) "cpu time counted" true (u.Syscall.cpu_time >= us 100);
    Alcotest.(check bool) "syscalls counted" true (u.Syscall.syscalls >= 2);
    Alcotest.(check bool)
      "block counted voluntary" true
      (u.Syscall.voluntary_switches >= 1)

let run_ping_pong seed =
  let policy = Sched_decay.create Sched_decay.default_params in
  let k = make_kernel ~policy () in
  let sem_a = Kernel.new_sem k ~init:0 in
  let sem_b = Kernel.new_sem k ~init:0 in
  ignore seed;
  let _a =
    Kernel.spawn k ~name:"a" (fun () ->
        for _ = 1 to 100 do
          Usys.sem_v sem_b;
          Usys.sem_p sem_a
        done)
  in
  let _b =
    Kernel.spawn k ~name:"b" (fun () ->
        for _ = 1 to 100 do
          Usys.sem_p sem_b;
          Usys.sem_v sem_a
        done)
  in
  (match Kernel.run k with
  | Kernel.Completed -> ()
  | r -> Alcotest.failf "ping-pong did not complete: %a" Kernel.pp_result r);
  Kernel.now k

let test_determinism () =
  let t1 = run_ping_pong 0 and t2 = run_ping_pong 0 in
  Alcotest.(check int) "identical final times" t1 t2

(* The kernel's events land in the event ring with the pid as actor
   and simulated time as stamp, and recording them costs nothing: the
   run ends at the same instant with and without a ring. *)
let test_trace_records_switches () =
  let module Event = Ulipc_observe.Event in
  let run events =
    let policy = Sched_fixed.create Sched_fixed.default_params in
    let k = Kernel.create ?events ~ncpus:1 ~policy ~costs:Costs.default () in
    let body () =
      Usys.work (us 1);
      Usys.yield ();
      Usys.sem_v 0;
      Usys.work (us 1)
    in
    ignore (Kernel.new_sem k ~init:0 : Syscall.sem_id);
    let a = Kernel.spawn k ~name:"a" body in
    let b = Kernel.spawn k ~name:"b" body in
    check_completed (Kernel.run k);
    (Kernel.now k, a.Proc.pid, b.Proc.pid)
  in
  let ring = Ulipc_observe.Trace_ring.create () in
  let traced_end, a, b = run (Some ring) in
  let untraced_end, _, _ = run None in
  Alcotest.(check int) "recording is uncharged" untraced_end traced_end;
  let events = Ulipc_observe.Trace_ring.events ring in
  let count kind =
    List.length (List.filter (fun e -> e.Event.kind = kind) events)
  in
  Alcotest.(check bool) "switch events" true (count Event.Switch >= 2);
  Alcotest.(check int) "two yields and two Vs" 4 (count Event.Syscall);
  Alcotest.(check int) "spawns" 2 (count Event.Spawn);
  Alcotest.(check int) "exits" 2 (count Event.Exit);
  Alcotest.(check (list string)) "a's calls, in order"
    [ "yield"; "sem_v" ]
    (List.filter_map
       (fun e ->
         if e.Event.actor = a && e.Event.kind = Event.Syscall then
           Some (Syscall.name_of_code e.Event.chan)
         else None)
       events);
  Alcotest.(check bool) "only procs and the idle kernel record" true
    (List.for_all
       (fun e -> List.mem e.Event.actor [ 0; a; b ])
       events);
  let r = Ulipc_observe.Trace_analysis.analyse events in
  Alcotest.(check int) "per-actor sequences and clocks clean" 0
    (List.length r.Ulipc_observe.Trace_analysis.violations)

(* ------------------------------------------------------------------ *)
(* Ready_set *)

let mk_proc name = Proc.make ~pid:0 ~name ~body:(fun () -> ())

let test_ready_set_fifo () =
  let rs = Ready_set.create () in
  let a = mk_proc "a" and b = mk_proc "b" and c = mk_proc "c" in
  Ready_set.add rs a;
  Ready_set.add rs b;
  Ready_set.add rs c;
  Alcotest.(check int) "count" 3 (Ready_set.count rs);
  Alcotest.(check (option string))
    "first out" (Some "a")
    (Option.map (fun p -> p.Proc.name) (Ready_set.take_first rs));
  Alcotest.(check bool) "a gone" false (Ready_set.mem rs a)

let test_ready_set_best_with_ties () =
  let rs = Ready_set.create () in
  let a = mk_proc "a" and b = mk_proc "b" in
  a.Proc.usage <- 5.0;
  b.Proc.usage <- 5.0;
  Ready_set.add rs a;
  Ready_set.add rs b;
  let best = Ready_set.take_best rs ~score:(fun p -> p.Proc.usage) in
  Alcotest.(check (option string))
    "fifo tie-break" (Some "a")
    (Option.map (fun p -> p.Proc.name) best)

let test_ready_set_excluding () =
  let rs = Ready_set.create () in
  let a = mk_proc "a" and b = mk_proc "b" in
  Ready_set.add rs a;
  Ready_set.add rs b;
  let got = Ready_set.take_best_excluding rs ~score:(fun _ -> 0.0) a in
  Alcotest.(check (option string))
    "skips excluded" (Some "b")
    (Option.map (fun p -> p.Proc.name) got);
  (* Now only [a] remains: exclusion cannot be honoured. *)
  Ready_set.add rs b;
  ignore (Ready_set.remove rs b : bool);
  let got2 = Ready_set.take_best_excluding rs ~score:(fun _ -> 0.0) a in
  Alcotest.(check (option string))
    "falls back to excluded when alone" (Some "a")
    (Option.map (fun p -> p.Proc.name) got2)

let test_ready_set_double_add_rejected () =
  let rs = Ready_set.create () in
  let a = mk_proc "a" in
  Ready_set.add rs a;
  Alcotest.check_raises "double add"
    (Invalid_argument "Ready_set.add: process already queued") (fun () ->
      Ready_set.add rs a)

let suites =
  [
    ( "os.kernel.basics",
      [
        Alcotest.test_case "single process work" `Quick test_single_proc_work;
        Alcotest.test_case "distinct pids" `Quick test_spawn_returns_distinct_pids;
        Alcotest.test_case "switch cost in elapsed" `Quick
          test_elapsed_includes_switch_cost;
        Alcotest.test_case "failure propagates" `Quick test_proc_failure_propagates;
      ] );
    ( "os.kernel.yield",
      [
        Alcotest.test_case "round robin alternation" `Quick test_yield_round_robin;
        Alcotest.test_case "solo yield returns to caller" `Quick
          test_yield_alone_returns_to_caller;
        Alcotest.test_case "yield switches count voluntary" `Quick
          test_yield_switch_counts_voluntary;
      ] );
    ( "os.kernel.semaphores",
      [
        Alcotest.test_case "P without blocking" `Quick
          test_sem_p_nonblocking_when_positive;
        Alcotest.test_case "P blocks, V wakes" `Quick test_sem_blocks_and_wakes;
        Alcotest.test_case "V accumulates" `Quick test_sem_v_accumulates;
        Alcotest.test_case "V does not reschedule" `Quick
          test_sem_v_does_not_reschedule;
        Alcotest.test_case "FIFO wakeups" `Quick test_sem_wakes_fifo;
        Alcotest.test_case "semvalue" `Quick test_sem_value_syscall;
      ] );
    ( "os.kernel.sleep",
      [
        Alcotest.test_case "sleep duration" `Quick test_sleep_duration;
        Alcotest.test_case "wake ordering" `Quick test_sleepers_wake_in_order;
      ] );
    ( "os.kernel.msgq",
      [
        Alcotest.test_case "send/receive fifo" `Quick test_msgq_send_receive;
        Alcotest.test_case "mtype selection" `Quick test_msgq_mtype_selection;
        Alcotest.test_case "full queue blocks sender" `Quick
          test_msgq_full_blocks_sender;
        Alcotest.test_case "empty queue blocks receiver" `Quick
          test_msgq_rcv_blocks_until_send;
      ] );
    ( "os.kernel.termination",
      [
        Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
        Alcotest.test_case "time limit" `Quick test_time_limit;
        Alcotest.test_case "step limit" `Quick test_step_limit;
      ] );
    ( "os.kernel.mp",
      [
        Alcotest.test_case "two cpus in parallel" `Quick
          test_two_cpus_run_in_parallel;
        Alcotest.test_case "idle cpu picks up wake" `Quick
          test_idle_cpu_picks_up_woken_proc;
      ] );
    ( "os.kernel.handoff",
      [
        Alcotest.test_case "favor target" `Quick test_handoff_favors_target;
        Alcotest.test_case "any avoids caller" `Quick test_handoff_any_avoids_caller;
      ] );
    ( "os.policies",
      [
        Alcotest.test_case "decay fairness" `Quick test_decay_policy_fairness;
        Alcotest.test_case "decay yield may return to caller" `Quick
          test_decay_yield_can_return_to_caller;
        Alcotest.test_case "linux stock yield starves" `Quick
          test_linux_unmodified_yield_starves;
        Alcotest.test_case "linux modified yield switches" `Quick
          test_linux_modified_yield_switches_fast;
        Alcotest.test_case "fixed-priority support" `Quick
          test_set_fixed_priority_support;
      ] );
    ( "os.accounting",
      [
        Alcotest.test_case "usage snapshot" `Quick test_usage_snapshot;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "trace records" `Quick test_trace_records_switches;
      ] );
    ( "os.ready_set",
      [
        Alcotest.test_case "fifo" `Quick test_ready_set_fifo;
        Alcotest.test_case "best with ties" `Quick test_ready_set_best_with_ties;
        Alcotest.test_case "excluding" `Quick test_ready_set_excluding;
        Alcotest.test_case "double add rejected" `Quick
          test_ready_set_double_add_rejected;
      ] );
  ]
