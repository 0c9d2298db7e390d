(* The semaphore cases that run both in one process and across fork:
   counting, pending and blocking V/P, [try_p], the (count, flag) model,
   flag writes racing V/P, wakes from a peer, and the timed P.  {!Rsem}
   keeps every word in a shared arena mapping, so the same cases hold
   whether the peer is a domain or a fork'd process.  Each case takes
   its peers as parameters:

   - [~spawn f] starts a peer running [f] and returns the function that
     waits for it (and fails the case if [f] failed);
   - [~within ~timeout_s what f] runs [f] (the whole case but the
     model) and fails the case, instead of hanging, unless [f]
     completes within [timeout_s];
   - [?run f] runs one model operation [f] and returns its result:
     in-process it calls [f], the fork'd suite runs it in a fresh child,
     so a semaphore that kept its state in the OCaml heap (copied at
     fork, lost with the child) fails the model there.

   Every semaphore here comes from {!Rsem.create}, whose own arena is a
   [MAP_SHARED] mapping that fork'd children share, and peers signal
   each other through words of a small shared "board" arena.  This
   module is linked into both test binaries, so it spawns neither
   domains nor processes itself. *)

open Ulipc_real

let in_process f = f ()

(* A few board words, each on a line of its own. *)
let board () =
  Word_arena.create ~size_words:(16 * Word_arena.cache_line_words) ()

let cell i = i * Word_arena.cache_line_words

let rec until pred =
  if not (pred ()) then begin
    Grace.sched_yield ();
    until pred
  end

let counting ~spawn () =
  let s = Rsem.create 2 in
  Rsem.p s;
  Rsem.p s;
  Alcotest.(check int) "drained" 0 (Rsem.value s);
  (spawn (fun () ->
       Rsem.v s;
       Rsem.v s;
       Rsem.v s))
    ();
  Alcotest.(check int) "accumulates" 3 (Rsem.value s)

(* Interleaving 1 of the paper: a V posted before the P must remain
   pending.  If it did not, this case would hang. *)
let pending_v ~spawn () =
  let s = Rsem.create 0 in
  (spawn (fun () -> Rsem.v s)) ();
  Rsem.p s;
  Alcotest.(check int) "consumed" 0 (Rsem.value s)

let blocks_until_v ~spawn () =
  let s = Rsem.create 0 and b = board () in
  let join =
    spawn (fun () ->
        Rsem.p s;
        Word_arena.at_store b (cell 0) 1)
  in
  (* Give the waiter a chance to block, then wake it. *)
  Unix.sleepf 0.02;
  Alcotest.(check int) "still blocked" 0 (Word_arena.at_load b (cell 0));
  Rsem.v s;
  join ();
  Alcotest.(check int) "woke after V" 1 (Word_arena.at_load b (cell 0))

let try_p_counting ~spawn () =
  let s = Rsem.create 2 in
  Alcotest.(check bool) "takes 1st" true (Rsem.try_p s);
  Alcotest.(check bool) "takes 2nd" true (Rsem.try_p s);
  Alcotest.(check bool) "refuses on zero" false (Rsem.try_p s);
  Alcotest.(check int) "count untouched by refusal" 0 (Rsem.value s);
  (spawn (fun () -> Rsem.v s)) ();
  Alcotest.(check bool) "takes after V" true (Rsem.try_p s)

(* The folded word ([2*count + flag]) against a [(count, flag)] model:
   each operation's own result must match, and after every step [value]
   is the model count — never showing the flag — and [flag_get] the
   model flag.  A [P] runs only on a positive model count; on zero it
   would wait for a V nobody posts. *)
type op = V | Try_p | P | Flag_tas | Flag_clear | Flag_set | Flag_get

let op_name = function
  | V -> "v"
  | Try_p -> "try_p"
  | P -> "p"
  | Flag_tas -> "flag_test_and_set"
  | Flag_clear -> "flag_clear"
  | Flag_set -> "flag_set"
  | Flag_get -> "flag_get"

(* The operation's observable result; [true] for the unit ones. *)
let apply s = function
  | V ->
    Rsem.v s;
    true
  | Try_p -> Rsem.try_p s
  | P ->
    Rsem.p s;
    true
  | Flag_tas -> Rsem.flag_test_and_set s
  | Flag_clear ->
    Rsem.flag_clear s;
    true
  | Flag_set ->
    Rsem.flag_set s;
    true
  | Flag_get -> Rsem.flag_get s

let prop_flag_model ~count ~run ~program =
  let op =
    QCheck.Gen.(
      frequency
        [
          (5, return V);
          (3, return Try_p);
          (3, return P);
          (2, return Flag_tas);
          (2, return Flag_clear);
          (1, return Flag_set);
          (1, return Flag_get);
        ])
  in
  let arb =
    QCheck.make
      QCheck.Gen.(pair (int_bound 3) (program op))
      ~print:(fun (init, ops) ->
        Printf.sprintf "create %d; %s" init
          (String.concat "; " (List.map op_name ops)))
  in
  QCheck.Test.make ~name:"Rsem count and flag bit match a (count, flag) model"
    ~count arb (fun (init, ops) ->
      let s = Rsem.create init in
      let count = ref init and flag = ref false in
      let expect = function
        | V ->
          incr count;
          true
        | Try_p ->
          let ok = !count > 0 in
          if ok then decr count;
          ok
        | P ->
          decr count;
          true
        | Flag_tas ->
          let was = !flag in
          flag := true;
          was
        | Flag_clear ->
          flag := false;
          true
        | Flag_set ->
          flag := true;
          true
        | Flag_get -> !flag
      in
      List.for_all
        (fun op ->
          ((op = P && !count = 0) || run (fun () -> apply s op) = expect op)
          && Rsem.value s = !count
          && Rsem.flag_get s = !flag)
        ops)

(* Two peers on one word: the toggler writes the flag (test-and-set,
   clear, set in turn) and posts one credit after each write; the taker
   takes each credit with a P and, every fourth round, runs a V/try_p
   pair of its own.  [~spin:0] makes every P that finds no credit commit
   at once, so flag CASes also land while the count is negative and the
   taker is parked.  No flag write may add or eat a credit and no V or
   P may change the flag: at quiescence the count is 0, every park was
   granted, and the flag is the toggler's last write. *)
let flag_vs_credits ~spawn () =
  let s = Rsem.create ~spin:0 0 and b = board () in
  let rounds = 20_000 in
  let toggler =
    spawn (fun () ->
        for i = 1 to rounds do
          (match i mod 3 with
          | 0 -> ignore (Rsem.flag_test_and_set s : bool)
          | 1 -> Rsem.flag_clear s
          | _ -> Rsem.flag_set s);
          Rsem.v s
        done)
  in
  let taker =
    spawn (fun () ->
        for i = 1 to rounds do
          Rsem.p s;
          if i mod 4 = 0 then begin
            Rsem.v s;
            if not (Rsem.try_p s) then
              ignore (Word_arena.at_fetch_add b (cell 0) 1 : int)
          end
        done)
  in
  toggler ();
  taker ();
  Alcotest.(check int) "own V always taken back by try_p" 0
    (Word_arena.at_load b (cell 0));
  Alcotest.(check int) "credits balance" 0 (Rsem.value s);
  Alcotest.(check int) "nobody parked" 0 (Rsem.parked s);
  Alcotest.(check int) "every park granted" (Rsem.parks s) (Rsem.grants s);
  Alcotest.(check bool) "flag is the last write" (rounds mod 3 <> 1)
    (Rsem.flag_get s)

(* The same rule without parking, at full contention: one peer writes
   the flag in a tight loop while the other posts a credit and takes it
   straight back, so both hammer the count word's line.  A flag write
   that is a load and a store rather than one locked RMW lets a V or a
   try_p land in between and be overwritten: a credit is lost (a try_p
   misses its own V) or comes back (the count ends positive). *)
let flag_vs_try_p ~spawn () =
  let s = Rsem.create 0 and b = board () in
  let rounds = 1_000_000 in
  (* Both peers start together, so the loops overlap. *)
  let start () =
    ignore (Word_arena.at_fetch_add b (cell 1) 1 : int);
    until (fun () -> Word_arena.at_load b (cell 1) = 2)
  in
  let toggler =
    spawn (fun () ->
        start ();
        for i = 1 to rounds do
          match i mod 3 with
          | 0 -> ignore (Rsem.flag_test_and_set s : bool)
          | 1 -> Rsem.flag_clear s
          | _ -> Rsem.flag_set s
        done)
  in
  let poster =
    spawn (fun () ->
        start ();
        for _ = 1 to rounds do
          Rsem.v s;
          if not (Rsem.try_p s) then
            ignore (Word_arena.at_fetch_add b (cell 0) 1 : int)
        done)
  in
  toggler ();
  poster ();
  Alcotest.(check int) "own V always taken back by try_p" 0
    (Word_arena.at_load b (cell 0));
  Alcotest.(check int) "credits balance" 0 (Rsem.value s);
  Alcotest.(check bool) "flag is the last write" (rounds mod 3 <> 1)
    (Rsem.flag_get s)

(* The peer's Vs must wake every blocking P issued here — across the
   process boundary too, through the kernel when the grace misses. *)
let wakes_from_peer ~spawn () =
  let s = Rsem.create 0 in
  let n = 50 in
  let join =
    spawn (fun () ->
        for _ = 1 to n do
          Rsem.v s
        done)
  in
  for _ = 1 to n do
    Rsem.p s
  done;
  join ();
  Alcotest.(check int) "all credits consumed" 0 (Rsem.value s)

let p_timed_expires () =
  let s = Rsem.create 0 in
  let t0 = Ulipc_observe.Clock.now_ns () in
  let got = Rsem.p_timed s ~timeout_ns:20_000_000 in
  let elapsed = Ulipc_observe.Clock.now_ns () - t0 in
  Alcotest.(check bool) "timed out without credit" false got;
  Alcotest.(check bool)
    (Printf.sprintf "waited at least ~20ms (%dns)" elapsed)
    true
    (elapsed >= 15_000_000);
  (* And with a credit available it returns immediately. *)
  Rsem.v s;
  Alcotest.(check bool) "credit claims instantly" true
    (Rsem.p_timed s ~timeout_ns:20_000_000)

let p_timed_woken ~spawn () =
  let s = Rsem.create 0 in
  let join =
    spawn (fun () ->
        Unix.sleepf 0.02;
        Rsem.v s)
  in
  Alcotest.(check bool) "woken well before the 5s timeout" true
    (Rsem.p_timed s ~timeout_ns:5_000_000_000);
  join ()

(* A timed P that gives up must leave nothing behind: a waiter that
   took a park ticket and left would strand the grant meant for it, so
   the untimed P after the next V would park on a slot nobody grants
   (or a later waiter would).  Then three waiters park one at a time
   (waiter [i] only once [i] are parked, so ticket order is [0, 1, 2])
   and must be released in that order, one per V. *)
let timed_p_strands_no_grant ~spawn () =
  let s = Rsem.create ~spin:0 0 and b = board () in
  Alcotest.(check bool) "the timed P expires" false
    (Rsem.p_timed s ~timeout_ns:5_000_000);
  Rsem.v s;
  Rsem.p s;
  let waiters =
    List.init 3 (fun i ->
        spawn (fun () ->
            until (fun () -> Rsem.parked s = i);
            Rsem.p s;
            let k = Word_arena.at_fetch_add b (cell 0) 1 in
            Word_arena.at_store b (cell (k + 1)) i))
  in
  until (fun () -> Rsem.parked s = 3);
  for k = 1 to 3 do
    Rsem.v s;
    until (fun () -> Word_arena.at_load b (cell 0) >= k)
  done;
  List.iter (fun join -> join ()) waiters;
  Alcotest.(check (list int)) "released in ticket order" [ 0; 1; 2 ]
    (List.init 3 (fun k -> Word_arena.at_load b (cell (k + 1))));
  Alcotest.(check int) "no credit left" 0 (Rsem.value s);
  Alcotest.(check int) "nobody parked" 0 (Rsem.parked s);
  Alcotest.(check int) "every park granted" (Rsem.parks s) (Rsem.grants s)

(* Every case that can block runs under a 20 s deadline, so a lost
   wake-up fails the case instead of hanging the binary.  [program op]
   is the op list of one model trial: the in-process suite takes
   QCheck's default lengths, the fork'd one (a fork per op) short
   lists. *)
let cases ?(model_count = 300) ?(run = in_process)
    ?(program = QCheck.Gen.list) ~spawn ~within () =
  let bounded name case =
    Alcotest.test_case name `Quick (fun () ->
        within ~timeout_s:20.0 name (case ~spawn))
  in
  [
    bounded "counting" counting;
    bounded "pending V (Interleaving 1)" pending_v;
    bounded "blocks until V" blocks_until_v;
    bounded "try_p counting" try_p_counting;
    QCheck_alcotest.to_alcotest
      (prop_flag_model ~count:model_count ~run ~program);
    bounded "flag writes race V/P, 2 peers" flag_vs_credits;
    bounded "flag writes race V/try_p, no parking" flag_vs_try_p;
    bounded "50 Vs from a peer wake 50 Ps" wakes_from_peer;
    Alcotest.test_case "p_timed expires" `Quick p_timed_expires;
    bounded "p_timed woken by a peer" p_timed_woken;
    bounded "a timed P that expires strands no grant" timed_p_strands_no_grant;
  ]
