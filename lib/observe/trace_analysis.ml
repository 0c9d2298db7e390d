(* Single pass over the time-sorted stream with one small state machine
   per channel.  The credit queues mirror the semaphore algebra of the
   protocols: a Wake is a V credit, a Block is a P, a Wake_drain is the
   C.3' [sem_try_p] that absorbs a raced V.  Pairing falls out of
   matching credits FIFO; the invariants fall out of a queue running
   empty (or not running dry by end of trace). *)

type dist = {
  n : int;
  mean_us : float;
  p50_us : float;
  p99_us : float;
  max_us : float;
}

type pair = {
  chan : int;
  from_actor : int;
  to_actor : int;
  t_from_us : float;
  t_to_us : float;
}

let pair_us p = Float.max 0.0 (p.t_to_us -. p.t_from_us)

type violation =
  | Queue_underflow of { chan : int; t_us : float }
  | Orphan_block of { chan : int; actor : int; t_us : float }
  | Lost_wake of { chan : int; t_us : float }
  | Drain_without_wake of { chan : int; t_us : float }
  | Wake_without_dequeue of { chan : int; t_us : float }
  | Non_monotonic_actor of { actor : int; seq : int; t_us : float }
  | Seq_gap of { actor : int; expected : int; got : int }

let pp_violation ppf = function
  | Queue_underflow { chan; t_us } ->
    Format.fprintf ppf "queue underflow on chan %d at %.3f us" chan t_us
  | Orphan_block { chan; actor; t_us } ->
    Format.fprintf ppf "orphan block by actor %d on chan %d at %.3f us" actor
      chan t_us
  | Lost_wake { chan; t_us } ->
    Format.fprintf ppf "lost wake on chan %d at %.3f us" chan t_us
  | Drain_without_wake { chan; t_us } ->
    Format.fprintf ppf "drain without wake on chan %d at %.3f us" chan t_us
  | Wake_without_dequeue { chan; t_us } ->
    Format.fprintf ppf "wake without dequeue on chan %d at %.3f us" chan t_us
  | Non_monotonic_actor { actor; seq; t_us } ->
    Format.fprintf ppf "actor %d clock steps backwards at seq %d (%.3f us)"
      actor seq t_us
  | Seq_gap { actor; expected; got } ->
    Format.fprintf ppf "actor %d sequence gap: expected %d, got %d" actor
      expected got

type channel_report = {
  chan : int;
  enqueues : int;
  dequeues : int;
  blocks : int;
  wakes : int;
  wake_drains : int;
  spurious_wakes : int;
  handoffs : int;
  spin_exhausts : int;
  wake_latency : dist;
  block_duration : dist;
}

type t = {
  events : int;
  actors : int;
  span_us : float;
  complete : bool;
  channels : channel_report list;
  wake_latency : dist;
  block_duration : dist;
  wake_pairs : pair list;
  block_pairs : pair list;
  blocks : int;
  wakes : int;
  raced_wakes : int;
  spurious_wakes : int;
  handoffs : int;
  handoffs_taken : int;
  spin_exhausts : int;
  violations : violation list;
}

let empty_dist = { n = 0; mean_us = nan; p50_us = nan; p99_us = nan; max_us = nan }

let dist_of samples =
  match samples with
  | [] -> empty_dist
  | _ ->
    let a = Array.of_list samples in
    Array.sort Float.compare a;
    let n = Array.length a in
    let rank p =
      let i = int_of_float (ceil (p *. float_of_int n)) - 1 in
      a.(Stdlib.min (n - 1) (Stdlib.max 0 i))
    in
    let mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n in
    {
      n;
      mean_us = mean;
      p50_us = rank 0.5;
      p99_us = rank 0.99;
      max_us = a.(n - 1);
    }

(* Merge order for the analysis itself: at one instant the cause must
   precede the effect, so Enqueue sorts before Wake sorts before the
   consumer-side events.  Common in the simulator (discrete time), near
   impossible on CLOCK_MONOTONIC. *)
let tie_rank = function Event.Enqueue -> 0 | Event.Wake -> 1 | _ -> 2

let causal_compare a b =
  let c = Float.compare a.Event.t_us b.Event.t_us in
  if c <> 0 then c
  else
    let c = Int.compare (tie_rank a.Event.kind) (tie_rank b.Event.kind) in
    if c <> 0 then c
    else
      let c = Int.compare a.Event.actor b.Event.actor in
      if c <> 0 then c else Int.compare a.Event.seq b.Event.seq

type chan_state = {
  mutable enqueues : int;
  mutable dequeues : int;
  mutable st_blocks : int;
  mutable st_wakes : int;
  mutable wake_drains : int;
  mutable st_handoffs : int;
  mutable st_spin_exhausts : int;
  mutable st_spurious : int;
  mutable depth : int;
  credits : (float * int) Queue.t; (* banked Wakes: time, waking actor *)
  pending_blocks : (float * int) Queue.t; (* sleepers: time, actor *)
  mutable waiting_wakes : (float * int * int) list;
      (* Wakes awaiting the woken sleeper's Dequeue, oldest first:
         time, waking actor, woken actor *)
  mutable ch_wake_pairs : pair list; (* newest first *)
  mutable ch_block_pairs : pair list; (* newest first *)
}

let fresh_chan_state () =
  {
    enqueues = 0;
    dequeues = 0;
    st_blocks = 0;
    st_wakes = 0;
    wake_drains = 0;
    st_handoffs = 0;
    st_spin_exhausts = 0;
    st_spurious = 0;
    depth = 0;
    credits = Queue.create ();
    pending_blocks = Queue.create ();
    waiting_wakes = [];
    ch_wake_pairs = [];
    ch_block_pairs = [];
  }

(* Remove the oldest waiting wake whose woken sleeper is [actor];
   [None] when there is none. *)
let take_waiting st actor =
  let rec go acc = function
    | [] -> None
    | ((t_w, wa, sl) as hd) :: tl ->
      if sl = actor then begin
        st.waiting_wakes <- List.rev_append acc tl;
        Some (t_w, wa)
      end
      else go (hd :: acc) tl
  in
  go [] st.waiting_wakes

let analyse ?(complete = true) events =
  let sorted =
    List.stable_sort causal_compare
      (List.filter (fun e -> Event.is_protocol e.Event.kind) events)
  in
  let violations = ref [] in
  let violate v = violations := v :: !violations in
  (* Per-actor integrity, over every event: a ring numbers all of an
     actor's events, kernel ones included, and drops oldest-first, so
     truncation keeps per-actor sequences contiguous — the sequences
     must be gap-free.  In program order (by seq) the timestamps must be
     non-decreasing within each class: a protocol event is stamped when
     its operation began, which can precede a preemption the kernel
     recorded while the operation was in flight. *)
  let by_actor = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      let l =
        match Hashtbl.find_opt by_actor ev.Event.actor with
        | Some l -> l
        | None ->
          let l = ref [] in
          Hashtbl.add by_actor ev.Event.actor l;
          l
      in
      l := ev :: !l)
    events;
  let handoffs_taken = ref 0 in
  Hashtbl.iter
    (fun actor l ->
      let evs =
        List.sort (fun a b -> Int.compare a.Event.seq b.Event.seq) !l
      in
      let prev_seq = ref None in
      let prev_protocol = ref None and prev_kernel = ref None in
      List.iter
        (fun ev ->
          (match !prev_seq with
          | Some seq when ev.Event.seq <> seq + 1 ->
            violate (Seq_gap { actor; expected = seq + 1; got = ev.Event.seq })
          | Some _ | None -> ());
          prev_seq := Some ev.Event.seq;
          let prev =
            if Event.is_protocol ev.Event.kind then prev_protocol
            else prev_kernel
          in
          (match !prev with
          | Some p ->
            if ev.Event.t_us < p.Event.t_us then
              violate
                (Non_monotonic_actor
                   { actor; seq = ev.Event.seq; t_us = ev.Event.t_us });
            if p.Event.kind = Event.Handoff && ev.Event.kind = Event.Dequeue
            then incr handoffs_taken
          | None -> ());
          prev := Some ev)
        evs)
    by_actor;
  (* Per-channel credit algebra over the causally sorted stream. *)
  let chans = Hashtbl.create 8 in
  let state_for chan =
    match Hashtbl.find_opt chans chan with
    | Some st -> st
    | None ->
      let st = fresh_chan_state () in
      Hashtbl.add chans chan st;
      st
  in
  List.iter
    (fun ev ->
      let chan = ev.Event.chan in
      let st = state_for chan in
      match ev.Event.kind with
      | Event.Enqueue ->
        st.enqueues <- st.enqueues + 1;
        st.depth <- st.depth + 1
      | Event.Dequeue ->
        st.dequeues <- st.dequeues + 1;
        if st.depth = 0 then (
          if complete then violate (Queue_underflow { chan; t_us = ev.t_us }))
        else st.depth <- st.depth - 1;
        (match take_waiting st ev.Event.actor with
        | Some (t_w, wa) ->
          st.ch_wake_pairs <-
            {
              chan;
              from_actor = wa;
              to_actor = ev.actor;
              t_from_us = t_w;
              t_to_us = ev.t_us;
            }
            :: st.ch_wake_pairs
        | None -> ())
      | Event.Block -> (
        st.st_blocks <- st.st_blocks + 1;
        (* A sleeper re-blocking before it dequeued means its previous
           wake was spurious (the producer tas-claimed a waiting flag
           raised for a later wait): the wake woke it, but there was no
           message, so no dequeue will ever pair with it.  Cancel the
           expectation rather than flag a violation. *)
        (match take_waiting st ev.Event.actor with
        | Some _ -> st.st_spurious <- st.st_spurious + 1
        | None -> ());
        match Queue.take_opt st.credits with
        | Some (t_w, wa) ->
          (* The raced case: V landed before P, so the block releases
             immediately and its wake still owes a dequeue. *)
          st.ch_block_pairs <-
            {
              chan;
              from_actor = ev.actor;
              to_actor = wa;
              t_from_us = ev.t_us;
              t_to_us = t_w;
            }
            :: st.ch_block_pairs;
          st.waiting_wakes <- st.waiting_wakes @ [ (t_w, wa, ev.actor) ]
        | None -> Queue.push (ev.t_us, ev.actor) st.pending_blocks)
      | Event.Wake -> (
        st.st_wakes <- st.st_wakes + 1;
        match Queue.take_opt st.pending_blocks with
        | Some (t_b, ba) ->
          st.ch_block_pairs <-
            {
              chan;
              from_actor = ba;
              to_actor = ev.actor;
              t_from_us = t_b;
              t_to_us = ev.t_us;
            }
            :: st.ch_block_pairs;
          st.waiting_wakes <- st.waiting_wakes @ [ (ev.t_us, ev.actor, ba) ]
        | None -> Queue.push (ev.t_us, ev.actor) st.credits)
      | Event.Wake_drain -> (
        st.wake_drains <- st.wake_drains + 1;
        match Queue.take_opt st.credits with
        | Some _ -> ()
        | None ->
          if complete then
            violate (Drain_without_wake { chan; t_us = ev.t_us }))
      | Event.Handoff -> st.st_handoffs <- st.st_handoffs + 1
      | Event.Spin_exhaust -> st.st_spin_exhausts <- st.st_spin_exhausts + 1
      | Event.Spawn | Event.Exit | Event.Switch | Event.Preempt | Event.Idle
      | Event.Syscall | Event.Sleep | Event.Msgq_deliver ->
        ())
    sorted;
  if complete then
    Hashtbl.iter
      (fun chan st ->
        Queue.iter
          (fun (t_b, ba) ->
            violate (Orphan_block { chan; actor = ba; t_us = t_b }))
          st.pending_blocks;
        Queue.iter
          (fun (t_w, _) -> violate (Lost_wake { chan; t_us = t_w }))
          st.credits;
        List.iter
          (fun (t_w, _, _) ->
            violate (Wake_without_dequeue { chan; t_us = t_w }))
          st.waiting_wakes)
      chans;
  let channels =
    Hashtbl.fold
      (fun chan st acc ->
        {
          chan;
          enqueues = st.enqueues;
          dequeues = st.dequeues;
          blocks = st.st_blocks;
          wakes = st.st_wakes;
          wake_drains = st.wake_drains;
          spurious_wakes = st.st_spurious;
          handoffs = st.st_handoffs;
          spin_exhausts = st.st_spin_exhausts;
          wake_latency =
            dist_of (List.rev_map pair_us st.ch_wake_pairs);
          block_duration =
            dist_of (List.rev_map pair_us st.ch_block_pairs);
        }
        :: acc)
      chans []
    |> List.sort (fun a b -> Int.compare a.chan b.chan)
  in
  let all_pairs sel =
    Hashtbl.fold (fun _ st acc -> List.rev_append (sel st) acc) chans []
    |> List.sort (fun a b -> Float.compare a.t_from_us b.t_from_us)
  in
  let wake_pairs = all_pairs (fun st -> st.ch_wake_pairs) in
  let block_pairs = all_pairs (fun st -> st.ch_block_pairs) in
  let sum sel = List.fold_left (fun acc c -> acc + sel c) 0 channels in
  let span_us =
    match sorted with
    | [] -> 0.0
    | first :: _ ->
      let rec last = function
        | [ e ] -> e
        | _ :: tl -> last tl
        | [] -> assert false
      in
      (last sorted).Event.t_us -. first.Event.t_us
  in
  {
    events = List.length events;
    actors = Hashtbl.length by_actor;
    span_us;
    complete;
    channels;
    wake_latency = dist_of (List.map pair_us wake_pairs);
    block_duration = dist_of (List.map pair_us block_pairs);
    wake_pairs;
    block_pairs;
    blocks = sum (fun c -> c.blocks);
    wakes = sum (fun c -> c.wakes);
    raced_wakes = sum (fun c -> c.wake_drains);
    spurious_wakes = sum (fun c -> c.spurious_wakes);
    handoffs = sum (fun c -> c.handoffs);
    handoffs_taken = !handoffs_taken;
    spin_exhausts = sum (fun c -> c.spin_exhausts);
    violations = List.rev !violations;
  }

let pp_dist ppf d =
  if d.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d p50=%.2f p99=%.2f max=%.2f" d.n d.p50_us d.p99_us
      d.max_us

(* Negative ids are the request shards, [-(k+1)] for shard [k] (shard 0
   keeps the historical bare "request"); non-negative ids are reply
   channels, one per client. *)
let chan_name = function
  | -1 -> "request"
  | n when n < 0 -> Printf.sprintf "request/%d" (-n - 1)
  | n -> Printf.sprintf "reply %d" n

let pp ppf r =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "trace: %d events, %d actors, span %.1f us%s@,"
    r.events r.actors r.span_us
    (if r.complete then "" else " (truncated: end-state checks skipped)");
  Format.fprintf ppf
    "totals: %d blocks, %d wakes (%d raced, %d spurious), %d handoffs, %d \
     spin exhausts@,"
    r.blocks r.wakes r.raced_wakes r.spurious_wakes r.handoffs r.spin_exhausts;
  Format.fprintf ppf "%-10s %7s %7s %6s %6s   %-34s %-34s@," "channel" "enq"
    "deq" "block" "wake" "wake-latency (us)" "block-duration (us)";
  List.iter
    (fun c ->
      Format.fprintf ppf "%-10s %7d %7d %6d %6d   %-34s %-34s@,"
        (chan_name c.chan) c.enqueues c.dequeues c.blocks c.wakes
        (Format.asprintf "%a" pp_dist c.wake_latency)
        (Format.asprintf "%a" pp_dist c.block_duration))
    r.channels;
  Format.fprintf ppf "overall wake latency:   %a@," pp_dist r.wake_latency;
  Format.fprintf ppf "overall block duration: %a@," pp_dist r.block_duration;
  if r.handoffs > 0 then
    Format.fprintf ppf "handoff hints taken: %d/%d@," r.handoffs_taken
      r.handoffs;
  (match r.violations with
  | [] -> Format.fprintf ppf "invariants: OK (0 violations)"
  | vs ->
    Format.fprintf ppf "invariants: %d violation(s)" (List.length vs);
    List.iteri
      (fun i v ->
        if i < 20 then Format.fprintf ppf "@,  %a" pp_violation v
        else if i = 20 then Format.fprintf ppf "@,  ...")
      vs);
  Format.fprintf ppf "@]"
