(* Bounded per-actor event rings behind one sink.

   Each actor records into its own ring, so [record] is entirely
   unsynchronised: three plain int-array stores at [count mod capacity]
   plus a counter bump.  The ring is FLAT — parallel int arrays for
   timestamp (nanoseconds), kind tag and channel — so recording
   allocates nothing: attaching a sink must not put minor-heap traffic
   on the zero-allocation message plane it observes.  Boxed Event.t
   records are built only at drain time.

   Two ways to find the ring.  [record]/[record_at] take the calling
   domain's ring from domain-local storage (the actor is
   [Domain.self]); [record_as] takes the ring of an explicit actor from
   a table, for one writer domain that records on behalf of many actors
   (the simulator's procs).  The only lock in the module guards the
   registry of rings, taken once per new ring and once per drain.
   Draining while writers are still running is memory-safe but can see
   torn orderings; callers drain after Domain.join, exactly like
   Histogram merges.

   The per-ring count doubles as the per-actor sequence number, and the
   ring drops oldest-first, so the retained window of any actor always
   carries contiguous sequences — the property Trace_analysis's gap
   check relies on. *)

type ring = {
  actor : int;
  t_ns : int array;
  kind : int array; (* Event.kind_tag codes *)
  chan : int array;
  mutable count : int;
}

type t = {
  ring_capacity : int;
  mutex : Mutex.t;
  rings : ring list ref; (* every ring, shared with the DLS init *)
  key : ring Domain.DLS.key;
  named : (int, ring) Hashtbl.t; (* [record_as]'s rings, by actor *)
}

let new_ring ~capacity ~mutex ~rings actor =
  let r =
    {
      actor;
      t_ns = Array.make capacity 0;
      kind = Array.make capacity 0;
      chan = Array.make capacity 0;
      count = 0;
    }
  in
  Mutex.lock mutex;
  rings := r :: !rings;
  Mutex.unlock mutex;
  r

let create ?(capacity = 4096) () =
  if capacity <= 0 then
    invalid_arg "Trace_ring.create: capacity must be positive";
  let mutex = Mutex.create () in
  let rings = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        new_ring ~capacity ~mutex ~rings (Domain.self () :> int))
  in
  { ring_capacity = capacity; mutex; rings; key; named = Hashtbl.create 16 }

let capacity t = t.ring_capacity

(* Inlined into both recorders, so a record stays three plain stores
   and a counter bump after the ring lookup. *)
let[@inline] push t r kind ~t_ns ~chan =
  let i = r.count mod t.ring_capacity in
  r.t_ns.(i) <- t_ns;
  r.kind.(i) <- Event.kind_tag kind;
  r.chan.(i) <- chan;
  r.count <- r.count + 1

let record_at t kind ~t_ns ~chan =
  push t (Domain.DLS.get t.key) kind ~t_ns ~chan

let record t kind ~chan = record_at t kind ~t_ns:(Clock.now_ns ()) ~chan

let record_as t kind ~actor ~t_ns ~chan =
  let r =
    match Hashtbl.find_opt t.named actor with
    | Some r -> r
    | None ->
      let r =
        new_ring ~capacity:t.ring_capacity ~mutex:t.mutex ~rings:t.rings actor
      in
      Hashtbl.add t.named actor r;
      r
  in
  push t r kind ~t_ns ~chan

let snapshot t =
  Mutex.lock t.mutex;
  let rings = !(t.rings) in
  Mutex.unlock t.mutex;
  rings

(* Oldest-to-newest retained events of one ring: the full prefix while it
   has not wrapped, the last [capacity] otherwise.  The boxed events are
   built here, at drain time, with timestamps converted to the trace
   schema's microseconds. *)
let ring_events t r =
  let n = Stdlib.min r.count t.ring_capacity in
  let start = r.count - n in
  List.init n (fun i ->
      let seq = start + i in
      let j = seq mod t.ring_capacity in
      {
        Event.t_us = float_of_int r.t_ns.(j) /. 1e3;
        actor = r.actor;
        seq;
        chan = r.chan.(j);
        kind = Event.kind_of_tag r.kind.(j);
      })

let events t =
  List.concat_map (ring_events t) (snapshot t) |> List.sort Event.compare

let recorded t =
  List.fold_left (fun acc r -> acc + r.count) 0 (snapshot t)

let dropped t =
  List.fold_left
    (fun acc r -> acc + Stdlib.max 0 (r.count - t.ring_capacity))
    0 (snapshot t)
