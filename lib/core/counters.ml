(* Field order is a cache layout.  On the real backends the client and
   the server bump their own fields of one shared record on every call,
   and two fields on one line make each bump pull the line from the
   peer.  So the fields a client writes per message come first, the
   ones a server writes per message last, and eight rarely written
   words (64 bytes) sit between them: no client field can share a
   64-byte line with a server field, whatever the record's alignment.
   Five of the eight are counters; [pad0] .. [pad2] are explicit pad
   words that nothing writes, and that keep the gap at eight. *)
type t = {
  mutable sends : int;
  mutable client_blocks : int;
  mutable server_wakeups : int;
  mutable spin_iterations : int;
  mutable spin_fallthroughs : int;
  mutable queue_full_sleeps : int;
  mutable backoff_sleeps : int;
  pad0 : int;
  pad1 : int;
  pad2 : int;
  mutable slab_hwm : int;
  mutable sem_parks : int;
  mutable sem_grants : int;
  mutable receives : int;
  mutable replies : int;
  mutable server_blocks : int;
  mutable client_wakeups : int;
  mutable race_fix_p : int;
  mutable server_spin_iterations : int;
  mutable server_spin_fallthroughs : int;
}

let create () =
  {
    sends = 0;
    receives = 0;
    replies = 0;
    client_blocks = 0;
    server_blocks = 0;
    client_wakeups = 0;
    server_wakeups = 0;
    race_fix_p = 0;
    queue_full_sleeps = 0;
    spin_iterations = 0;
    spin_fallthroughs = 0;
    server_spin_iterations = 0;
    server_spin_fallthroughs = 0;
    backoff_sleeps = 0;
    pad0 = 0;
    pad1 = 0;
    pad2 = 0;
    slab_hwm = 0;
    sem_parks = 0;
    sem_grants = 0;
  }

let reset t =
  t.sends <- 0;
  t.receives <- 0;
  t.replies <- 0;
  t.client_blocks <- 0;
  t.server_blocks <- 0;
  t.client_wakeups <- 0;
  t.server_wakeups <- 0;
  t.race_fix_p <- 0;
  t.queue_full_sleeps <- 0;
  t.spin_iterations <- 0;
  t.spin_fallthroughs <- 0;
  t.server_spin_iterations <- 0;
  t.server_spin_fallthroughs <- 0;
  t.backoff_sleeps <- 0;
  t.slab_hwm <- 0;
  t.sem_parks <- 0;
  t.sem_grants <- 0

let add dst src =
  dst.sends <- dst.sends + src.sends;
  dst.receives <- dst.receives + src.receives;
  dst.replies <- dst.replies + src.replies;
  dst.client_blocks <- dst.client_blocks + src.client_blocks;
  dst.server_blocks <- dst.server_blocks + src.server_blocks;
  dst.client_wakeups <- dst.client_wakeups + src.client_wakeups;
  dst.server_wakeups <- dst.server_wakeups + src.server_wakeups;
  dst.race_fix_p <- dst.race_fix_p + src.race_fix_p;
  dst.queue_full_sleeps <- dst.queue_full_sleeps + src.queue_full_sleeps;
  dst.spin_iterations <- dst.spin_iterations + src.spin_iterations;
  dst.spin_fallthroughs <- dst.spin_fallthroughs + src.spin_fallthroughs;
  dst.server_spin_iterations <-
    dst.server_spin_iterations + src.server_spin_iterations;
  dst.server_spin_fallthroughs <-
    dst.server_spin_fallthroughs + src.server_spin_fallthroughs;
  dst.backoff_sleeps <- dst.backoff_sleeps + src.backoff_sleeps;
  (* a high-water mark, not a flow: merging two observations of the same
     slab keeps the larger *)
  dst.slab_hwm <- max dst.slab_hwm src.slab_hwm;
  dst.sem_parks <- dst.sem_parks + src.sem_parks;
  dst.sem_grants <- dst.sem_grants + src.sem_grants

(* [snapshot] is the telemetry seam: a frozen copy the sampler can diff
   against a later copy with no coordination with the (racy, multi-domain)
   writers — int fields never tear under the OCaml memory model, so each
   field of the copy is some recently written value. *)
let snapshot t = { t with sends = t.sends }

(* Field-wise [after - before].  [slab_hwm] is a high-water mark, not a
   flow: the window's high water IS the later observation (monotone
   within a run), so [diff] carries [a.slab_hwm] through unchanged and
   [add]'s [max]-merge makes diff/snapshot round-trip exactly. *)
let diff a b =
  {
    sends = a.sends - b.sends;
    receives = a.receives - b.receives;
    replies = a.replies - b.replies;
    client_blocks = a.client_blocks - b.client_blocks;
    server_blocks = a.server_blocks - b.server_blocks;
    client_wakeups = a.client_wakeups - b.client_wakeups;
    server_wakeups = a.server_wakeups - b.server_wakeups;
    race_fix_p = a.race_fix_p - b.race_fix_p;
    queue_full_sleeps = a.queue_full_sleeps - b.queue_full_sleeps;
    spin_iterations = a.spin_iterations - b.spin_iterations;
    spin_fallthroughs = a.spin_fallthroughs - b.spin_fallthroughs;
    server_spin_iterations =
      a.server_spin_iterations - b.server_spin_iterations;
    server_spin_fallthroughs =
      a.server_spin_fallthroughs - b.server_spin_fallthroughs;
    backoff_sleeps = a.backoff_sleeps - b.backoff_sleeps;
    pad0 = 0;
    pad1 = 0;
    pad2 = 0;
    slab_hwm = a.slab_hwm;
    sem_parks = a.sem_parks - b.sem_parks;
    sem_grants = a.sem_grants - b.sem_grants;
  }

let to_fields t =
  [
    ("sends", t.sends);
    ("receives", t.receives);
    ("replies", t.replies);
    ("client_blocks", t.client_blocks);
    ("server_blocks", t.server_blocks);
    ("client_wakeups", t.client_wakeups);
    ("server_wakeups", t.server_wakeups);
    ("race_fix_p", t.race_fix_p);
    ("queue_full_sleeps", t.queue_full_sleeps);
    ("spin_iterations", t.spin_iterations);
    ("spin_fallthroughs", t.spin_fallthroughs);
    ("server_spin_iterations", t.server_spin_iterations);
    ("server_spin_fallthroughs", t.server_spin_fallthroughs);
    ("backoff_sleeps", t.backoff_sleeps);
    ("slab_hwm", t.slab_hwm);
    ("sem_parks", t.sem_parks);
    ("sem_grants", t.sem_grants);
  ]

(* One printer driven by [to_fields], so a new counter field added to the
   flattening shows up everywhere at once. *)
let pp ppf t =
  Format.fprintf ppf "@[<hov>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf ppf "@ ";
      Format.fprintf ppf "%s=%d" name v)
    (to_fields t);
  Format.fprintf ppf "@]"
