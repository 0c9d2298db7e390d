(* Registry of live instruments plus the [tick] that samples them into
   Series frames; whoever calls [tick] is "the sampler" below.

   Hot-path contract: [add]/[incr] on a counter is one
   [Atomic.fetch_and_add]; [record] on a windowed histogram is one DLS
   read, one [Atomic.get] and a plain [Histogram.record] into the
   writer's own shard — wait-free, no locks, and no allocation beyond
   what [Histogram.record] itself does today.  Everything else
   (registration, sampling, rendering) is off the hot path and may lock
   and allocate freely.

   Windowed histograms are double-buffered: each recording domain owns a
   pair of histograms (registered lazily through a DLS key), writers
   record into [pair.(epoch land 1)], and the sampler retires the other
   buffer by bumping [epoch], merging every shard's retired histogram
   into the window scratch and the cumulative total, then resetting it.
   The race is bounded and documented: a writer that loaded the old
   epoch can land at most one in-flight record in a buffer the sampler
   is merging, so that one sample may be double-counted, lost, or slide
   into the next window — never torn (OCaml's memory model has no
   out-of-thin-air values) and never more than one per writer per flip.
   Window counts are therefore conservative, exactly like the ring
   [length] snapshots. *)

type counter = {
  c_name : string;
  cell : int Atomic.t;
  mutable c_last : int; (* sampler-only: value at the previous frame *)
}

type whist = {
  w_name : string;
  epoch : int Atomic.t;
  shards : Histogram.t array list ref; (* every domain's double buffer *)
  w_lock : Mutex.t;
  key : Histogram.t array Domain.DLS.key;
  window : Histogram.t; (* sampler scratch: the just-retired window *)
  cumulative : Histogram.t; (* every sampled window since creation *)
}

type instrument =
  | I_counter of counter
  | I_gauge of { g_name : string; g_read : unit -> float }
  | I_ext of {
      ext_read : unit -> (string * int) list;
      ext_last : (string, int) Hashtbl.t;
    }
  | I_whist of whist

type t = {
  interval_ms : float;
  series : Series.t;
  on_frame : (Series.frame -> unit) option;
  lock : Mutex.t; (* guards [instruments] *)
  mutable instruments : instrument list; (* reverse registration order *)
  mutable last_t : float;
}

let create ?(interval_ms = 10.0) ?capacity ?on_frame () =
  if not (interval_ms > 0.0) then
    invalid_arg "Telemetry.create: interval_ms must be positive";
  {
    interval_ms;
    series = Series.create ?capacity ();
    on_frame;
    lock = Mutex.create ();
    instruments = [];
    last_t = Clock.now_us ();
  }

let interval_ms t = t.interval_ms
let series t = t.series
let frames t = Series.frames t.series

let register t i =
  Mutex.protect t.lock (fun () -> t.instruments <- i :: t.instruments)

let counter t name =
  let c = { c_name = name; cell = Atomic.make 0; c_last = 0 } in
  register t (I_counter c);
  c

let add c n = ignore (Atomic.fetch_and_add c.cell n)
let incr c = add c 1
let counter_value c = Atomic.get c.cell

let gauge t name read = register t (I_gauge { g_name = name; g_read = read })

let ext_counters t read =
  register t (I_ext { ext_read = read; ext_last = Hashtbl.create 16 })

let whist ?lo ?decades ?buckets_per_decade t name =
  let mk tag = Histogram.create ?lo ?decades ?buckets_per_decade (name ^ tag) in
  let shards = ref [] in
  let w_lock = Mutex.create () in
  let key =
    Domain.DLS.new_key (fun () ->
        let pair = [| mk "/0"; mk "/1" |] in
        Mutex.protect w_lock (fun () -> shards := pair :: !shards);
        pair)
  in
  let w =
    {
      w_name = name;
      epoch = Atomic.make 0;
      shards;
      w_lock;
      key;
      window = mk "/window";
      cumulative = mk "";
    }
  in
  register t (I_whist w);
  w

let record w v =
  let pair = Domain.DLS.get w.key in
  Histogram.record pair.(Atomic.get w.epoch land 1) v

let whist_cumulative w = w.cumulative

(* Retire the buffer writers were just using and fold every shard's
   retired histogram into the window scratch (reset first) and the
   cumulative total. *)
let flip_whist w =
  let e = Atomic.fetch_and_add w.epoch 1 in
  let retired = e land 1 in
  Histogram.reset w.window;
  let shards = Mutex.protect w.w_lock (fun () -> !(w.shards)) in
  List.iter
    (fun pair ->
      let h = pair.(retired) in
      Histogram.merge_into ~dst:w.window h;
      Histogram.merge_into ~dst:w.cumulative h;
      Histogram.reset h)
    shards

let whist_points w acc =
  flip_whist w;
  let n = Histogram.count w.window in
  let q p = if n = 0 then nan else Histogram.percentile w.window p in
  (w.w_name ^ "_max", Histogram.max_value w.window)
  :: (w.w_name ^ "_p99", q 99.0)
  :: (w.w_name ^ "_p50", q 50.0)
  :: (w.w_name ^ "_count", float_of_int n)
  :: acc

let instrument_points i acc =
  match i with
  | I_counter c ->
      let v = Atomic.get c.cell in
      let d = v - c.c_last in
      c.c_last <- v;
      (c.c_name, float_of_int d) :: acc
  | I_gauge g ->
      let v = try g.g_read () with _ -> nan in
      (g.g_name, v) :: acc
  | I_ext e ->
      let totals = try e.ext_read () with _ -> [] in
      List.fold_left
        (fun acc (name, v) ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt e.ext_last name)
          in
          Hashtbl.replace e.ext_last name v;
          (name, float_of_int (v - prev)) :: acc)
        acc totals
  | I_whist w -> whist_points w acc

let tick t =
  let now = Clock.now_us () in
  let window_us = now -. t.last_t in
  t.last_t <- now;
  let instruments = Mutex.protect t.lock (fun () -> t.instruments) in
  (* [instruments] is reversed; fold it with a [::] accumulator and the
     points come out in registration order. *)
  let points =
    List.fold_left (fun acc i -> instrument_points i acc) [] instruments
  in
  let frame =
    { Series.t_us = now; window_us; points = Array.of_list points }
  in
  Series.push t.series frame;
  (match t.on_frame with Some f -> f frame | None -> ());
  frame

(* Prometheus text exposition.  Counters become [_total] counters from
   their live cumulative value, gauges are read at dump time, windowed
   histograms render as summaries over every window sampled so far. *)

let prom_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> ()
      | _ -> Bytes.set b i '_')
    b;
  "ulipc_" ^ Bytes.to_string b

let prom_float buf v =
  if Float.is_nan v then Buffer.add_string buf "NaN"
  else Buffer.add_string buf (Printf.sprintf "%.9g" v)

let to_prometheus t =
  let buf = Buffer.create 1024 in
  let line name v =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    prom_float buf v;
    Buffer.add_char buf '\n'
  in
  let typ name kind =
    Buffer.add_string buf ("# TYPE " ^ name ^ " " ^ kind ^ "\n")
  in
  let counter_total name v =
    let n = prom_name name ^ "_total" in
    typ n "counter";
    line n (float_of_int v)
  in
  let instruments = Mutex.protect t.lock (fun () -> List.rev t.instruments) in
  List.iter
    (fun i ->
      match i with
      | I_counter c -> counter_total c.c_name (Atomic.get c.cell)
      | I_gauge g ->
          let n = prom_name g.g_name in
          typ n "gauge";
          line n (try g.g_read () with _ -> nan)
      | I_ext e ->
          let totals = try e.ext_read () with _ -> [] in
          List.iter (fun (name, v) -> counter_total name v) totals
      | I_whist w ->
          let n = prom_name w.w_name in
          let h = w.cumulative in
          let cnt = Histogram.count h in
          typ n "summary";
          List.iter
            (fun (q, p) ->
              Buffer.add_string buf
                (Printf.sprintf "%s{quantile=\"%s\"} " n q);
              prom_float buf
                (if cnt = 0 then nan else Histogram.percentile h p);
              Buffer.add_char buf '\n')
            [ ("0.5", 50.0); ("0.9", 90.0); ("0.99", 99.0) ];
          line (n ^ "_sum") (Histogram.total h);
          line (n ^ "_count") (float_of_int cnt))
    instruments;
  Buffer.contents buf
