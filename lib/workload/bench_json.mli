(** Writer for the [BENCH_real.json] perf-trajectory file.

    Lives in the library (rather than the bench binary) so the test suite
    can emit a file and parse it back: every number goes through
    {!json_float}, which serialises non-finite values as [null] — a raw
    [nan]/[inf] token is not valid JSON and breaks downstream parsers. *)

val json_float : float -> string
(** Decimal rendering of a finite float; ["null"] for nan/±inf. *)

val json_escape : string -> string
(** Escape a string for inclusion between JSON double quotes. *)

val write :
  path:string ->
  quick:bool ->
  micro:(string * float) list ->
  ?sem:Sem_bench.result list ->
  real:(string * string * Metrics.t) list ->
  unit ->
  unit
(** Write schema [ulipc-bench-real/9]: the Bechamel ns/op rows, the
    semaphore directed-wake-latency sweep ([sem], default empty — one
    row per waiter population from {!Sem_bench.wake_latency}), and the
    real-driver echo rows as [(backend, transport, metrics)] triples —
    [backend] is ["inproc"] for OCaml-domain rows and ["proc"] for the
    fork'd cross-process rows, [transport] ["ring"] in process and
    ["shm"]/["pipe"]/["socket"] across processes — with a [depth]
    pipelining column, a measured [utilization],
    [latency_p50_us]/[latency_p99_us]/[latency_max_us] fields from the
    round-trip histogram ([null] when latency was not collected), and
    [wake_latency_p50_us]/[wake_latency_p99_us] recovered from the run's
    event trace ([null] for protocols that never block).

    Schema /9 adds a [series] array per row — the run's sampled
    telemetry timeline ({!Metrics.t.series}), one object per frame with
    [t_us]/[window_us] and a flat [points] map.  It is emitted as the
    row's LAST key, keeping compare.exe's first-occurrence line scanner
    blind to point names that shadow row columns. *)
