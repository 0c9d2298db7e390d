(* The event recorder under its old name, for the benchmark's sources;
   everything else names [Ulipc_observe.Trace_ring]. *)
include Ulipc_observe.Trace_ring
