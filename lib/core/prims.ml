(* The labelled steps of the paper's figures, instantiated over the
   simulated substrate.  The implementation lives in Protocol_core.Make
   (shared verbatim with the real backends); this module keeps the path
   Ablation, Csem and Async use. *)

include Sim_protocols.Prims
