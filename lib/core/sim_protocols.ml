(* The one simulator-side application of the protocol functor.  Dispatch,
   Iface, Async and Bsls_throttle call its produce/consume halves with
   the session's request and reply channels; Prims re-exports its
   labelled steps. *)

include Protocol_core.Make (Sim_substrate)

(* The [~budget] cell [consume] takes.  Only [Adaptive] reads it, and the
   simulator never runs [Adaptive] (see Dispatch.waiting), so one shared
   cell stands in for every channel's. *)
let budget = Atomic.make 0
