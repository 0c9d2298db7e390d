(* The layer ladder's name for the one slab (see pslab.mli). *)

include Ulipc_real.Slab

let create a ~slots = carve a ~slots
