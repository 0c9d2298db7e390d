(* The fork'd backend's entry points, kept under the names the
   benchmark calls: a fork'd session is a plain {!Ulipc_real.Rpc}
   session with int codecs, created before the fork. *)

module Rpc = Ulipc_real.Rpc

let create ?trace ~nclients waiting : (int, int) Rpc.t =
  Rpc.create ?trace ~req_codec:Rpc.int_codec ~rep_codec:Rpc.int_codec
    ~nclients waiting

let serve t f = Rpc.serve t f
let send = Rpc.send
let harvest_sem_counters = Rpc.harvest_sem_counters
let counters = Rpc.counters
let slab = Rpc.slab
