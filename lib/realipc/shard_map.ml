(* Static client->shard affinity map for the sharded request plane.

   The map is resolved once at session creation into a flat int array, so
   the per-send lookup is a single bounds-checked load — nothing on the
   zero-allocation send path.  The default assignment is round-robin
   ([client mod nshards]): exactly balanced for any client count, and —
   because the drivers also stripe clients over their domains round-robin
   — it keeps each client domain's traffic on one shard, which is the
   cache-friendly layout.  Static affinity (rather than
   rebalancing the map itself) is deliberate: a client's requests all
   land in one Mpsc_ring whose single consumer is that shard's server,
   so per-client FIFO order needs no cross-shard reasoning.  Nothing
   rebalances: no message ever leaves its home shard's ring.

   [assign] exists for tests, which pin clients to chosen shards. *)

type t = { nshards : int; map : int array }

let create ?assign ~nclients ~nshards () =
  if nclients <= 0 then
    invalid_arg "Shard_map.create: nclients must be positive";
  if nshards <= 0 then invalid_arg "Shard_map.create: nshards must be positive";
  let pick =
    match assign with None -> fun c -> c mod nshards | Some f -> f
  in
  let map =
    Array.init nclients (fun c ->
        let s = pick c in
        if s < 0 || s >= nshards then
          invalid_arg
            (Printf.sprintf
               "Shard_map.create: assignment maps client %d to shard %d (have \
                %d shards)"
               c s nshards);
        s)
  in
  { nshards; map }

let nshards t = t.nshards
let nclients t = Array.length t.map
let shard t client = t.map.(client)

(* How many clients land on each shard: which shards are paired, and
   the balance a report or a test reads. *)
let load t =
  let counts = Array.make t.nshards 0 in
  Array.iter (fun s -> counts.(s) <- counts.(s) + 1) t.map;
  counts
