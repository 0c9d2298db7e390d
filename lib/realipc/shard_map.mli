(** Static client->shard affinity for the sharded request plane.

    Resolved once into a flat array at creation: the per-send lookup is
    one array load.  Default assignment is round-robin
    ([client mod nshards]) — exactly balanced for any client count.
    Nothing rebalances: a client's requests always enter its home
    shard's ring, and no message moves between shards, so per-client
    FIFO needs no cross-shard argument. *)

type t

val create : ?assign:(int -> int) -> nclients:int -> nshards:int -> unit -> t
(** [assign] overrides the round-robin default (tests pin clients to
    chosen shards).
    @raise Invalid_argument if a count is non-positive or [assign] maps
    a client outside [0 .. nshards-1]. *)

val nshards : t -> int
val nclients : t -> int

val shard : t -> int -> int
(** Home shard of a client.  @raise Invalid_argument out of range. *)

val load : t -> int array
(** Clients per shard under this map. *)
