(** Every machine model, for the command-line tools. *)

val all : Machine.t list
(** The paper's machines, with both Linux 486 schedulers, in the order
    the tools list them. *)

val find : string -> (Machine.t, [> `Msg of string ]) result
(** The machine of that {!Machine.t.name}; the error names the known
    ones. *)
