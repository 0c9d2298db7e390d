type t =
  | BSS
  | BSW
  | BSWY
  | BSLS of int
  | ADAPT of int
  | SYSV
  | HANDOFF
  | CSEM

let name = function
  | BSS -> "BSS"
  | BSW -> "BSW"
  | BSWY -> "BSWY"
  | BSLS n -> Printf.sprintf "BSLS(%d)" n
  | ADAPT n -> Printf.sprintf "ADAPT(%d)" n
  | SYSV -> "SYSV"
  | HANDOFF -> "HANDOFF"
  | CSEM -> "CSEM"

let spellings = "bss, bsw, bswy, bsls[:N], adapt[:N], sysv, handoff, csem"

let of_string s =
  let budget prefix k n =
    match int_of_string_opt n with
    | Some v when v >= 0 -> Ok (k v)
    | Some _ | None -> Error (`Msg (prefix ^ ":N needs a non-negative N"))
  in
  match String.split_on_char ':' (String.lowercase_ascii s) with
  | [ "bss" ] -> Ok BSS
  | [ "bsw" ] -> Ok BSW
  | [ "bswy" ] -> Ok BSWY
  | [ "sysv" ] -> Ok SYSV
  | [ "handoff" ] -> Ok HANDOFF
  | [ "csem" ] -> Ok CSEM
  | [ "bsls" ] -> Ok (BSLS 10)
  | [ "adapt" ] -> Ok (ADAPT 4096)
  | [ "bsls"; n ] -> budget "bsls" (fun v -> BSLS v) n
  | [ "adapt"; n ] -> budget "adapt" (fun v -> ADAPT v) n
  | _ -> Error (`Msg (Printf.sprintf "unknown protocol %S (%s)" s spellings))

let to_waiting : t -> Protocol_core.waiting option = function
  | BSS -> Some Spin
  | BSW -> Some Block
  | BSWY -> Some Block_yield
  | BSLS n -> Some (Limited_spin n)
  | ADAPT cap -> Some (Adaptive cap)
  | HANDOFF -> Some Handoff
  | SYSV | CSEM -> None

let of_waiting : Protocol_core.waiting -> t = function
  | Spin -> BSS
  | Block -> BSW
  | Block_yield -> BSWY
  | Limited_spin n -> BSLS n
  | Adaptive cap -> ADAPT cap
  | Handoff -> HANDOFF

let all_basic = [ BSS; BSW; BSWY; BSLS 10; SYSV ]
let pp ppf t = Format.pp_print_string ppf (name t)

let equal a b =
  match (a, b) with
  | BSS, BSS | BSW, BSW | BSWY, BSWY | SYSV, SYSV | HANDOFF, HANDOFF
  | CSEM, CSEM ->
    true
  | BSLS x, BSLS y -> x = y
  | ADAPT x, ADAPT y -> x = y
  | (BSS | BSW | BSWY | BSLS _ | ADAPT _ | SYSV | HANDOFF | CSEM), _ -> false
