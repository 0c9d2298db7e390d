(* Host stamp carried by every result: the static facts that decide which
   code path a run measures (the spin budgets in Rsem, Fsem and the
   protocols branch on the domain count) plus the load average around
   the run.  Results from hosts whose static stamps differ are not
   comparable, and the benchmark says so loudly. *)

type t = {
  nproc : int;
  domains : int;
  kernel : string;
  ocaml : string;
  clocksource : string;
}

let first_line path =
  try
    In_channel.with_open_text path In_channel.input_line
    |> Option.value ~default:"?"
  with Sys_error _ -> "?"

(* CPUs this process may run on, as nproc(1) counts them: the ranges in
   Cpus_allowed_list, e.g. "0-3,6". *)
let nproc () =
  let count_ranges s =
    String.split_on_char ',' (String.trim s)
    |> List.fold_left
         (fun acc r ->
           match String.split_on_char '-' r with
           | [ a ] when a <> "" -> acc + 1
           | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
           | _ -> acc)
         0
  in
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | None -> 0
          | Some l -> (
            match String.split_on_char ':' l with
            | [ "Cpus_allowed_list"; v ] -> count_ranges v
            | _ -> find ())
        in
        find ())
  with Sys_error _ | Failure _ -> 0

let current () =
  {
    nproc = nproc ();
    domains = Domain.recommended_domain_count ();
    kernel = first_line "/proc/sys/kernel/osrelease";
    ocaml = Sys.ocaml_version;
    clocksource =
      first_line
        "/sys/devices/system/clocksource/clocksource0/current_clocksource";
  }

let loadavg () =
  match String.split_on_char ' ' (first_line "/proc/loadavg") with
  | a :: b :: c :: _ -> String.concat " " [ a; b; c ]
  | _ -> "?"

let fields t =
  [
    ("nproc", string_of_int t.nproc);
    ("recommended_domain_count", string_of_int t.domains);
    ("kernel", t.kernel);
    ("ocaml", t.ocaml);
    ("clocksource", t.clocksource);
  ]

let to_string t =
  String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (fields t))

let to_json t =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) (fields t))
  ^ "}"

(* The stamp stored in a results file, read back field by field. *)
let of_json j =
  let module J = Ulipc_observe.Json_min in
  let str k =
    match J.member_opt k j with Some (J.Str s) -> s | _ -> raise Not_found
  in
  try
    Some
      {
        nproc = int_of_string (str "nproc");
        domains = int_of_string (str "recommended_domain_count");
        kernel = str "kernel";
        ocaml = str "ocaml";
        clocksource = str "clocksource";
      }
  with Not_found | Failure _ -> None
