let all =
  [
    Sgi_indy.machine;
    Ibm_p4.machine;
    Sgi_challenge.machine;
    Linux486.stock;
    Linux486.modified_yield;
  ]

let find name =
  match List.find_opt (fun m -> String.equal m.Machine.name name) all with
  | Some m -> Ok m
  | None ->
    Error
      (`Msg
        (Printf.sprintf "unknown machine %S (try: %s)" name
           (String.concat ", " (List.map (fun m -> m.Machine.name) all))))
