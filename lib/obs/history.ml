let read ~path =
  let lines =
    match Json.read_file path with
    | Ok text -> String.split_on_char '\n' text
    | Error _ -> []
  in
  let records = ref [] and warnings = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match Json.of_string line with
        | Ok j -> records := j :: !records
        | Error e ->
            warnings :=
              Printf.sprintf "%s:%d: skipping malformed line: %s" path (i + 1)
                e
              :: !warnings)
    lines;
  (List.rev !records, List.rev !warnings)

(* the identity of a history record: when it was taken and under which
   bench schema.  Two records agreeing on both are the same
   measurement, whatever the numbers say. *)
let identity j =
  (Json.member "utc" j, Json.member "bench_schema" j)

let append ~path record =
  let existing, warnings = read ~path in
  let id = identity record in
  if List.exists (fun j -> identity j = id) existing then (`Duplicate, warnings)
  else
    match
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc (Json.to_string record);
      output_char oc '\n';
      close_out oc
    with
    | () -> (`Appended, warnings)
    | exception Sys_error e -> (`Error e, warnings)
