module Clock = Bisram_parallel.Clock

type level = Shard.level = Debug | Info | Warn

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"

let level_of_string = function
  | "debug" -> Ok Debug
  | "info" -> Ok Info
  | "warn" -> Ok Warn
  | s -> Error (Printf.sprintf "unknown level %S" s)

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2
let schema = "bisram-events/1"

type event = Shard.event = {
  ev_seq : int;
  ev_tid : int;
  ev_ts_ns : int64;
  ev_level : level;
  ev_domain : string;
  ev_name : string;
  ev_fields : (string * Json.t) list;
}

(* ------------------------------------------------------------------ *)
(* switches *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let set_enabled b = Atomic.set enabled_flag b

(* packed as an int so one Atomic covers it; Info by default *)
let min_level_rank = Atomic.make 1

let min_level () =
  match Atomic.get min_level_rank with 0 -> Debug | 1 -> Info | _ -> Warn

let set_min_level l = Atomic.set min_level_rank (level_rank l)
let would_log l = enabled () && level_rank l >= Atomic.get min_level_rank

(* ------------------------------------------------------------------ *)
(* per-domain shards, shared with Obs: emission is a cons onto memory
   only the owning domain writes *)

let reset () =
  Shard.with_all
    (List.iter (fun (s : Shard.t) ->
         s.sh_seq <- 0;
         s.sh_events <- []))

let emit ?(level = Info) ~domain name fields =
  if would_log level then begin
    let s = Shard.get () in
    let seq = s.sh_seq in
    s.sh_seq <- seq + 1;
    s.sh_events <-
      { ev_seq = seq
      ; ev_tid = s.sh_id
      ; ev_ts_ns = Clock.now_ns ()
      ; ev_level = level
      ; ev_domain = domain
      ; ev_name = name
      ; ev_fields = fields
      }
      :: s.sh_events
  end

let drain () =
  let evs =
    Shard.with_all
      (List.fold_left
         (fun acc (s : Shard.t) ->
           let evs = s.sh_events in
           s.sh_events <- [];
           List.rev_append evs acc)
         [])
  in
  List.sort
    (fun a b ->
      match Int64.compare a.ev_ts_ns b.ev_ts_ns with
      | 0 -> (
          match Int.compare a.ev_tid b.ev_tid with
          | 0 -> Int.compare a.ev_seq b.ev_seq
          | c -> c)
      | c -> c)
    evs

(* ------------------------------------------------------------------ *)
(* serialization *)

let to_json ev =
  Json.Obj
    [ ("schema", Json.String schema)
    ; ("seq", Json.Int ev.ev_seq)
    ; ("tid", Json.Int ev.ev_tid)
    ; ("ts_ns", Json.Int (Int64.to_int ev.ev_ts_ns))
    ; ("level", Json.String (level_to_string ev.ev_level))
    ; ("domain", Json.String ev.ev_domain)
    ; ("name", Json.String ev.ev_name)
    ; ("fields", Json.Obj ev.ev_fields)
    ]

let ( let* ) = Result.bind

let of_json j =
  let* () =
    Json.closed
      [ "schema"; "seq"; "tid"; "ts_ns"; "level"; "domain"; "name"; "fields" ]
      j
  in
  let* sch = Json.field "schema" Json.string j in
  let* () =
    if sch = schema then Ok ()
    else Error (Printf.sprintf "schema is %S, expected %S" sch schema)
  in
  let* ev_seq = Json.field "seq" Json.int j in
  let* ev_tid = Json.field "tid" Json.int j in
  let* ts = Json.field "ts_ns" Json.int j in
  let* ev_level =
    Json.field "level" (fun v -> Result.bind (Json.string v) level_of_string) j
  in
  let* ev_domain = Json.field "domain" Json.string j in
  let* ev_name = Json.field "name" Json.string j in
  let* ev_fields = Json.field "fields" Json.obj j in
  Ok
    { ev_seq
    ; ev_tid
    ; ev_ts_ns = Int64.of_int ts
    ; ev_level
    ; ev_domain
    ; ev_name
    ; ev_fields
    }

let parse_line line =
  let* j = Json.of_string line in
  of_json j

let write_jsonl oc evs =
  List.iter
    (fun ev ->
      output_string oc (Json.to_string (to_json ev));
      output_char oc '\n')
    evs
