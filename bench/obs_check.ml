(* Structural validator for the observability artifacts of a campaign
   run, used by `make obs-smoke`: the Chrome trace (--trace) and the
   metrics file (--metrics) of `bisramgen campaign --trace/--metrics`,
   the JSONL event log of --events and the --status-file snapshot
   (--status).  Every file goes through the Bisram_obs.Json decoders,
   the event log line by line through Events.parse_line — the parser
   the library exports — so schema drift between writer and reader
   cannot go unnoticed.  Exit 0 on success, 1 with a message on the
   first violation. *)

module J = Bisram_obs.Json
module Events = Bisram_obs.Events

let fail fmt =
  Printf.ksprintf (fun m -> prerr_endline ("obs_check: " ^ m); exit 1) fmt

(* the decoded value, or exit 1 naming [what] failed *)
let get what = function Ok v -> v | Error e -> fail "%s: %s" what e
let parse path = get path (Result.bind (J.read_file path) J.of_string)

let expect_schema path j schema =
  let s = get path (J.field "schema" J.string j) in
  if s <> schema then fail "%s: schema is %S, expected %S" path s schema

(* ------------------------------------------------------------------ *)

let check_trace path =
  let events =
    get path (J.field "traceEvents" (J.list Result.ok) (parse path))
  in
  if events = [] then fail "%s: traceEvents is empty" path;
  let saw_trial = ref false in
  List.iteri
    (fun i ev ->
      let what = Printf.sprintf "%s: traceEvents[%d]" path i in
      let name = get what (J.field "name" J.string ev) in
      let ph = get what (J.field "ph" J.string ev) in
      ignore (get what (J.field "pid" J.int ev));
      ignore (get what (J.field "tid" J.int ev));
      match ph with
      | "X" ->
          ignore (get what (J.field "ts" J.number ev));
          ignore (get what (J.field "dur" J.number ev));
          if
            name = "trial"
            && get what (J.field "cat" Result.ok ev) = J.String "campaign"
          then saw_trial := true
      | "M" -> ()
      | other -> fail "%s.ph is %S (expected \"X\" or \"M\")" what other)
    events;
  if not !saw_trial then
    fail "%s has no complete event named \"trial\" in category \"campaign\""
      path;
  Printf.printf "obs_check: %s OK (%d trace events)\n" path
    (List.length events)

let check_metrics path =
  let j = parse path in
  expect_schema path j "bisram-metrics/1";
  let counters = get path (J.field "counters" Result.ok j) in
  (* always present in any campaign run: trials always tick, the model
     always serves reads, and worker 0 (the calling domain) always
     reports pool utilization *)
  List.iter
    (fun c -> ignore (get (path ^ ": counters") (J.field c J.int counters)))
    [ "campaign.trials"; "model.fast_reads"; "pool.worker0.busy_ns" ];
  ignore
    (get path (J.field "histograms" (J.field "campaign.cycles" J.obj) j));
  Printf.printf "obs_check: %s OK\n" path

let check_events path =
  let lines =
    String.split_on_char '\n' (get path (J.read_file path))
    |> List.filter (fun l -> String.trim l <> "")
  in
  if lines = [] then fail "%s has no events" path;
  let parsed =
    List.mapi
      (fun i line ->
        get (Printf.sprintf "%s:%d" path (i + 1)) (Events.parse_line line))
      lines
  in
  let saw name =
    List.exists (fun ev -> String.equal ev.Events.ev_name name) parsed
  in
  (* every run emits exactly one lifecycle pair; a log without them is
     a truncated or mis-merged capture *)
  if not (saw "run.start") then fail "%s lacks a run.start event" path;
  if not (saw "run.end") then fail "%s lacks a run.end event" path;
  (* drain sorts by (ts_ns, tid, seq); a written log must still be in
     that order or the writer regressed *)
  let key ev = Events.(ev.ev_ts_ns, ev.ev_tid, ev.ev_seq) in
  let rec ordered = function
    | a :: (b :: _ as rest) -> compare (key a) (key b) <= 0 && ordered rest
    | _ -> true
  in
  if not (ordered parsed) then
    fail "%s events are not in (ts_ns, tid, seq) order" path;
  Printf.printf "obs_check: %s OK (%d events)\n" path (List.length parsed)

let check_status path =
  let j = parse path in
  expect_schema path j "bisram-progress/1";
  List.iter
    (fun k -> ignore (get path (J.field k J.int j)))
    [ "done"; "escapes"; "divergences"; "tool_errors"; "clean" ];
  if not (get path (J.field "finished" J.bool j)) then
    fail "%s is not final (finished = false after the run)" path;
  Printf.printf "obs_check: %s OK\n" path

(* ------------------------------------------------------------------ *)

let () =
  let usage =
    "usage: obs_check [--trace FILE] [--metrics FILE] [--events FILE] \
     [--status FILE]"
  in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--trace" :: path :: rest -> parse_args ((check_trace, path) :: acc) rest
    | "--metrics" :: path :: rest ->
        parse_args ((check_metrics, path) :: acc) rest
    | "--events" :: path :: rest ->
        parse_args ((check_events, path) :: acc) rest
    | "--status" :: path :: rest ->
        parse_args ((check_status, path) :: acc) rest
    | a :: _ -> fail "unknown argument %S (%s)" a usage
  in
  match parse_args [] (List.tl (Array.to_list Sys.argv)) with
  | [] -> fail "nothing to check (%s)" usage
  | checks -> List.iter (fun (check, path) -> check path) checks
