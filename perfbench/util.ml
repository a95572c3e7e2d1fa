(* Scratch directories, timing and the metric sink shared by the
   workloads. *)

let now = Bisram_parallel.Clock.now

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Wall seconds of [f ()], with its result. *)
let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [f ()], its wall seconds and the minor-heap words it allocated. *)
let measured f =
  let w0 = Gc.minor_words () in
  let v, dt = timed f in
  (v, dt, Gc.minor_words () -. w0)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let iratio a b = ratio (float_of_int a) (float_of_int b)
let ns_to_s ns = float_of_int ns /. 1e9

(* Busy share of the pool workers, from the program's
   [pool.worker<i>.busy_ns] / [idle_ns] telemetry counters. *)
let pool_busy_share counters =
  let sum suffix =
    List.fold_left
      (fun acc (k, v) ->
        if String.starts_with ~prefix:"pool.worker" k && String.ends_with ~suffix k
        then acc + v
        else acc)
      0 counters
  in
  let busy = sum ".busy_ns" in
  iratio busy (busy + sum ".idle_ns")

(* Peak major heap of the whole process so far, in MB (10^6 bytes). *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* Set-up timing samples: [n] samples, each the mean time of one set-up
   in a batch of 50, which keeps a sub-microsecond set-up well above the
   clock's resolution.  The workloads take a few samples between timed
   repetitions, so that [setup_s] (their median) spans the whole run
   like the throughput does. *)
let setup_samples ~n setup =
  let batch = 50 in
  List.init n (fun _ ->
      let (), dt =
        timed (fun () ->
            for _ = 1 to batch do
              setup ()
            done)
      in
      dt /. float_of_int batch)

(* Result of one invocation: operations attempted and failed, plus the
   metrics (name, unit, value) in the order they were recorded. *)
type outcome = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed checks, newest first *)
  mutable metrics : (string * string * float) list;  (** newest first *)
}

let outcome () = { attempted = 0; failed = 0; problems = []; metrics = [] }
let metric o name unit v = o.metrics <- (name, unit, v) :: o.metrics

(* Record a failed check; it is printed on stderr at once. *)
let problem o msg =
  prerr_endline ("perfbench: check failed: " ^ msg);
  o.problems <- msg :: o.problems

let check o cond msg = if not cond then problem o msg

(* A busy time (ns) as [name] in seconds and as [name.share] of the
   traced wall time [wall] (ns). *)
let busy_metric o ~wall name ns =
  metric o name "s" (ns_to_s ns);
  metric o (name ^ ".share") "ratio" (iratio ns wall)

(* The traced run's layer self times and the time left outside them,
   each with its share of the wall time, after the accounting check. *)
let layer_metrics o ~wall ~layers =
  let layer_ns, rest, adds_up = Trace.account ~wall ~layers in
  check o adds_up
    "trace spans are not well nested, or layer self times plus \
     unattributed time do not add up to the traced wall time";
  List.iter (fun (n, ns) -> busy_metric o ~wall (n ^ "_s") ns) layer_ns;
  busy_metric o ~wall "trace.unattributed_s" rest;
  metric o "trace.wall_s" "s" (ns_to_s wall);
  layer_ns

(* Count [n] operations of which [bad] failed. *)
let ops o ~n ~bad =
  o.attempted <- o.attempted + n;
  o.failed <- o.failed + bad
