(* The repository benchmark.

     bash perfbench/run.sh --workload tlb-2f --seed 42 --seconds 10 --trace 0

   Runs one seeded workload, checks every output it produces, and prints
   a few human-readable lines followed by one JSON line:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 they are the per-layer ones of a separate
   traced run.  Exits 1 when a check failed, 2 on bad arguments.
   NOTES.md describes the workloads and metrics. *)

module U = Util

let end_to_end =
  [ ("items_per_s", "1/s"); ("setup_s", "s"); ("heap_peak_mb", "MB")
  ; ("success_rate", "ratio") ]

(* Every per-layer metric, in print order.  A metric that does not apply
   to a workload reads 0 there.  Each busy time [x_s] also comes as
   [x_s.share], its share of the traced wall time. *)
let per_layer =
  let busy name = [ (name, "s"); (name ^ ".share", "ratio") ] in
  List.concat
    [ busy "faults.draw_s"
    ; busy "sram.model_create_s"
    ; busy "sram.lanes_arm_s"
    ; [ ("sram.legacy_read_share", "ratio")
      ; ("sram.legacy_write_share", "ratio")
      ; ("sram.reads_per_trial", "count") ]
    ; busy "bist.controller_s"
    ; busy "bist.controller_compile_s"
    ; busy "bist.lane_pass_s"
    ; [ ("bist.engine_ops_per_trial", "count")
      ; ("bist.sim_cycles_per_trial", "count")
      ; ("bist.host_ns_per_sim_cycle", "ns") ]
    ; busy "bisr.reference_s"
    ; busy "bisr.iterated_s"
    ; [ ("bisr.rounds_per_trial", "count") ]
    ; busy "bira.fast_s"
    ; busy "bira.reference_s"
    ; [ ("bira.rounds_per_trial", "count") ]
    ; busy "campaign.sweep_s"
    ; busy "campaign.lane_sweep_s"
    ; busy "campaign.shrink_s"
    ; [ ("campaign.shrinks_per_trial", "count")
      ; ("campaign.lane_fallback_share", "ratio") ]
    ; busy "campaign.checkpoint_s"
    ; [ ("campaign.checkpoint_records_written", "count")
      ; ("campaign.trial_ms.p50", "ms")
      ; ("campaign.trial_ms.tail", "ms")
      ; ("pool.busy_share", "ratio")
      ; ("pool.retries", "count")
      ; ("explore.cache_hit_share", "ratio")
      ; ("explore.evaluations", "count") ]
    ; busy "reliability.mttf_s"
    ; busy "reliability.crossover_s"
    ; busy "core.compile_s"
    ; busy "yield.eval_s"
    ; busy "cost.eval_s"
    ; [ ("gc.minor_words_per_trial", "count")
      ; ("gc.minor_words_per_point", "count")
      ; ("trace.wall_s", "s")
      ; ("trace.overhead_share", "ratio") ]
    ; busy "trace.unattributed_s"
    ]

let workloads =
  List.map (fun w -> w.Campaign_bench.name) Campaign_bench.workloads
  @ [ Explore_bench.name ]

let usage =
  Printf.sprintf
    "perfbench --workload {%s} [--seed N] [--seconds S] [--trace 0|1]\n\
     Default seeds: %d for the campaign workloads, %d for %s."
    (String.concat "|" workloads) Campaign_bench.default_seed
    Explore_bench.default_seed Explore_bench.name

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* The result line: the listed metrics in list order, each taken from
   the run (0 where the workload has no such metric). *)
let print_result o ~listed =
  let value name =
    List.find_map
      (fun (n, _, v) -> if String.equal n name then Some v else None)
      o.U.metrics
    |> Option.value ~default:0.0
  in
  let finite = List.for_all (fun (n, _) -> Float.is_finite (value n)) listed in
  let correct =
    finite && o.U.problems = [] && o.U.failed = 0 && o.U.attempted > 0
  in
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (value name)) unit)
      listed
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct o.U.attempted o.U.failed (String.concat ", " metrics);
  correct

let () =
  let workload = ref "" and seed = ref None and seconds = ref 15.0
  and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run")
    ; ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed")
    ; ("--seconds", Arg.Set_float seconds, "S measuring time per run")
    ; ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced (1) run")
    ]
  in
  let bad msg =
    prerr_endline ("perfbench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  Arg.parse spec (fun a -> bad ("unexpected argument " ^ a)) usage;
  if not (List.mem !workload workloads) then
    bad (Printf.sprintf "unknown workload %S" !workload);
  if !trace <> 0 && !trace <> 1 then bad "--trace must be 0 or 1";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  let work = ".perfbench-work" in
  U.rm_rf work;
  Sys.mkdir work 0o755;
  let o = U.outcome () in
  (try
     match Campaign_bench.find !workload with
     | Some w ->
         let seed = Option.value !seed ~default:Campaign_bench.default_seed in
         if !trace = 1 then Campaign_bench.traced o w ~seed ~work
         else Campaign_bench.timed o w ~seed ~seconds:!seconds ~work
     | None ->
         let seed = Option.value !seed ~default:Explore_bench.default_seed in
         if !trace = 1 then Explore_bench.traced o ~seed ~work
         else Explore_bench.timed o ~seed ~seconds:!seconds ~work
   with e -> U.problem o ("uncaught exception: " ^ Printexc.to_string e));
  U.rm_rf work;
  let listed =
    if !trace = 1 then per_layer
    else begin
      U.metric o "success_rate" "ratio"
        (1.0 -. U.iratio o.U.failed o.U.attempted);
      end_to_end
    end
  in
  List.iter
    (fun (n, _, _) ->
      if not (List.mem_assoc n listed) then
        U.problem o ("metric missing from the benchmark's list: " ^ n))
    o.U.metrics;
  Printf.printf "  error_rate %g (%d failed of %d attempted)\n"
    (U.iratio o.U.failed o.U.attempted)
    o.U.failed o.U.attempted;
  List.iter (fun p -> Printf.printf "  check failed: %s\n" p) (List.rev o.U.problems);
  if not (print_result o ~listed) then exit 1
