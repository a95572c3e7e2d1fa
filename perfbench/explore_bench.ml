(* The design-space workload: the paper's Fig. 4 sweep through
   [Explore.run], and its traced re-drive through the analysis layers. *)

module E = Bisram_explore.Explore
module Spec = Bisram_explore.Spec
module Org = Bisram_sram.Org
module Compiler = Bisram_core.Compiler
module Repairable = Bisram_yield.Repairable
module Stapper = Bisram_yield.Stapper
module Mpr = Bisram_cost.Mpr
module Rel = Bisram_rel.Reliability
module Obs = Bisram_obs.Obs
module J = Bisram_obs.Json
module T = Trace
module U = Util

let name = "explore-fig4"
let default_seed = 0
let base_mean_defects = [ 0.5; 1.0; 2.0; 5.0; 10.0 ]

(* Seed 0 is the paper's exact lattice.  Any other seed scales each
   mean-defect value by its own factor in [0.9, 1.1): the lattice shape,
   the evaluators and the reliability work stay those of Fig. 4, while
   the yield and cost inputs are data no change was tuned on. *)
let mean_defects seed =
  if seed = 0 then base_mean_defects
  else
    let rng = Random.State.make [| 0xF16; seed |] in
    List.map
      (fun m -> m *. (0.9 +. Random.State.float rng 0.2))
      base_mean_defects

let spec_text seed =
  String.concat "\n"
    [ "# Fig. 4 sweep"
    ; "words        = 4096"
    ; "bpw          = 4"
    ; "bpc          = 4"
    ; "spares       = 0, 4, 8, 16"
    ; "mean_defects = "
      ^ String.concat ", "
          (List.map (Printf.sprintf "%.17g") (mean_defects seed))
    ; "alpha        = 2"
    ; "lambda       = 1e-10"
    ; ""
    ]

let cache_dir work = Filename.concat work "cache"

(* What a user pays before the first point: spec parse and validation.
   Creating the cache directory is left out, as for the campaign
   checkpoint directory: its latency varied by +-80% between runs. *)
let setup ~seed =
  match Spec.of_string (spec_text seed) with
  | Error e -> invalid_arg ("Fig. 4 spec: " ^ e)
  | Ok spec -> spec

(* A cold sweep into a fresh cache, checked against a warm re-run over
   the cache it just wrote and (when given) the reference bytes.
   Returns the report bytes, the cold run's result, and its wall time
   and minor words. *)
let checked_run o ~seed ~work ?reference ~what () =
  let dir = cache_dir work in
  let spec = setup ~seed in
  Sys.mkdir dir 0o755;
  let r, dt, words = U.measured (fun () -> E.run ~jobs:1 ~cache_dir:dir spec) in
  let bytes = E.json_string r in
  let warm = E.run ~jobs:1 ~cache_dir:dir ~resume:true spec in
  U.rm_rf dir;
  let points = Array.length r.E.points in
  let same_warm = String.equal bytes (E.json_string warm) in
  U.check o same_warm (what ^ ": report differs from its warm re-run");
  U.check o
    (warm.E.cache_hits = E.evaluations warm)
    (what ^ ": warm re-run missed the cache");
  let same_ref =
    match reference with None -> true | Some b -> String.equal b bytes
  in
  U.check o same_ref (what ^ ": report differs from the first run's");
  U.ops o ~n:points ~bad:(if same_warm && same_ref then 0 else points);
  (bytes, r, dt, words)

let run_or_fail o ~what f =
  match f () with
  | v -> Some v
  | exception e ->
      (* an evaluation that raised fails the whole sweep *)
      U.problem o (what ^ ": " ^ Printexc.to_string e);
      U.ops o ~n:1 ~bad:1;
      None

let timed o ~seed ~seconds ~work =
  let rates = ref [] and setups = ref [] and reference = ref None in
  let points = ref 0 and total = ref 0.0 in
  let t_start = U.now () in
  let continue = ref true in
  while !continue && (U.now () -. t_start < seconds || List.length !rates < 2) do
    match
      run_or_fail o ~what:"timed sweep" (fun () ->
          checked_run o ~seed ~work ?reference:!reference ~what:"timed sweep" ())
    with
    | None -> continue := false
    | Some (bytes, r, dt, _) ->
        (* set-up samples after each sweep, so that they are timed warm
           as in the campaign workloads *)
        setups := U.setup_samples ~n:10 (fun () -> ignore (setup ~seed)) @ !setups;
        if !reference = None then reference := Some bytes;
        points := !points + Array.length r.E.points;
        total := !total +. dt;
        rates := (float_of_int (Array.length r.E.points) /. dt) :: !rates
  done;
  U.metric o "heap_peak_mb" "MB" (U.heap_peak_mb ());
  let points_per_s = U.ratio (float_of_int !points) !total in
  Printf.printf "%s: 20-point Fig. 4 sweep, cold cache, jobs 1, seed %d\n" name
    seed;
  Printf.printf "  items_per_s (points/s)  %.6g over %d sweeps; per sweep %s\n"
    points_per_s (List.length !rates) (Stats.describe !rates);
  Printf.printf "  setup_s                 %s\n" (Stats.describe !setups);
  U.metric o "items_per_s" "1/s" points_per_s;
  U.metric o "setup_s" "s" (Stats.median !setups)

(* ------------------------------------------------------------------ *)
(* traced re-drive: the layer functions each evaluator calls, once per
   point, with no cache *)

type point_values = {
  module_mm2 : float;
  repairable : float;
  cost_per_good_die : float option;
  mttf_h : float;
}

let geometry org (a : Compiler.area_report) =
  if org.Org.spares = 0 then Repairable.bare ~regular_rows:(Org.rows org)
  else
    Repairable.make ~regular_rows:(Org.rows org) ~spares:org.Org.spares
      ~logic_fraction:(a.Compiler.logic_mm2 /. a.Compiler.module_mm2)
      ~growth_factor:(max 1.0 a.Compiler.growth_factor)

let redrive_point (spec : Spec.t) (p : Spec.point) =
  T.span ~req:p.Spec.index "point" (fun () ->
      let org = p.Spec.org in
      let d =
        T.span "core.compile" (fun () ->
            Compiler.compile (Spec.config_of_point spec p))
      in
      let a = d.Compiler.area in
      let repairable =
        T.span "yield.eval" (fun () ->
            let g = geometry org a in
            let y =
              Repairable.yield g ~mean_defects:p.Spec.mean_defects
                ~alpha:p.Spec.alpha
            in
            ignore (Repairable.yield_poisson g ~mean_defects:p.Spec.mean_defects);
            ignore
              (Stapper.stapper_yield ~mean_defects:p.Spec.mean_defects
                 ~alpha:p.Spec.alpha);
            y)
      in
      let cost_per_good_die =
        T.span "cost.eval" (fun () ->
            let chip = spec.Spec.chip in
            let params =
              { Mpr.spares = org.Org.spares
              ; cache_rows = Org.rows org
              ; area_overhead = max 0.0 (a.Compiler.overhead_total_pct /. 100.0)
              ; alpha = p.Spec.alpha
              }
            in
            match Mpr.die_bisr chip params with
            | None -> None
            | Some bisr ->
                ignore (Mpr.die_plain chip);
                ignore (Mpr.totals_plain chip);
                ignore (Mpr.totals_bisr chip params);
                Some bisr.Mpr.cost_per_good_die)
      in
      let c = Rel.of_org org ~lambda:p.Spec.lambda in
      let mttf = T.span "reliability.mttf" (fun () -> Rel.mttf c) in
      ignore (Rel.reliability c 8760.0);
      ignore (Rel.reliability c 87600.0);
      (* Fig. 5 crossover against the 4-spare baseline *)
      if org.Org.spares <> 4 then begin
        let base_org =
          Org.make ~spares:4 ~words:org.Org.words ~bpw:org.Org.bpw
            ~bpc:org.Org.bpc ()
        in
        let base = Rel.of_org base_org ~lambda:p.Spec.lambda in
        let fewer, more = if org.Org.spares < 4 then (c, base) else (base, c) in
        let t1 =
          20.0 *. Float.max mttf (T.span "reliability.mttf" (fun () -> Rel.mttf base))
        in
        ignore
          (T.span "reliability.crossover" (fun () ->
               Rel.crossover fewer more ~t0:1.0 ~t1 ~steps:4000))
      end;
      { module_mm2 = a.Compiler.module_mm2
      ; repairable
      ; cost_per_good_die
      ; mttf_h = mttf
      })

let layer_spans =
  [ "core.compile"; "yield.eval"; "cost.eval"; "reliability.mttf"
  ; "reliability.crossover" ]

(* The report's value of one evaluator field, as rendered JSON. *)
let report_field (r : E.result) i ~evaluator ~field =
  Option.bind (List.assoc_opt evaluator r.E.evals.(i)) (J.member field)
  |> Option.map J.to_string

let float_json x = Some (J.to_string (J.Float x))

let traced o ~seed ~work =
  (* telemetry-on cold sweep: the checked report, the cache counters and
     the pool's busy/idle counters *)
  Obs.reset ();
  Obs.set_enabled true;
  let ref_bytes, r, _, _ = checked_run o ~seed ~work ~what:"counted sweep" () in
  let snap = Obs.snapshot () in
  Obs.set_enabled false;
  Obs.reset ();
  (* two untraced sweeps without a cache directory, like the re-drive:
     the overhead baseline and the allocation ledger (the cache's file
     I/O allocates a few words more or less from run to run) *)
  let spec = setup ~seed in
  let base =
    List.init 2 (fun _ ->
        let r', dt, words = U.measured (fun () -> E.run ~jobs:1 spec) in
        U.check o
          (String.equal (E.json_string r') ref_bytes)
          "uncached sweep report differs from the cached one";
        U.ops o ~n:(Array.length r'.E.points) ~bad:0;
        (dt, words))
  in
  let words = snd (List.hd base) in
  List.iter
    (fun (_, w) ->
      U.check o (w = words)
        (Printf.sprintf
           "gc minor words differ between identical jobs-1 sweeps: %.0f vs %.0f"
           words w))
    base;
  let base_wall = Stats.median (List.map fst base) in
  (* the traced re-drive *)
  T.reset ();
  let t0 = T.now () in
  let points, _ = Spec.expand spec in
  let values = Array.map (redrive_point spec) points in
  let wall = T.now () - t0 in
  U.ops o ~n:(Array.length points) ~bad:0;
  (* trace accounting: the re-driven layer calls reproduce the report *)
  Array.iteri
    (fun i v ->
      let agree evaluator field x =
        U.check o
          (report_field r i ~evaluator ~field = x)
          (Printf.sprintf "re-driven %s.%s of point %d differs from the report"
             evaluator field i)
      in
      agree "area" "module_mm2" (float_json v.module_mm2);
      agree "yield" "repairable" (float_json v.repairable);
      agree "cost" "cost_per_good_die" (Option.bind v.cost_per_good_die float_json);
      agree "reliability" "mttf_h" (float_json v.mttf_h))
    values;
  ignore (U.layer_metrics o ~wall ~layers:layer_spans);
  let evaluations = E.evaluations r in
  U.metric o "explore.evaluations" "count" (float_of_int evaluations);
  U.metric o "explore.cache_hit_share" "ratio" (U.iratio r.E.cache_hits evaluations);
  U.metric o "pool.busy_share" "ratio" (U.pool_busy_share snap.Obs.counters);
  U.metric o "gc.minor_words_per_point" "count"
    (U.ratio words (float_of_int (Array.length points)));
  let wall_s = U.ns_to_s wall in
  U.metric o "trace.overhead_share" "ratio" (U.ratio (wall_s -. base_wall) base_wall);
  Printf.printf "%s (traced): %d points, seed %d\n" name (Array.length points) seed;
  Printf.printf "  untraced wall %.4f s, traced wall %.4f s, cache hits %d of %d\n"
    base_wall wall_s r.E.cache_hits evaluations
