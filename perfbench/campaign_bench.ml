(* The Monte Carlo campaign workloads: timed runs of [Campaign.run] and
   the traced re-drive of the same seeded trials through each layer's
   public functions. *)

module C = Bisram_campaign.Campaign
module Sweep = Bisram_campaign.Sweep
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Lanes = Bisram_sram.Lanes
module Alg = Bisram_bist.Algorithms
module March = Bisram_bist.March
module Controller = Bisram_bist.Controller
module Lane_engine = Bisram_bist.Lane_engine
module Datagen = Bisram_bist.Datagen
module Injection = Bisram_faults.Injection
module Repair = Bisram_bisr.Repair
module Tlb = Bisram_bisr.Tlb
module Bira = Bisram_bira.Bira
module Pool = Bisram_parallel.Pool
module Obs = Bisram_obs.Obs
module Events = Bisram_obs.Events
module J = Bisram_obs.Json
module T = Trace
module U = Util

type workload = {
  name : string;
  repair : string;  (** CLI spelling of the repair architecture *)
  mode : C.mode;
  spare_cols : int;
  trials : int;  (** per timed [Campaign.run] *)
  lanes : int;
  jobs : int;
  checkpoint_every : int;  (** 0 = no checkpoint *)
  scalar_check_all : bool;
      (** every timed input is checked against the scalar reference;
          otherwise only the first is, and the others against the lane
          scheduler on one domain without checkpoints *)
}

let workloads =
  [ { name = "tlb-2f"
    ; repair = "row-tlb"
    ; mode = C.Uniform 2
    ; spare_cols = 0
    ; trials = 400
    ; lanes = 62
    ; jobs = 1
    ; checkpoint_every = 0
    ; scalar_check_all = true
    }
  ; { name = "bira-p5"
    ; repair = "bira-bnb"
    ; mode = C.Poisson 5.0
    ; spare_cols = 2
    ; trials = 200
    ; lanes = 62
    ; jobs = 1
    ; checkpoint_every = 0
    ; scalar_check_all = true
    }
  ; { name = "sparse-ckpt"
    ; repair = "row-tlb"
    ; mode = C.Poisson 0.05
    ; spare_cols = 0
    ; trials = 9920
    ; lanes = 62
    ; jobs = 2
    ; checkpoint_every = 1000
    ; scalar_check_all = false
    }
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads
let default_seed = 42

(* ------------------------------------------------------------------ *)
(* set-up and output checks *)

let checkpoint_dir work = Filename.concat work "checkpoint"

(* What a user pays before the first trial: march lookup, organization
   and config build with validation, and the checkpoint policy for
   [ckpt_path] when the workload checkpoints.  Creating the checkpoint
   directory is left out: on the baseline machine a [mkdir]'s latency
   varied by +-90% between runs and would have drowned the rest. *)
let setup w ~seed ~ckpt_path =
  let march =
    match Alg.find "IFA-9" with
    | Some m -> m
    | None -> March.of_string ~name:"custom" "IFA-9"
  in
  let repair =
    match C.repair_of_name w.repair with
    | Some r -> r
    | None -> invalid_arg ("unknown repair " ^ w.repair)
  in
  let org =
    Org.make ~spares:4 ~spare_cols:w.spare_cols ~words:64 ~bpw:8 ~bpc:4 ()
  in
  let cfg =
    C.make_config ~org ~march ~mix:Injection.default_mix ~mode:w.mode ~repair
      ~trials:w.trials ~seed ()
  in
  let ck =
    match ckpt_path with
    | Some path when w.checkpoint_every > 0 ->
        Some (C.checkpoint ~path ~every:w.checkpoint_every ())
    | _ -> None
  in
  (cfg, ck)

(* One campaign on a fresh set-up (and a fresh checkpoint directory):
   the result, and the wall time and minor words of [Campaign.run]. *)
let run_measured w ~seed ~work ~jobs ~checkpoint =
  let dir = checkpoint_dir work in
  let ckpt_path =
    if checkpoint && w.checkpoint_every > 0 then begin
      Sys.mkdir dir 0o755;
      Some (Filename.concat dir "campaign.ckpt")
    end
    else None
  in
  let cfg, ck = setup w ~seed ~ckpt_path in
  let m = U.measured (fun () -> C.run ~jobs ~lanes:w.lanes ?checkpoint:ck cfg) in
  U.rm_rf dir;
  m

let run_once w ~seed ~work ~jobs ~checkpoint =
  let r, dt, _ = run_measured w ~seed ~work ~jobs ~checkpoint in
  (r, dt)

(* Check a report: every requested trial ran, none crashed or diverged,
   and (when given) the bytes equal the reference's.  A report
   that fails the byte or completeness check fails all its trials. *)
let check_report o w ~what ?reference r =
  let crashed = List.length r.C.tool_errors
  and diverged = List.length r.C.divergences in
  U.check o (crashed = 0) (Printf.sprintf "%s: %d tool errors" what crashed);
  U.check o (diverged = 0)
    (Printf.sprintf "%s: %d oracle divergences" what diverged);
  let complete = r.C.trials_run = w.trials && not r.C.truncated in
  U.check o complete
    (Printf.sprintf "%s: %d of %d trials, truncated %b" what r.C.trials_run
       w.trials r.C.truncated);
  let same =
    match reference with
    | None -> true
    | Some bytes -> String.equal bytes (C.json_string r)
  in
  U.check o same (what ^ ": report differs from its reference");
  U.ops o ~n:w.trials
    ~bad:(if complete && same then crashed + diverged else w.trials)

(* The reference report for an input: the scalar scheduler's (lanes 1,
   jobs 1, no checkpoint), or with [~lanes] the lane scheduler's on one
   domain without checkpoints.  Computed outside any timing. *)
let reference ?(lanes = 1) o w ~seed ~work =
  let r, _ = run_once { w with lanes } ~seed ~work ~jobs:1 ~checkpoint:false in
  check_report o w
    ~what:(if lanes = 1 then "scalar reference" else "lane reference")
    r;
  C.json_string r

(* ------------------------------------------------------------------ *)
(* timed run *)

(* A timed run cycles through [inputs] campaign seeds: the given seed
   and seeds derived from it.  Shrinking dominates a faulty trial's cost
   and the number of escapes to shrink varies by +-10% between inputs of
   a few hundred faulty trials, so a run that repeated a single input
   would measure that input as much as the program. *)
let inputs = 4

let input_seed seed i =
  if i = 0 then seed
  else Random.State.bits (Random.State.make [| 0xBE7C; seed; i |])

let timed o w ~seed ~seconds ~work =
  let setup_sample s =
    U.setup_samples ~n:5 (fun () ->
        ignore (setup w ~seed:s ~ckpt_path:(Some "campaign.ckpt")))
  in
  (* warm-up: one untimed repetition of the first input *)
  let warm, _ = run_once w ~seed ~work ~jobs:w.jobs ~checkpoint:true in
  let reps = ref [] and setups = ref [] in
  let t_start = U.now () in
  while U.now () -. t_start < seconds || List.length !reps < inputs do
    let s = input_seed seed (List.length !reps mod inputs) in
    setups := setup_sample s @ !setups;
    let r, dt = run_once w ~seed:s ~work ~jobs:w.jobs ~checkpoint:true in
    reps := (r, dt) :: !reps
  done;
  let reps = List.rev !reps in
  (* before the reference runs, whose heap is not the workload's *)
  U.metric o "heap_peak_mb" "MB" (U.heap_peak_mb ());
  (* output checks, after the timing: every repetition's report against
     the reference for its input *)
  let references =
    Array.init inputs (fun i ->
        let seed = input_seed seed i in
        if i = 0 || w.scalar_check_all then reference o w ~seed ~work
        else reference ~lanes:w.lanes o w ~seed ~work)
  in
  check_report o w ~what:"warm-up run" ~reference:references.(0) warm;
  List.iteri
    (fun k (r, _) ->
      check_report o w ~what:"timed run" ~reference:references.(k mod inputs) r)
    reps;
  let rates = List.map (fun (_, dt) -> float_of_int w.trials /. dt) reps in
  let total = List.fold_left (fun acc (_, dt) -> acc +. dt) 0.0 reps in
  let rate = float_of_int (w.trials * List.length reps) /. total in
  Printf.printf
    "%s: %d trials per repetition, lanes %d, jobs %d, seed %d (%d inputs)\n"
    w.name w.trials w.lanes w.jobs seed inputs;
  Printf.printf "  items_per_s (trials/s)  %.6g over %d repetitions; per repetition %s\n"
    rate (List.length reps) (Stats.describe rates);
  Printf.printf "  setup_s                 %s\n" (Stats.describe !setups);
  U.metric o "items_per_s" "1/s" rate;
  U.metric o "setup_s" "s" (Stats.median !setups)

(* ------------------------------------------------------------------ *)
(* traced re-drive

   The same seeded trials as [Campaign.run], driven from outside in the
   order [Campaign.run]'s lane-batch scheduler computes them: full
   batches go through the lane store, engine and lane sweep, and every
   lane that is not clean — as well as the ragged tail — runs the
   scalar flow of the trial's repair architecture, then the escape
   sweeps and shrinking of any anomaly.  Each call into a layer is a
   span named after the layer metric it feeds. *)

type tally = {
  mutable two_pass : C.histogram;
  mutable iterated : C.histogram;
  mutable rounds : (int * int) list;
  mutable escapes : int;
  mutable divergences : int;
  mutable shrinks : int;
  mutable fallbacks : int;
  mutable reads : int;
  mutable writes : int;
  mutable fast_reads : int;
  mutable fast_writes : int;
  mutable cycles : int;
  mutable controller_runs : int;
  mutable trial_ms : float list;
}

let tally () =
  let h =
    { C.passed_clean = 0
    ; repaired = 0
    ; too_many_faulty_rows = 0
    ; fault_in_second_pass = 0
    }
  in
  { two_pass = h
  ; iterated = h
  ; rounds = []
  ; escapes = 0
  ; divergences = 0
  ; shrinks = 0
  ; fallbacks = 0
  ; reads = 0
  ; writes = 0
  ; fast_reads = 0
  ; fast_writes = 0
  ; cycles = 0
  ; controller_runs = 0
  ; trial_ms = []
  }

let count (h : C.histogram) = function
  | Repair.Passed_clean -> { h with C.passed_clean = h.C.passed_clean + 1 }
  | Repair.Repaired _ -> { h with C.repaired = h.C.repaired + 1 }
  | Repair.Repair_unsuccessful Repair.Too_many_faulty_rows ->
      { h with C.too_many_faulty_rows = h.C.too_many_faulty_rows + 1 }
  | Repair.Repair_unsuccessful Repair.Fault_in_second_pass ->
      { h with C.fault_in_second_pass = h.C.fault_in_second_pass + 1 }

let note_rounds t r =
  let n = Option.value ~default:0 (List.assoc_opt r t.rounds) in
  t.rounds <- (r, n + 1) :: List.remove_assoc r t.rounds

let success = function
  | Repair.Passed_clean | Repair.Repaired _ -> true
  | Repair.Repair_unsuccessful _ -> false

(* The campaign's per-trial fault draw: the trial seed feeds a fresh
   generator, and the count model picks the injection routine. *)
let draw (cfg : C.config) ~index =
  T.span ~req:index "faults.draw" (fun () ->
      let rng = Random.State.make [| 0xB15; C.trial_seed cfg index |] in
      let rows = Org.total_rows cfg.C.org and cols = Org.total_cols cfg.C.org in
      let mix = cfg.C.mix in
      match cfg.C.mode with
      | C.Uniform n -> Injection.inject rng ~rows ~cols ~mix ~n
      | C.Poisson mean -> Injection.inject_poisson rng ~rows ~cols ~mix ~mean
      | C.Clustered { mean; alpha } ->
          Injection.inject_clustered rng ~rows ~cols ~mix ~mean ~alpha)

let model t (cfg : C.config) faults =
  let m =
    T.span "sram.model_create" (fun () ->
        let m = Model.create cfg.C.org in
        Model.set_faults m faults;
        m)
  in
  (* the flow's telemetry counts the per-flow models, read after use *)
  (m, fun () ->
        let s = Model.stats m in
        t.reads <- t.reads + s.Model.s_reads;
        t.writes <- t.writes + s.Model.s_writes;
        t.fast_reads <- t.fast_reads + s.Model.s_fast_reads;
        t.fast_writes <- t.fast_writes + s.Model.s_fast_writes)

let sweep flow m =
  match T.span "campaign.sweep" (fun () -> Sweep.run m) with
  | [] -> []
  | mismatches -> [ C.Escape { flow; mismatches } ]

let divergence = C.Divergence { detail = "re-driven trial" }

(* Scalar flows; each returns (two-pass outcome, iterated outcome,
   rounds, anomalies). *)
let tlb_flow t (cfg : C.config) faults bgs =
  let mc, fc = model t cfg faults in
  let controller, report, c_tlb =
    T.span "bist.controller" (fun () -> Repair.run mc cfg.C.march ~backgrounds:bgs)
  in
  t.controller_runs <- t.controller_runs + 1;
  t.cycles <- t.cycles + report.Controller.cycles;
  let mr, fr = model t cfg faults in
  let reference, r_tlb =
    T.span "bisr.reference" (fun () ->
        Repair.run_reference mr cfg.C.march ~backgrounds:bgs)
  in
  let mi, fi = model t cfg faults in
  let it =
    T.span "bisr.iterated" (fun () ->
        Repair.run_iterated_result ~max_rounds:cfg.C.max_rounds mi cfg.C.march
          ~backgrounds:bgs)
  in
  let diverged =
    controller <> reference
    || (success controller && Tlb.mapped_rows c_tlb <> Tlb.mapped_rows r_tlb)
  in
  let anomalies =
    (if diverged then [ divergence ] else [])
    @ (if success controller then sweep C.Two_pass mc else [])
    @ if success it.Repair.i_outcome then sweep C.Iterated mi else []
  in
  fc ();
  fr ();
  fi ();
  (controller, it.Repair.i_outcome, it.Repair.i_rounds, anomalies)

let bira_flow t (cfg : C.config) strat faults bgs =
  let bira name fast m =
    T.span name (fun () ->
        Bira.run ~max_rounds:cfg.C.max_rounds ~fast strat m cfg.C.march
          ~backgrounds:bgs)
  in
  let mc, fc = model t cfg faults in
  let c = bira "bira.fast" true mc in
  let mr, fr = model t cfg faults in
  let r = bira "bira.reference" false mr in
  let co = c.Bira.b_outcome and ro = r.Bira.b_outcome in
  let diverged = co <> ro || (success co && c.Bira.b_alloc <> r.Bira.b_alloc) in
  let anomalies =
    (if diverged then [ divergence ] else [])
    @ (if success co then sweep C.Two_pass mc else [])
    @ if success ro then sweep C.Iterated mr else []
  in
  fc ();
  fr ();
  (co, co, c.Bira.b_rounds, anomalies)

let scalar_trial t (cfg : C.config) ~index =
  T.span ~req:index "trial" (fun () ->
      let faults = draw cfg ~index in
      let bgs = Datagen.required_backgrounds ~bpw:cfg.C.org.Org.bpw in
      let two, iter, rounds, anomalies =
        match cfg.C.repair with
        | C.Row_tlb -> tlb_flow t cfg faults bgs
        | C.Bira strat -> bira_flow t cfg strat faults bgs
      in
      List.iter
        (fun a ->
          (match a with
          | C.Escape _ -> t.escapes <- t.escapes + 1
          | C.Divergence _ -> t.divergences <- t.divergences + 1);
          t.shrinks <- t.shrinks + 1;
          ignore
            (T.span "campaign.shrink" (fun () -> C.shrink_anomaly cfg a faults)))
        anomalies;
      t.two_pass <- count t.two_pass two;
      t.iterated <- count t.iterated iter;
      note_rounds t rounds)

let popcount m =
  let rec go n m = if m = 0 then n else go (n + 1) (m land (m - 1)) in
  go 0 m

(* One full lane batch: the fail mask of the lanes that must fall back. *)
let lane_batch (cfg : C.config) ~start ~len =
  T.span ~req:start "batch" (fun () ->
      let lanes =
        T.span "sram.lanes_arm" (fun () ->
            let lanes = Lanes.create cfg.C.org ~lanes:len in
            for l = 0 to len - 1 do
              Lanes.arm lanes ~lane:l (draw cfg ~index:(start + l))
            done;
            Lanes.clear lanes;
            lanes)
      in
      let bgs = Datagen.required_backgrounds ~bpw:cfg.C.org.Org.bpw in
      let all = Lanes.all_mask lanes in
      let pass ?clear () =
        T.span "bist.lane_pass" (fun () ->
            Lane_engine.run_pass ?clear lanes cfg.C.march ~backgrounds:bgs)
      in
      let lane_sweep () =
        T.span "campaign.lane_sweep" (fun () -> Sweep.run_lanes lanes)
      in
      let dirty = ref (pass ()) in
      if !dirty <> all then begin
        dirty := !dirty lor pass ~clear:false ();
        if !dirty <> all then dirty := !dirty lor lane_sweep ();
        if !dirty <> all then begin
          dirty := !dirty lor pass ();
          dirty := !dirty lor lane_sweep ()
        end
      end;
      !dirty land all)

let ms_since t0 = float_of_int (T.now () - t0) /. 1e6

let redrive (cfg : C.config) ~lanes =
  T.reset ();
  let t = tally () in
  let ranges = Pool.batch_ranges ~items:cfg.C.trials ~width:lanes in
  let t0 = T.now () in
  Array.iter
    (fun (start, len) ->
      let b0 = T.now () in
      if len = 1 then begin
        scalar_trial t cfg ~index:start;
        t.trial_ms <- ms_since b0 :: t.trial_ms
      end
      else begin
        let dirty = lane_batch cfg ~start ~len in
        let per_lane = ms_since b0 /. float_of_int len in
        t.fallbacks <- t.fallbacks + popcount dirty;
        for l = 0 to len - 1 do
          if dirty land (1 lsl l) <> 0 then begin
            let s0 = T.now () in
            scalar_trial t cfg ~index:(start + l);
            t.trial_ms <- (per_lane +. ms_since s0) :: t.trial_ms
          end
          else begin
            (* a clean lane's record is forced: clean on both flows,
               verified on the first round *)
            t.two_pass <- count t.two_pass Repair.Passed_clean;
            t.iterated <- count t.iterated Repair.Passed_clean;
            note_rounds t 1;
            t.trial_ms <- per_lane :: t.trial_ms
          end
        done
      end)
    ranges;
  (t, T.now () - t0)

(* ------------------------------------------------------------------ *)
(* telemetry-on runs: the program's own counters and events *)

type counted = {
  report : C.result;
  counters : (string * int) list;
  cycles_sum : int;
  shrink_spans : int;
  records_written : int;
}

let counted_run w ~seed ~work ~jobs =
  Obs.reset ();
  Events.reset ();
  Obs.set_enabled true;
  Events.set_enabled true;
  let report, _ = run_once w ~seed ~work ~jobs ~checkpoint:true in
  let snap = Obs.snapshot () in
  let events = Events.drain () in
  Obs.set_enabled false;
  Events.set_enabled false;
  Obs.reset ();
  Events.reset ();
  let cycles_sum =
    match List.assoc_opt "campaign.cycles" snap.Obs.hists with
    | Some h -> h.Obs.sum
    | None -> 0
  in
  let records_written =
    List.fold_left
      (fun acc e ->
        match (e.Events.ev_name, List.assoc_opt "records" e.Events.ev_fields) with
        | "checkpoint.write", Some (J.Int n) -> acc + n
        | _ -> acc)
      0 events
  in
  { report
  ; counters = snap.Obs.counters
  ; cycles_sum
  ; shrink_spans =
      List.length
        (List.filter (fun s -> String.equal s.Obs.name "shrink") snap.Obs.spans)
  ; records_written
  }

let counter c name = Option.value ~default:0 (List.assoc_opt name c.counters)

(* The deterministic work ledger of a counted run: exact counts that
   must repeat run after run. *)
let ledger c =
  [ ("engine.ops", counter c "engine.ops")
  ; ("campaign.cycles", c.cycles_sum)
  ; ("model.reads", counter c "model.reads")
  ; ("model.writes", counter c "model.writes")
  ; ("model.legacy_reads", counter c "model.legacy_reads")
  ; ("model.legacy_writes", counter c "model.legacy_writes")
  ; ("campaign.lane_fallbacks", counter c "campaign.lane_fallbacks")
  ; ("campaign.lane_occupancy_filled", counter c "campaign.lane_occupancy_filled")
  ; ("campaign.shrinks", c.shrink_spans)
  ; ("checkpoint.records_written", c.records_written)
  ]

(* ------------------------------------------------------------------ *)
(* traced run *)

let layer_spans =
  [ "faults.draw"; "sram.model_create"; "sram.lanes_arm"; "bist.controller"
  ; "bist.lane_pass"; "bisr.reference"; "bisr.iterated"; "bira.fast"
  ; "bira.reference"; "campaign.sweep"; "campaign.lane_sweep"
  ; "campaign.shrink" ]

let traced o w ~seed ~work =
  let reference = reference o w ~seed ~work in
  let trials = w.trials in
  (* untraced jobs-1 runs without checkpoints: the overhead baseline and
     the allocation ledger *)
  let base =
    List.init 3 (fun _ ->
        let r, dt, words = run_measured w ~seed ~work ~jobs:1 ~checkpoint:false in
        check_report o w ~what:"baseline run" ~reference r;
        (dt, words))
  in
  let base_wall = Stats.median (List.map fst base) in
  let words = List.map snd base in
  List.iter
    (fun x ->
      U.check o (x = List.hd words)
        (Printf.sprintf
           "gc minor words differ between identical jobs-1 runs: %.0f vs %.0f"
           (List.hd words) x))
    words;
  (* checkpoint cost: the same jobs-1 runs with checkpoints on *)
  let ckpt_wall =
    if w.checkpoint_every = 0 then base_wall
    else
      Stats.median
        (List.init 3 (fun _ ->
             let r, dt = run_once w ~seed ~work ~jobs:1 ~checkpoint:true in
             check_report o w ~what:"checkpointed run" ~reference r;
             dt))
  in
  (* two telemetry-on runs at jobs 1 give the exact counts *)
  let c1 = counted_run w ~seed ~work ~jobs:1 in
  let c2 = counted_run w ~seed ~work ~jobs:1 in
  check_report o w ~what:"counted run" ~reference c1.report;
  check_report o w ~what:"counted run" ~reference c2.report;
  List.iter2
    (fun (k, a) (_, b) ->
      U.check o (a = b)
        (Printf.sprintf "ledger count %s differs between runs: %d vs %d" k a b))
    (ledger c1) (ledger c2);
  let busy =
    if w.jobs = 1 then U.pool_busy_share c1.counters
    else begin
      let cj = counted_run w ~seed ~work ~jobs:w.jobs in
      check_report o w ~what:"counted parallel run" ~reference cj.report;
      U.pool_busy_share cj.counters
    end
  in
  (* the traced re-drive, and the trace-accounting checks against what
     [Campaign.run] reported and counted *)
  let cfg, _ = setup w ~seed ~ckpt_path:None in
  let t, wall = redrive cfg ~lanes:w.lanes in
  U.ops o ~n:trials ~bad:0;
  let r = c1.report in
  let agree what a b =
    U.check o (a = b)
      (Printf.sprintf "re-driven %s differs from Campaign.run: %d vs %d" what a
         b)
  in
  U.check o
    (t.two_pass = r.C.two_pass && t.iterated = r.C.iterated)
    "re-driven outcome histograms differ from the report";
  U.check o
    (List.sort compare t.rounds = r.C.rounds)
    "re-driven round histogram differs from the report";
  agree "escapes" t.escapes (List.length r.C.escapes);
  agree "divergences" t.divergences (List.length r.C.divergences);
  agree "shrinks" t.shrinks c1.shrink_spans;
  agree "lane fallbacks" t.fallbacks (counter c1 "campaign.lane_fallbacks");
  agree "model reads" t.reads (counter c1 "model.reads");
  agree "model writes" t.writes (counter c1 "model.writes");
  agree "fast reads" t.fast_reads (counter c1 "model.fast_reads");
  agree "fast writes" t.fast_writes (counter c1 "model.fast_writes");
  agree "controller cycles" t.cycles c1.cycles_sum;
  let layer_ns = U.layer_metrics o ~wall ~layers:layer_spans in
  let self n = List.assoc n layer_ns in
  (* Repair.run compiles the controller on every call; the compile cost
     is timed apart, one standalone compile per Repair.run call, and is
     part of bist.controller_s rather than added to it *)
  let compile_ns =
    let bgs = Datagen.required_backgrounds ~bpw:cfg.C.org.Org.bpw in
    if t.controller_runs = 0 then 0
    else
    let t0 = T.now () in
    for _ = 1 to t.controller_runs do
      ignore
        (Controller.compile cfg.C.march ~words:cfg.C.org.Org.words
           ~backgrounds:bgs)
    done;
    T.now () - t0
  in
  U.busy_metric o ~wall "bist.controller_compile_s" compile_ns;
  let per_trial x = U.ratio x (float_of_int trials) in
  let reads = counter c1 "model.reads" and writes = counter c1 "model.writes" in
  U.metric o "sram.legacy_read_share" "ratio"
    (U.iratio (counter c1 "model.legacy_reads") reads);
  U.metric o "sram.legacy_write_share" "ratio"
    (U.iratio (counter c1 "model.legacy_writes") writes);
  U.metric o "sram.reads_per_trial" "count" (per_trial (float_of_int reads));
  U.metric o "bist.engine_ops_per_trial" "count"
    (per_trial (float_of_int (counter c1 "engine.ops")));
  U.metric o "bist.sim_cycles_per_trial" "count"
    (per_trial (float_of_int c1.cycles_sum));
  U.metric o "bist.host_ns_per_sim_cycle" "ns"
    (U.ratio (float_of_int (self "bist.controller")) (float_of_int t.cycles));
  let rounds =
    per_trial (float_of_int (List.fold_left (fun a (k, n) -> a + (k * n)) 0 r.C.rounds))
  in
  let is_bira = match cfg.C.repair with C.Bira _ -> true | C.Row_tlb -> false in
  U.metric o "bisr.rounds_per_trial" "count" (if is_bira then 0.0 else rounds);
  U.metric o "bira.rounds_per_trial" "count" (if is_bira then rounds else 0.0);
  U.metric o "campaign.shrinks_per_trial" "count"
    (per_trial (float_of_int c1.shrink_spans));
  U.metric o "campaign.lane_fallback_share" "ratio"
    (U.iratio
       (counter c1 "campaign.lane_fallbacks")
       (counter c1 "campaign.lane_occupancy_filled"));
  let ckpt_s = ckpt_wall -. base_wall in
  U.metric o "campaign.checkpoint_s" "s" ckpt_s;
  U.metric o "campaign.checkpoint_s.share" "ratio" (U.ratio ckpt_s ckpt_wall);
  U.metric o "campaign.checkpoint_records_written" "count"
    (float_of_int c1.records_written);
  let tail = Stats.tail_percentile (List.length t.trial_ms) in
  U.metric o "campaign.trial_ms.p50" "ms" (Stats.median t.trial_ms);
  U.metric o "campaign.trial_ms.tail" "ms" (Stats.percentile t.trial_ms tail);
  U.metric o "pool.busy_share" "ratio" busy;
  U.metric o "pool.retries" "count" (float_of_int (counter c1 "pool.retries"));
  U.metric o "gc.minor_words_per_trial" "count" (per_trial (List.hd words));
  U.metric o "trace.overhead_share" "ratio"
    (U.ratio (U.ns_to_s wall -. base_wall) base_wall);
  let wall_s = U.ns_to_s wall in
  Printf.printf "%s (traced): %d trials, lanes %d, seed %d\n" w.name trials
    w.lanes seed;
  Printf.printf "  untraced jobs-1 wall %.4f s, traced wall %.4f s\n" base_wall
    wall_s;
  Printf.printf "  trial_ms p50 %.4f, p%g %.4f (n = %d)\n"
    (Stats.median t.trial_ms) tail
    (Stats.percentile t.trial_ms tail)
    (List.length t.trial_ms)
