(* The bench regression gate, shared by bench_check (a fresh bench run
   against the committed baseline) and bench_page (the latest
   BENCH_history.jsonl record against the same baseline), so the two
   cannot disagree about what counts as a regression.

   Two headline figures are gated:
   - campaign trials_per_sec at jobs = 1 (the scalar scheduler);
   - lanes62_speedup: lane-batched over scalar trials_per_sec at 62
     lanes.  It is a ratio of two runs on one machine, so it carries
     over between the machine that wrote the baseline and the one
     checking it better than an absolute rate does, and history
     records already carry it.

   A figure regresses when it falls below baseline * (1 - tolerance).
   The tolerance is deliberately wide (35% by default): a shared CI box
   is noisy, and the gate exists to catch an accidental 2x slowdown,
   not a 5% wobble. *)

module J = Bisram_obs.Json

let default_tolerance = 0.35

type figure = {
  name : string;
  unit : string;
  history_key : string;  (* the field carrying it in a history record *)
  of_bench : J.t -> float option;  (* its value in a bench document *)
}

(* [field] of the first run in [section].runs whose [key] is [level];
   None when absent (a skipped level, an older schema, a --quick
   artifact without the section) *)
let run_figure ~section ~key ~level ~field doc =
  match J.field section (J.field "runs" (J.list Result.ok)) doc with
  | Error _ -> None
  | Ok runs ->
      List.find_map
        (fun r ->
          match J.field key J.number r with
          | Ok l when int_of_float l = level ->
              Result.to_option (J.field field J.number r)
          | _ -> None)
        runs

let figures =
  [ { name = "campaign jobs=1"
    ; unit = "trials/s"
    ; history_key = "campaign_trials_per_sec_jobs1"
    ; of_bench =
        run_figure ~section:"campaign" ~key:"jobs" ~level:1
          ~field:"trials_per_sec"
    }
  ; { name = "lanes=62 speedup"
    ; unit = "x"
    ; history_key = "lanes62_speedup"
    ; of_bench =
        run_figure ~section:"lanes" ~key:"lanes" ~level:62
          ~field:"speedup_vs_scalar"
    }
  ]

type verdict = Gated of { floor : float; ok : bool } | Ungated

(* a figure absent on either side is Ungated, never fatal: baselines
   predating a section must not brick CI *)
let verdict ~tolerance ~baseline ~fresh =
  match (baseline, fresh) with
  | Some b, Some c ->
      let floor = b *. (1.0 -. tolerance) in
      Gated { floor; ok = c >= floor }
  | _ -> Ungated

let read_doc path = Result.bind (J.read_file path) J.of_string
