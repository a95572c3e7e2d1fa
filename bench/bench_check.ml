(* Bench regression gate: compare a fresh bench run against the
   committed baseline on the headline figures and floor rule of
   {!Gate}, failing when one regressed beyond the tolerance.

   --advisory turns failures into warnings (exit 0) so low-core or
   heavily shared machines can keep the check in `make ci` without
   flaking the whole pipeline; the comparison is still printed. *)

let parse_file label path =
  match Gate.read_doc path with
  | Ok j -> j
  | Error e ->
      Printf.eprintf "bench_check: %s %s: %s\n" label path e;
      exit 2

let () =
  let baseline = ref "BENCH_campaign.json" in
  let fresh = ref "" in
  let tolerance = ref Gate.default_tolerance in
  let advisory = ref false in
  let rec parse = function
    | [] -> ()
    | "--baseline" :: p :: rest ->
        baseline := p;
        parse rest
    | "--fresh" :: p :: rest ->
        fresh := p;
        parse rest
    | "--tolerance" :: t :: rest ->
        tolerance := float_of_string t;
        parse rest
    | "--advisory" :: rest ->
        advisory := true;
        parse rest
    | a :: _ ->
        Printf.eprintf "bench_check: unknown argument %S\n" a;
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !fresh = "" then begin
    Printf.eprintf "bench_check: --fresh FILE is required\n";
    exit 2
  end;
  if !tolerance <= 0.0 || !tolerance >= 1.0 then begin
    Printf.eprintf "bench_check: --tolerance must be in (0, 1)\n";
    exit 2
  end;
  let base = parse_file "baseline" !baseline in
  let cur = parse_file "fresh" !fresh in
  let failed = ref false in
  List.iter
    (fun (f : Gate.figure) ->
      let b = f.of_bench base and c = f.of_bench cur in
      match Gate.verdict ~tolerance:!tolerance ~baseline:b ~fresh:c with
      | Gated { floor; ok } ->
          let show = Option.fold ~none:"-" ~some:(Printf.sprintf "%.1f") in
          Printf.printf
            "bench_check: %-28s baseline %10s  fresh %10s  floor %10.1f \
             %-8s %s\n"
            f.name (show b) (show c) floor f.unit
            (if ok then "ok" else "REGRESSED");
          if not ok then failed := true
      | Ungated ->
          Printf.printf "bench_check: %-28s not present on both sides; skipped\n"
            f.name)
    Gate.figures;
  if !failed then
    if !advisory then begin
      Printf.printf
        "bench_check: regression beyond %.0f%% tolerance (advisory mode: \
         not failing the build)\n"
        (!tolerance *. 100.0);
      exit 0
    end
    else begin
      flush stdout;
      Printf.eprintf
        "bench_check: a gated figure regressed beyond %.0f%% tolerance\n"
        (!tolerance *. 100.0);
      exit 1
    end
  else print_endline "bench_check: gated figures within tolerance"
