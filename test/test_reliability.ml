(* Tests for the reliability model (Section VIII / Fig. 5). *)

module Rel = Bisram_rel.Reliability
module Org = Bisram_sram.Org

(* Fig. 5 configuration: 1024 rows, bpc = bpw = 4 *)
let org s = Org.make ~words:4096 ~bpw:4 ~bpc:4 ~spares:s ()
let lambda = 1e-8
let cfg s = Rel.of_org (org s) ~lambda

let test_boundary_conditions () =
  Alcotest.(check (float 1e-12)) "R(0)=1" 1.0 (Rel.reliability (cfg 4) 0.0);
  Alcotest.(check bool) "R(huge)~0" true
    (Rel.reliability (cfg 4) 1e9 < 1e-6)

let test_monotone_decreasing () =
  let c = cfg 4 in
  let prev = ref 1.0 in
  List.iter
    (fun t ->
      let r = Rel.reliability c t in
      Alcotest.(check bool) (Printf.sprintf "R decreasing at %g" t) true
        (r <= !prev +. 1e-12);
      Alcotest.(check bool) "in unit interval" true (r >= 0.0 && r <= 1.0);
      prev := r)
    [ 1e3; 1e4; 5e4; 1e5; 2e5; 1e6 ]

let test_early_life_fewer_spares_better () =
  (* before the crossover, more spares means lower reliability — the
     spares are themselves failure sites (paper's Fig. 5 observation) *)
  let t = 10_000.0 in
  let r s = Rel.reliability (cfg s) t in
  Alcotest.(check bool) "4 > 8 early" true (r 4 > r 8);
  Alcotest.(check bool) "8 > 16 early" true (r 8 > r 16)

let test_late_life_more_spares_better () =
  let t = 200_000.0 in
  let r s = Rel.reliability (cfg s) t in
  Alcotest.(check bool) "8 > 4 late" true (r 8 > r 4)

let test_crossover_location () =
  (* paper: reliability with 4 spares exceeds 8 spares until the device
     is ~8 years old (~70,000 h) *)
  match Rel.crossover (cfg 4) (cfg 8) ~t0:1000.0 ~t1:1e6 ~steps:4000 with
  | Some t ->
      Alcotest.(check bool)
        (Printf.sprintf "crossover at %.0f h" t)
        true
        (t > 40_000.0 && t < 110_000.0)
  | None -> Alcotest.fail "no 4-vs-8 crossover found"

let test_spares_extend_mttf () =
  let m0 = Rel.mttf (cfg 0) and m4 = Rel.mttf (cfg 4) in
  Alcotest.(check bool)
    (Printf.sprintf "mttf %.3g -> %.3g" m0 m4)
    true (m4 > 3.0 *. m0)

let test_mttf_scales_inversely_with_lambda () =
  let m1 = Rel.mttf (Rel.of_org (org 4) ~lambda:1e-8) in
  let m2 = Rel.mttf (Rel.of_org (org 4) ~lambda:2e-8) in
  Alcotest.(check bool) "halved lambda doubles mttf" true
    (abs_float ((m1 /. m2) -. 2.0) < 0.1)

let test_failure_pdf_nonnegative () =
  let c = cfg 4 in
  List.iter
    (fun t ->
      Alcotest.(check bool) (Printf.sprintf "pdf >= 0 at %g" t) true
        (Rel.failure_pdf c t >= -1e-9))
    [ 1e3; 1e4; 1e5; 5e5 ]

let test_lambda_rejected () =
  let expect name l =
    Alcotest.(check bool) name true
      (try
         ignore (Rel.of_org (org 4) ~lambda:l);
         false
       with Invalid_argument _ -> true)
  in
  expect "zero lambda" 0.0;
  expect "negative lambda" (-1e-9);
  expect "nan lambda" Float.nan;
  expect "infinite lambda" Float.infinity

(* MTTF is strictly decreasing in the per-bit failure rate: scaling
   lambda up by any factor >= 1.5 must strictly shorten the expected
   life.  A small org keeps the Simpson integration cheap. *)
let prop_mttf_decreasing_in_lambda =
  QCheck.Test.make ~name:"mttf strictly decreasing in lambda" ~count:25
    QCheck.(
      triple
        (float_range (-9.0) (-6.0))
        (float_range 1.5 10.0) (int_range 0 2))
    (fun (log_l, factor, si) ->
      let s = List.nth [ 0; 4; 8 ] si in
      let small = Org.make ~words:64 ~bpw:4 ~bpc:4 ~spares:s () in
      let l = 10.0 ** log_l in
      let m1 = Rel.mttf (Rel.of_org small ~lambda:l) in
      let m2 = Rel.mttf (Rel.of_org small ~lambda:(l *. factor)) in
      m2 < m1)

let prop_reliability_unit_interval =
  QCheck.Test.make ~name:"R(t) in [0,1]" ~count:200
    QCheck.(pair (float_range 0.0 1e6) (int_range 0 2))
    (fun (t, si) ->
      let s = List.nth [ 0; 4; 8 ] si in
      let r = Rel.reliability (cfg s) t in
      r >= 0.0 && r <= 1.0)

(* The library's tabulated coefficients must reproduce the per-call
   formula of Rel_reference exactly: MTTF values are compared against
   cached reports and re-derived figures, so "close" is not enough. *)
let same_bits a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let rel_config_gen =
  QCheck.Gen.(
    map
      (fun (words, bpw, spare_words, log_l) ->
        { Rel.words; bpw; spare_words; lambda = 10.0 ** log_l })
      (quad (int_range 1 4096) (int_range 1 64) (int_range 0 64)
         (float_range (-11.0) (-7.0))))

let rel_case_gen =
  QCheck.Gen.(
    pair
      (pair rel_config_gen (int_range 0 64))
      (list_size (int_range 1 8) (float_range 0.0 12.0)))

let print_rel_case (((c : Rel.config), other), log_ts) =
  Printf.sprintf
    "{words=%d; bpw=%d; spare_words=%d; lambda=%h} other=%d ts=[%s]"
    c.Rel.words c.Rel.bpw c.Rel.spare_words c.Rel.lambda other
    (String.concat "; " (List.map (Printf.sprintf "%h") log_ts))

let prop_matches_reference =
  QCheck.Test.make ~name:"reliability/mttf/crossover bit-identical to reference"
    ~count:20
    (QCheck.make ~print:print_rel_case rel_case_gen)
    (fun ((c, other), log_ts) ->
      (* t = 0 and log-uniform ages from 1 h to 1e12 h *)
      let ts = 0.0 :: List.map (fun e -> 10.0 ** e) log_ts in
      let r_ok =
        List.for_all
          (fun t ->
            same_bits (Rel.reliability c t) (Rel_reference.reliability c t))
          ts
      in
      let m = Rel.mttf c in
      let m_ok = same_bits m (Rel_reference.mttf c) in
      let b = { c with Rel.spare_words = other } in
      let t1 = 20.0 *. m in
      let x_ok =
        match
          ( Rel.crossover c b ~t0:1.0 ~t1 ~steps:400
          , Rel_reference.crossover c b ~t0:1.0 ~t1 ~steps:400 )
        with
        | None, None -> true
        | Some x, Some y -> same_bits x y
        | _ -> false
      in
      r_ok && m_ok && x_ok)

let () =
  Alcotest.run "reliability"
    [ ( "reliability",
        [ Alcotest.test_case "boundary" `Quick test_boundary_conditions
        ; Alcotest.test_case "monotone" `Quick test_monotone_decreasing
        ; Alcotest.test_case "early life" `Quick
            test_early_life_fewer_spares_better
        ; Alcotest.test_case "late life" `Quick
            test_late_life_more_spares_better
        ; Alcotest.test_case "crossover ~70kh" `Quick test_crossover_location
        ; Alcotest.test_case "mttf gain" `Slow test_spares_extend_mttf
        ; Alcotest.test_case "mttf scaling" `Slow
            test_mttf_scales_inversely_with_lambda
        ; Alcotest.test_case "pdf nonnegative" `Quick test_failure_pdf_nonnegative
        ; Alcotest.test_case "degenerate lambda rejected" `Quick
            test_lambda_rejected
        ; QCheck_alcotest.to_alcotest prop_reliability_unit_interval
        ; QCheck_alcotest.to_alcotest prop_mttf_decreasing_in_lambda
        ; QCheck_alcotest.to_alcotest prop_matches_reference
        ] )
    ]
