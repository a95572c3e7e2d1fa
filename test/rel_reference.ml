(* Slow reference for Bisram_rel.Reliability: the per-evaluation
   formula, recomputing every log C(w, j) (three Lanczos log-gamma
   calls, each building its coefficient array) inside every R(t).  The
   library tabulates the t-invariant coefficients instead; the tests
   require both to agree bit for bit. *)

module Rel = Bisram_rel.Reliability

let rec log_gamma x =
  if x < 0.5 then
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let g = 7.0 in
    let coefs =
      [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028
       ; 771.32342877765313; -176.61502916214059; 12.507343278686905
       ; -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7
      |]
    in
    let x = x -. 1.0 in
    let a = ref coefs.(0) in
    let t = x +. g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (coefs.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let log_choose n k =
  log_gamma (float_of_int n +. 1.0)
  -. log_gamma (float_of_int k +. 1.0)
  -. log_gamma (float_of_int (n - k) +. 1.0)

let binomial_cdf ~w ~q s =
  if q <= 0.0 then 1.0
  else if q >= 1.0 then if s >= w then 1.0 else 0.0
  else begin
    let lq = log q and l1q = log (1.0 -. q) in
    let total = ref 0.0 in
    for j = 0 to min s w do
      let lt =
        log_choose w j
        +. (float_of_int j *. lq)
        +. (float_of_int (w - j) *. l1q)
      in
      total := !total +. exp lt
    done;
    min 1.0 !total
  end

let reliability (c : Rel.config) t =
  assert (t >= 0.0);
  if t = 0.0 then 1.0
  else begin
    let q = 1.0 -. exp (-.c.Rel.lambda *. float_of_int c.Rel.bpw *. t) in
    let spares_ok = (1.0 -. q) ** float_of_int c.Rel.spare_words in
    spares_ok *. binomial_cdf ~w:c.Rel.words ~q c.Rel.spare_words
  end

let mttf c =
  let rec horizon t =
    if reliability c t < 1e-10 || t > 1e15 then t else horizon (t *. 2.0)
  in
  let tmax = horizon 1000.0 in
  let n = 20_000 in
  let h = tmax /. float_of_int n in
  let sum = ref (reliability c 0.0 +. reliability c tmax) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4.0 else 2.0 in
    sum := !sum +. (w *. reliability c (h *. float_of_int i))
  done;
  !sum *. h /. 3.0

let crossover a b ~t0 ~t1 ~steps =
  let h = (t1 -. t0) /. float_of_int (steps - 1) in
  let rec go i =
    if i >= steps then None
    else begin
      let t = t0 +. (h *. float_of_int i) in
      if reliability a t < reliability b t then Some t else go (i + 1)
    end
  in
  go 0
