module Org = Bisram_sram.Org

type config = { words : int; bpw : int; spare_words : int; lambda : float }

let of_org org ~lambda =
  if not (Float.is_finite lambda && lambda > 0.0) then
    invalid_arg
      (Printf.sprintf
         "Reliability.of_org: lambda must be finite and > 0 (got %g)" lambda);
  { words = org.Org.words
  ; bpw = org.Org.bpw
  ; spare_words = Org.spare_words org
  ; lambda
  }

(* Lanczos log-gamma (local copy; tiny and keeps the library
   dependency-free). *)
let lanczos =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028
   ; 771.32342877765313; -176.61502916214059; 12.507343278686905
   ; -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7
  |]

let rec log_gamma x =
  if x < 0.5 then
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let g = 7.0 in
    let x = x -. 1.0 in
    let a = ref lanczos.(0) in
    let t = x +. g +. 0.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a
  end

let log_choose n k =
  log_gamma (float_of_int n +. 1.0)
  -. log_gamma (float_of_int k +. 1.0)
  -. log_gamma (float_of_int (n - k) +. 1.0)

(* lc.(j) = log C(w, j) for j = 0..min s w: the part of every
   binomial term that does not depend on t, built once per curve *)
let log_choose_table c =
  Array.init (min c.spare_words c.words + 1) (log_choose c.words)

(* P(Binomial(w, q) <= s) with lc = log_choose_table, summed in log
   space term by term *)
let binomial_cdf lc ~w ~q s =
  if q <= 0.0 then 1.0
  else if q >= 1.0 then if s >= w then 1.0 else 0.0
  else begin
    let lq = log q and l1q = log (1.0 -. q) in
    let total = ref 0.0 in
    for j = 0 to min s w do
      let lt =
        lc.(j) +. (float_of_int j *. lq) +. (float_of_int (w - j) *. l1q)
      in
      total := !total +. exp lt
    done;
    min 1.0 !total
  end

let word_fault_prob c t =
  1.0 -. exp (-.c.lambda *. float_of_int c.bpw *. t)

let reliability_with lc c t =
  assert (t >= 0.0);
  if t = 0.0 then 1.0
  else begin
    let q = word_fault_prob c t in
    let spares_ok = (1.0 -. q) ** float_of_int c.spare_words in
    spares_ok *. binomial_cdf lc ~w:c.words ~q c.spare_words
  end

let reliability c t = reliability_with (log_choose_table c) c t

let failure_pdf c t =
  let h = max (t *. 1e-4) 1.0 in
  let tm = max 0.0 (t -. h) in
  -.(reliability c (t +. h) -. reliability c tm) /. (t +. h -. tm)

let mttf c =
  let r = reliability_with (log_choose_table c) c in
  (* find the practical support of R, then composite Simpson *)
  let rec horizon t =
    if r t < 1e-10 || t > 1e15 then t else horizon (t *. 2.0)
  in
  let tmax = horizon 1000.0 in
  let n = 20_000 in
  let h = tmax /. float_of_int n in
  let sum = ref (r 0.0 +. r tmax) in
  for i = 1 to n - 1 do
    let w = if i mod 2 = 1 then 4.0 else 2.0 in
    sum := !sum +. (w *. r (h *. float_of_int i))
  done;
  !sum *. h /. 3.0

let crossover a b ~t0 ~t1 ~steps =
  assert (steps > 1 && t1 > t0);
  let h = (t1 -. t0) /. float_of_int (steps - 1) in
  let ra = reliability_with (log_choose_table a) a
  and rb = reliability_with (log_choose_table b) b in
  let rec go i =
    if i >= steps then None
    else begin
      let t = t0 +. (h *. float_of_int i) in
      if ra t < rb t then Some t else go (i + 1)
    end
  in
  go 0
