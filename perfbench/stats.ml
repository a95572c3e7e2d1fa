(* Order statistics over float samples. *)

let sorted xs = Array.of_list (List.sort Float.compare xs)

(* Linear interpolation between closest ranks; [p] in [0, 100]. *)
let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let pos = p /. 100.0 *. float_of_int (n - 1) in
      let i = int_of_float (Float.floor pos) in
      if i >= n - 1 then a.(n - 1)
      else
        let f = pos -. float_of_int i in
        a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = percentile xs 50.0

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it; the median when there are too few samples. *)
let tail_percentile n =
  let beyond p = float_of_int n *. (1.0 -. (p /. 100.0)) in
  match List.find_opt (fun p -> beyond p >= 10.0) [ 99.9; 99.0; 90.0 ] with
  | Some p -> p
  | None -> 50.0

(* "median [q1 .. q3] (n = k)" for the human-readable lines. *)
let describe xs =
  Printf.sprintf "median %.6g [q1 %.6g .. q3 %.6g] (n = %d)" (median xs)
    (percentile xs 25.0) (percentile xs 75.0) (List.length xs)
