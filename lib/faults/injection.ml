type mix = {
  stuck_at : float;
  transition : float;
  stuck_open : float;
  coupling_inversion : float;
  coupling_idempotent : float;
  state_coupling : float;
  data_retention : float;
}

let default_mix =
  { stuck_at = 0.40
  ; transition = 0.15
  ; stuck_open = 0.10
  ; coupling_inversion = 0.10
  ; coupling_idempotent = 0.10
  ; state_coupling = 0.05
  ; data_retention = 0.10
  }

let stuck_at_only =
  { stuck_at = 1.0
  ; transition = 0.0
  ; stuck_open = 0.0
  ; coupling_inversion = 0.0
  ; coupling_idempotent = 0.0
  ; state_coupling = 0.0
  ; data_retention = 0.0
  }

(* The mix's weights by index, in declaration order, and their names:
   the one walk over its fields, so a new fault class is added here
   and nowhere else.  An index match rather than a fold with a closure
   keeps the walk allocation-free (a closure call would box every
   weight), and every config build walks the mix to validate it. *)
let weight_names =
  [| "stuck_at"; "transition"; "stuck_open"; "coupling_inversion"
   ; "coupling_idempotent"; "state_coupling"; "data_retention" |]

let[@inline] weight mix = function
  | 0 -> mix.stuck_at
  | 1 -> mix.transition
  | 2 -> mix.stuck_open
  | 3 -> mix.coupling_inversion
  | 4 -> mix.coupling_idempotent
  | 5 -> mix.state_coupling
  | _ -> mix.data_retention

let[@inline] total_weight mix =
  let total = ref 0.0 in
  for i = 0 to Array.length weight_names - 1 do
    total := !total +. weight mix i
  done;
  !total

let validate_mix mix =
  for i = 0 to Array.length weight_names - 1 do
    let w = weight mix i in
    if Float.is_nan w then
      invalid_arg
        (Printf.sprintf "Injection: %s weight is NaN" weight_names.(i));
    if w < 0.0 then
      invalid_arg
        (Printf.sprintf "Injection: %s weight %g is negative"
           weight_names.(i) w)
  done;
  if total_weight mix <= 0.0 then
    invalid_arg
      (Printf.sprintf
         "Injection: mix has no positive weight (all-zero mix: %s are all 0)"
         (String.concat ", " (Array.to_list weight_names)))

let class_name = function
  | Fault.Stuck_at _ -> "stuck_at"
  | Fault.Transition _ -> "transition"
  | Fault.Stuck_open _ -> "stuck_open"
  | Fault.Coupling_inversion _ -> "coupling_inversion"
  | Fault.Coupling_idempotent _ -> "coupling_idempotent"
  | Fault.State_coupling _ -> "state_coupling"
  | Fault.Data_retention _ -> "data_retention"

let class_weight mix fault =
  match fault with
  | Fault.Stuck_at _ -> mix.stuck_at
  | Fault.Transition _ -> mix.transition
  | Fault.Stuck_open _ -> mix.stuck_open
  | Fault.Coupling_inversion _ -> mix.coupling_inversion
  | Fault.Coupling_idempotent _ -> mix.coupling_idempotent
  | Fault.State_coupling _ -> mix.state_coupling
  | Fault.Data_retention _ -> mix.data_retention

let class_probability mix fault = class_weight mix fault /. total_weight mix

let random_cell rng ~rows ~cols =
  { Fault.row = Random.State.int rng rows; col = Random.State.int rng cols }

(* A physically adjacent distinct cell: vertical or horizontal neighbour,
   clamped to the array. *)
let neighbour rng ~rows ~cols (c : Fault.cell) =
  let candidates =
    List.filter
      (fun (r, k) -> r >= 0 && r < rows && k >= 0 && k < cols)
      [ (c.Fault.row - 1, c.Fault.col)
      ; (c.Fault.row + 1, c.Fault.col)
      ; (c.Fault.row, c.Fault.col - 1)
      ; (c.Fault.row, c.Fault.col + 1)
      ]
  in
  match candidates with
  | [] -> c (* degenerate 1x1 array *)
  | l ->
      let r, k = List.nth l (Random.State.int rng (List.length l)) in
      { Fault.row = r; col = k }

let random_fault rng ~rows ~cols ~mix =
  assert (rows > 0 && cols > 0);
  validate_mix mix;
  let weights =
    [ (mix.stuck_at, `Saf)
    ; (mix.transition, `Tf)
    ; (mix.stuck_open, `Sof)
    ; (mix.coupling_inversion, `Cfin)
    ; (mix.coupling_idempotent, `Cfid)
    ; (mix.state_coupling, `Cfst)
    ; (mix.data_retention, `Drf)
    ]
  in
  let total = List.fold_left (fun a (w, _) -> a +. w) 0.0 weights in
  let pick = Random.State.float rng total in
  let rec select acc = function
    | [] -> `Saf
    | (w, k) :: rest -> if pick < acc +. w then k else select (acc +. w) rest
  in
  let victim = random_cell rng ~rows ~cols in
  let flag = Random.State.bool rng in
  match select 0.0 weights with
  | `Saf -> Fault.Stuck_at (victim, flag)
  | `Tf -> Fault.Transition (victim, flag)
  | `Sof -> Fault.Stuck_open victim
  | `Cfin ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.Coupling_inversion { aggressor; victim }
  | `Cfid ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.Coupling_idempotent
        { aggressor; rising = Random.State.bool rng; victim; forces = flag }
  | `Cfst ->
      let aggressor = neighbour rng ~rows ~cols victim in
      Fault.State_coupling
        { aggressor; when_state = Random.State.bool rng; victim; reads_as = flag }
  | `Drf -> Fault.Data_retention (victim, flag)

let inject rng ~rows ~cols ~mix ~n =
  validate_mix mix;
  List.init n (fun _ -> random_fault rng ~rows ~cols ~mix)

let inject_poisson rng ~rows ~cols ~mix ~mean =
  inject rng ~rows ~cols ~mix ~n:(Defect.poisson rng mean)

let inject_clustered rng ~rows ~cols ~mix ~mean ~alpha =
  inject rng ~rows ~cols ~mix ~n:(Defect.negative_binomial rng ~mean ~alpha)

let faulty_rows faults =
  faults
  |> List.map (fun f -> (Fault.victim f).Fault.row)
  |> List.sort_uniq Int.compare
