module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word

type hooks = {
  record_fault : row:int -> [ `Ok | `Full ];
  would_overflow : row:int -> bool;
  enable_remap : unit -> unit;
  faults_recorded : unit -> int;
}

let no_repair_hooks =
  { record_fault = (fun ~row:_ -> `Full)
  ; would_overflow = (fun ~row:_ -> true)
  ; enable_remap = (fun () -> ())
  ; faults_recorded = (fun () -> 0)
  }

type outcome = Passed_clean | Repaired | Repair_unsuccessful

(* Conditions sampled by the transition logic.  The controller uses a
   two-phase clock: phase 1 performs the state's datapath work (the RAM
   operation settles and the comparator resolves), phase 2 evaluates the
   PLA, so a state's guards see the effect of its own work. *)
type cond = Test_enable | Cmp_fail | Elem_done | Bg_done | Tlb_full | Ret_ack

let all_conds = [ Test_enable; Cmp_fail; Elem_done; Bg_done; Tlb_full; Ret_ack ]

(* Control outputs.  "Work" actions fire in phase 1 and may only appear
   in a state's work list; "exit" actions fire in phase 2 on the taken
   transition.  The two sets are disjoint so the PLA image can drive
   both phases. *)
type action =
  | Apply_read (* work *)
  | Apply_write (* work *)
  | Data_complement (* work: modifies Apply_* to use ~background *)
  | Addr_reset_up (* work *)
  | Addr_reset_down (* work *)
  | Request_wait (* work *)
  | Sig_done (* work: status *)
  | Sig_fail (* work: status *)
  | Addr_step (* exit *)
  | Record_row (* exit *)
  | Next_background (* exit *)
  | Reset_background (* exit *)
  | Enable_remap (* exit *)

let all_actions =
  [ Apply_read; Apply_write; Data_complement; Addr_reset_up; Addr_reset_down
  ; Request_wait; Sig_done; Sig_fail; Addr_step; Record_row; Next_background
  ; Reset_background; Enable_remap
  ]

let index_in l a =
  let rec find i = function
    | [] -> assert false
    | x :: rest -> if x = a then i else find (i + 1) rest
  in
  find 0 l

let action_index = index_in all_actions
let cond_index = index_in all_conds
let n_conds = List.length all_conds
let n_actions = List.length all_actions
let mask_of_actions = List.fold_left (fun m a -> m lor (1 lsl action_index a)) 0

let is_work_action = function
  | Apply_read | Apply_write | Data_complement | Addr_reset_up
  | Addr_reset_down | Request_wait | Sig_done | Sig_fail ->
      true
  | Addr_step | Record_row | Next_background | Reset_background | Enable_remap
    ->
      false

type sdef = {
  name : string;
  work : action list;
  uses : cond list;
  next : (cond -> bool) -> action list * int;
}

(* The dense PLA image {!run} executes.  [work_mask.(s)] is state [s]'s
   work-action mask; its transition samples only the conditions
   [used.(s)] (its [uses]), so its successor entries are
   [table.(offset.(s) + k)] for every assignment [k] of those
   conditions (bit [i] of [k] = [used.(s).(i)]), each packing
   [(next lsl n_actions) lor exit_mask].  Masks are over
   [action_index]. *)
type image = {
  work_mask : int array;
  used : cond array array;
  offset : int array;
  table : int array;
}

type t = {
  test : March.t;
  words : int;
  backgrounds : Word.t list;
      (* empty for layout-only controllers ({!compile_layout}) *)
  n_backgrounds : int;
  states : sdef array;
  image : image option Atomic.t;
      (* built on the first {!run}: layout and area flows compile
         controllers they never execute *)
  idle : int;
  done_ok : int;
  fail : int;
}

type report = { outcome : outcome; cycles : int; faults_recorded : int }

(* Tabulate each state's [next] over every assignment of the conditions
   it [uses]; an unused condition reads false (the symbolic [next] must
   not depend on it — the test suite checks all 2^n_conds
   assignments). *)
let image_of_states states =
  let used = Array.map (fun s -> Array.of_list s.uses) states in
  let offset = Array.make (Array.length states) 0 in
  let size = ref 0 in
  Array.iteri
    (fun id u ->
      offset.(id) <- !size;
      size := !size + (1 lsl Array.length u))
    used;
  let table = Array.make !size 0 in
  Array.iteri
    (fun id s ->
      for k = 0 to (1 lsl List.length s.uses) - 1 do
        let env c =
          match List.find_index (( = ) c) s.uses with
          | Some i -> k land (1 lsl i) <> 0
          | None -> false
        in
        let exits, next = s.next env in
        List.iter (fun a -> assert (not (is_work_action a))) exits;
        table.(offset.(id) + k) <-
          (next lsl n_actions) lor mask_of_actions exits
      done)
    states;
  { work_mask = Array.map (fun s -> mask_of_actions s.work) states
  ; used
  ; offset
  ; table
  }

let reset_action = function
  | March.Down -> Addr_reset_down
  | March.Up | March.Either -> Addr_reset_up

(* The FSM layout depends only on the march test; backgrounds enter as
   a loop whose trip count is [n_backgrounds], so layout-only flows
   (wide words that the packed simulator cannot represent) compile with
   the count alone and an empty value list. *)
let compile_gen test ~words ~backgrounds ~n_backgrounds =
  if words <= 0 then invalid_arg "Controller.compile: words";
  if n_backgrounds < 1 then invalid_arg "Controller.compile: no backgrounds";
  let items = Array.of_list test.March.items in
  let n_items = Array.length items in
  if n_items = 0 then invalid_arg "Controller.compile: empty march";
  (* ----- id layout ----- *)
  let counter = ref 0 in
  let alloc () =
    let id = !counter in
    incr counter;
    id
  in
  let idle = alloc () in
  let setup_id = Array.make_matrix 2 n_items (-1) in
  let op_ids = Array.init 2 (fun _ -> Array.make n_items [||]) in
  let wait_id = Array.make_matrix 2 n_items (-1) in
  let next_bg_id = Array.make 2 (-1) in
  let tlb_check = ref (-1) in
  let pass2_setup = ref (-1) in
  for p = 0 to 1 do
    for i = 0 to n_items - 1 do
      match items.(i) with
      | March.Elem e ->
          setup_id.(p).(i) <- alloc ();
          op_ids.(p).(i) <- Array.init (List.length e.March.ops) (fun _ -> alloc ())
      | March.Wait -> wait_id.(p).(i) <- alloc ()
    done;
    next_bg_id.(p) <- alloc ();
    if p = 0 then begin
      tlb_check := alloc ();
      pass2_setup := alloc ()
    end
  done;
  let done_ok = alloc () in
  let fail = alloc () in
  let n_states = !counter in
  let item_entry p i =
    match items.(i) with
    | March.Elem _ -> setup_id.(p).(i)
    | March.Wait -> wait_id.(p).(i)
  in
  let first_item p = item_entry p 0 in
  let next_item p i = if i + 1 < n_items then item_entry p (i + 1) else next_bg_id.(p) in
  (* ----- state definitions ----- *)
  let states = Array.make n_states
      { name = "?"; work = []; uses = []; next = (fun _ -> ([], 0)) }
  in
  states.(idle) <-
    { name = "IDLE"
    ; work = []
    ; uses = [ Test_enable ]
    ; next =
        (fun c ->
          if c Test_enable then ([ Reset_background ], first_item 0)
          else ([], idle))
    };
  for p = 0 to 1 do
    let pn = p + 1 in
    for i = 0 to n_items - 1 do
      match items.(i) with
      | March.Wait ->
          let self = wait_id.(p).(i) in
          states.(self) <-
            { name = Printf.sprintf "P%d_WAIT%d" pn i
            ; work = [ Request_wait ]
            ; uses = [ Ret_ack ]
            ; next =
                (fun c -> if c Ret_ack then ([], next_item p i) else ([], self))
            }
      | March.Elem e ->
          states.(setup_id.(p).(i)) <-
            { name = Printf.sprintf "P%d_SETUP%d" pn i
            ; work = [ reset_action e.March.order ]
            ; uses = []
            ; next = (fun _ -> ([], op_ids.(p).(i).(0)))
            };
          let ops = Array.of_list e.March.ops in
          let n_ops = Array.length ops in
          for j = 0 to n_ops - 1 do
            let self = op_ids.(p).(i).(j) in
            let is_last = j = n_ops - 1 in
            let is_read = match ops.(j) with March.R _ -> true | March.W _ -> false in
            let compl =
              match ops.(j) with March.R c | March.W c -> c
            in
            let work =
              (if is_read then [ Apply_read ] else [ Apply_write ])
              @ (if compl then [ Data_complement ] else [])
            in
            let uses =
              (if is_read then [ Cmp_fail ] else [])
              @ (if is_read && p = 0 then [ Tlb_full ] else [])
              @ if is_last then [ Elem_done ] else []
            in
            let advance c record =
              if is_last then
                if c Elem_done then (record, next_item p i)
                else (record @ [ Addr_step ], op_ids.(p).(i).(0))
              else (record, op_ids.(p).(i).(j + 1))
            in
            states.(self) <-
              { name =
                  Printf.sprintf "P%d_E%d_%s%d" pn i
                    (match ops.(j) with
                    | March.R c -> if c then "R1_" else "R0_"
                    | March.W c -> if c then "W1_" else "W0_")
                    j
              ; work
              ; uses
              ; next =
                  (fun c ->
                    let failed = is_read && c Cmp_fail in
                    if failed && p = 1 then ([], fail)
                    else if failed && c Tlb_full then ([], fail)
                    else advance c (if failed then [ Record_row ] else []))
              }
          done
    done;
    let self = next_bg_id.(p) in
    states.(self) <-
      { name = Printf.sprintf "P%d_NEXTBG" pn
      ; work = []
      ; uses = [ Bg_done ]
      ; next =
          (fun c ->
            if c Bg_done then ([], if p = 0 then !tlb_check else done_ok)
            else ([ Next_background ], first_item p))
      }
  done;
  states.(!tlb_check) <-
    { name = "TLB_CHECK"
    ; work = []
    ; uses = []
    ; next = (fun _ -> ([], !pass2_setup))
    };
  states.(!pass2_setup) <-
    { name = "PASS2_SETUP"
    ; work = []
    ; uses = []
    ; next = (fun _ -> ([ Enable_remap; Reset_background ], first_item 1))
    };
  states.(done_ok) <-
    { name = "DONE_OK"; work = [ Sig_done ]; uses = []; next = (fun _ -> ([], done_ok)) };
  states.(fail) <-
    { name = "FAIL"; work = [ Sig_fail ]; uses = []; next = (fun _ -> ([], fail)) };
  (* work/exit disjointness invariant *)
  Array.iter
    (fun s -> List.iter (fun a -> assert (is_work_action a)) s.work)
    states;
  { test
  ; words
  ; backgrounds
  ; n_backgrounds
  ; states
  ; image = Atomic.make None
  ; idle
  ; done_ok
  ; fail
  }

let compile test ~words ~backgrounds =
  compile_gen test ~words ~backgrounds
    ~n_backgrounds:(List.length backgrounds)

let compile_layout test ~words ~n_backgrounds =
  compile_gen test ~words ~backgrounds:[] ~n_backgrounds

let state_count t = Array.length t.states

let flipflop_count t =
  let n = state_count t in
  let rec go acc k = if k >= n then acc else go (acc + 1) (k * 2) in
  go 0 1

let state_names t = Array.map (fun s -> s.name) t.states

(* ------------------------------------------------------------------ *)
(* Datapath shared by symbolic and PLA-driven execution *)

type datapath = {
  model : Model.t;
  hooks : hooks;
  addgen : Addgen.t;
  bgs : Word.t array;
  mutable bg_idx : int;
  mutable dir : March.order;
  mutable cmp_fail : bool;
  mutable recorded : int;
  mutable waited : bool;
}

let make_datapath t model hooks =
  if t.backgrounds = [] then
    invalid_arg "Controller.run: layout-only controller (no backgrounds)";
  (* the width guard, once per run: the executors compare packed ints *)
  let bpw = (Model.org model).Org.bpw in
  if List.exists (fun b -> Word.width b <> bpw) t.backgrounds then
    invalid_arg "Controller.run: background width differs from the model's bpw";
  Model.clear model;
  { model
  ; hooks
  ; addgen = Addgen.create ~limit:t.words
  ; bgs = Array.of_list t.backgrounds
  ; bg_idx = 0
  ; dir = March.Up
  ; cmp_fail = false
  ; recorded = 0
  ; waited = false
  }

let current_row dp =
  Org.row_of_addr (Model.org dp.model) (Addgen.value dp.addgen)

let eval_cond dp = function
  | Test_enable -> true
  | Cmp_fail -> dp.cmp_fail
  | Elem_done -> (
      let v = Addgen.value dp.addgen in
      match dp.dir with
      | March.Up | March.Either -> v = Addgen.limit dp.addgen - 1
      | March.Down -> v = 0)
  | Bg_done -> dp.bg_idx = Array.length dp.bgs - 1
  | Tlb_full -> dp.hooks.would_overflow ~row:(current_row dp)
  | Ret_ack -> dp.waited

let exec_actions dp actions =
  let compl = List.mem Data_complement actions in
  let bg () =
    let b = dp.bgs.(dp.bg_idx) in
    if compl then Word.lnot_ b else b
  in
  List.iter
    (fun a ->
      match a with
      | Data_complement | Sig_done | Sig_fail -> ()
      | Apply_read ->
          let got = Model.read_word dp.model (Addgen.value dp.addgen) in
          dp.cmp_fail <- not (Word.equal (bg ()) got)
      | Apply_write -> Model.write_word dp.model (Addgen.value dp.addgen) (bg ())
      | Addr_reset_up ->
          dp.dir <- March.Up;
          Addgen.reset dp.addgen ~dir:March.Up
      | Addr_reset_down ->
          dp.dir <- March.Down;
          Addgen.reset dp.addgen ~dir:March.Down
      | Request_wait ->
          Model.retention_wait dp.model;
          dp.waited <- true
      | Addr_step -> ignore (Addgen.step dp.addgen ~dir:dp.dir)
      | Record_row -> (
          match dp.hooks.record_fault ~row:(current_row dp) with
          | `Ok -> dp.recorded <- dp.hooks.faults_recorded ()
          | `Full -> (* guarded against by Tlb_full *) assert false)
      | Next_background -> dp.bg_idx <- dp.bg_idx + 1
      | Reset_background -> dp.bg_idx <- 0
      | Enable_remap -> dp.hooks.enable_remap ())
    actions;
  (* leaving a wait state consumes the acknowledge *)
  if not (List.mem Request_wait actions) then dp.waited <- false

let finish t dp state cycles =
  let outcome =
    if state = t.fail then Repair_unsuccessful
    else if dp.recorded = 0 then Passed_clean
    else Repaired
  in
  { outcome; cycles; faults_recorded = dp.recorded }

let cycle_budget t =
  let per_pass =
    March.ops_per_address t.test * t.words * t.n_backgrounds
  in
  (8 * (per_pass + 100) * 2) + 1000

let bit a = 1 lsl action_index a
let w_read = bit Apply_read
let w_write = bit Apply_write
let w_compl = bit Data_complement
let w_reset_up = bit Addr_reset_up
let w_reset_down = bit Addr_reset_down
let w_wait = bit Request_wait
let x_step = bit Addr_step
let x_record = bit Record_row
let x_next_bg = bit Next_background
let x_reset_bg = bit Reset_background
let x_remap = bit Enable_remap

(* Two domains racing on a fresh controller both build the same image;
   either one may stay. *)
let image t =
  match Atomic.get t.image with
  | Some img -> img
  | None ->
      let img = image_of_states t.states in
      Atomic.set t.image (Some img);
      img

(* Execute the dense PLA image: per cycle, the state's work mask drives
   the datapath (phase 1), the used conditions index its successor
   entry, and the entry's exit mask fires in one fixed order (phase 2).
   Exit actions are simultaneous register updates in hardware, so
   [Record_row] samples the address before [Addr_step] moves it — the
   order {!run_via_pla} replays too.  Backgrounds and their complements
   are resolved to packed words once per run; a cycle allocates
   nothing. *)
let run t model hooks =
  let dp = make_datapath t model hooks in
  let img = image t in
  let budget = cycle_budget t in
  let bg_w = dp.bgs and bgc_w = Array.map Word.lnot_ dp.bgs in
  let bg_i = Array.map Word.to_int bg_w
  and bgc_i = Array.map Word.to_int bgc_w in
  let ag = dp.addgen in
  let state = ref t.idle and cycles = ref 0 in
  while !state <> t.done_ok && !state <> t.fail do
    if !cycles > budget then
      failwith "Controller.run: cycle budget exceeded (FSM livelock?)";
    let s = !state in
    let w = Array.unsafe_get img.work_mask s in
    let compl = w land w_compl <> 0 in
    if w land w_read <> 0 then
      dp.cmp_fail <-
        Model.read_int model (Addgen.value ag)
        <> (if compl then bgc_i else bg_i).(dp.bg_idx)
    else if w land w_write <> 0 then
      Model.write_word model (Addgen.value ag)
        (if compl then bgc_w else bg_w).(dp.bg_idx)
    else if w land w_reset_up <> 0 then begin
      dp.dir <- March.Up;
      Addgen.reset ag ~dir:March.Up
    end
    else if w land w_reset_down <> 0 then begin
      dp.dir <- March.Down;
      Addgen.reset ag ~dir:March.Down
    end
    else if w land w_wait <> 0 then Model.retention_wait model;
    (* the acknowledge holds only in the cycle that requested the wait *)
    dp.waited <- w land w_wait <> 0;
    let u = Array.unsafe_get img.used s in
    let k = ref 0 in
    for i = 0 to Array.length u - 1 do
      if eval_cond dp (Array.unsafe_get u i) then k := !k lor (1 lsl i)
    done;
    let e = img.table.(Array.unsafe_get img.offset s + !k) in
    if e land x_record <> 0 then begin
      match hooks.record_fault ~row:(current_row dp) with
      | `Ok -> dp.recorded <- hooks.faults_recorded ()
      | `Full -> (* guarded against by Tlb_full *) assert false
    end;
    if e land x_next_bg <> 0 then dp.bg_idx <- dp.bg_idx + 1;
    if e land x_reset_bg <> 0 then dp.bg_idx <- 0;
    if e land x_remap <> 0 then hooks.enable_remap ();
    if e land x_step <> 0 then ignore (Addgen.step ag ~dir:dp.dir);
    state := e lsr n_actions;
    incr cycles
  done;
  finish t dp !state !cycles

let test t = t.test
let words t = t.words
let backgrounds t = t.backgrounds

let symbolic_step t ~state ~conds =
  let env c = conds land (1 lsl cond_index c) <> 0 in
  let exits, next = t.states.(state).next env in
  (next, mask_of_actions exits)

let table_step t ~state ~conds =
  let img = image t in
  let u = img.used.(state) in
  let k = ref 0 in
  Array.iteri
    (fun i c ->
      if conds land (1 lsl cond_index c) <> 0 then k := !k lor (1 lsl i))
    u;
  let e = img.table.(img.offset.(state) + !k) in
  (e lsr n_actions, e land ((1 lsl n_actions) - 1))

(* ------------------------------------------------------------------ *)
(* PLA compilation *)

(* The TRPLA planes read the dense image, so the state graph's [next]
   is enumerated in one place ({!image_of_states}): one term per state
   and assignment [k] of its used conditions, the AND plane taking T/F
   from bit [i] of [k] for [used.(s).(i)] and X for the others, the OR
   plane the next-state bits and the work and exit action lines.  A
   controller that was never run is tabulated without caching the
   image, and the planes are filled by loops, not per-entry closures:
   layout and area flows export many controllers they never run, and
   the extra allocation raised the Fig. 4 sweep's peak heap by a
   fifth. *)
let to_pla t =
  let img =
    match Atomic.get t.image with
    | Some img -> img
    | None -> image_of_states t.states
  in
  let nbits = flipflop_count t in
  let n_inputs = nbits + n_conds in
  let n_outputs = nbits + n_actions in
  let pla = Trpla.create ~n_inputs ~n_outputs in
  Array.iteri
    (fun id used ->
      for k = 0 to (1 lsl Array.length used) - 1 do
        let e = img.table.(img.offset.(id) + k) in
        let lines = img.work_mask.(id) lor e in
        (* state encoding, LSB first, then the conditions *)
        let ands = Array.make n_inputs Trpla.X in
        for b = 0 to nbits - 1 do
          ands.(b) <- (if id land (1 lsl b) <> 0 then Trpla.T else Trpla.F)
        done;
        for j = 0 to Array.length used - 1 do
          ands.(nbits + cond_index used.(j)) <-
            (if k land (1 lsl j) <> 0 then Trpla.T else Trpla.F)
        done;
        let ors = Array.make n_outputs false in
        for b = 0 to nbits - 1 do
          ors.(b) <- (e lsr n_actions) land (1 lsl b) <> 0
        done;
        for a = 0 to n_actions - 1 do
          ors.(nbits + a) <- lines land (1 lsl a) <> 0
        done;
        Trpla.add_term pla ~ands ~ors
      done)
    img.used;
  pla

let run_via_pla t model hooks =
  let pla = to_pla t in
  let nbits = flipflop_count t in
  let dp = make_datapath t model hooks in
  let budget = cycle_budget t in
  let inputs_of state env =
    Array.init (nbits + n_conds) (fun i ->
        if i < nbits then state land (1 lsl i) <> 0
        else env (List.nth all_conds (i - nbits)))
  in
  let decode out =
    let next = ref 0 in
    for b = 0 to nbits - 1 do
      if out.(b) then next := !next lor (1 lsl b)
    done;
    let actions =
      List.filter (fun a -> out.(nbits + action_index a)) all_actions
    in
    (!next, actions)
  in
  let rec go state cycles =
    if state = t.done_ok || state = t.fail then finish t dp state cycles
    else if cycles > budget then
      failwith "Controller.run_via_pla: cycle budget exceeded"
    else begin
      (* phase 1: work lines are identical on every term of this state,
         so evaluating with pre-work conditions yields them correctly *)
      let out_a = Trpla.eval pla (inputs_of state (eval_cond dp)) in
      let _, acts_a = decode out_a in
      exec_actions dp (List.filter is_work_action acts_a);
      (* phase 2: conditions now reflect the work; take the transition.
         Exit actions are simultaneous register updates in hardware:
         Record_row samples the CURRENT address register, so it must
         replay before Addr_step. *)
      let out_b = Trpla.eval pla (inputs_of state (eval_cond dp)) in
      let next, acts_b = decode out_b in
      let exits = List.filter (fun a -> not (is_work_action a)) acts_b in
      let steps, others = List.partition (fun a -> a = Addr_step) exits in
      exec_actions dp (others @ steps);
      go next (cycles + 1)
    end
  in
  go t.idle 0

let pp_outcome ppf = function
  | Passed_clean -> Format.pp_print_string ppf "passed (no repair needed)"
  | Repaired -> Format.pp_print_string ppf "repaired"
  | Repair_unsuccessful -> Format.pp_print_string ppf "REPAIR UNSUCCESSFUL"
