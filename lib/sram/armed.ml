module F = Bisram_faults.Fault

(* The fault semantics of every armed cell, written once for both
   stores: [Model] is the one-lane case (lane bit 1), [Lanes] carries
   up to [Word.max_width] lanes per int.  Every table below holds a
   lane mask per cell; a cell value is a lane mask too (0/1 in the
   [Words] store). *)

type effect =
  | Invert of { victim : int; lbit : int }
  | Force of { rising : bool; victim : int; forces : bool; lbit : int }

type coupling = { agg : int; when_state : bool; reads_as : bool; cbit : int }

type store =
  | Words of { packed : int array; spare : int array; word_armed : Bytes.t }
  | Cells of int array

type t = {
  store : store;
  nrows : int;
  cols : int;
  tcols : int;
  bpc : int;
  lg_bpc : int; (* bpc = 1 lsl lg_bpc (Org.make: a power of 2) *)
  pin_mask : int array;
  pin_val : int array;
  no_rise : int array;
  no_fall : int array;
  opens : int array;
  ret_mask : int array;
  ret_val : int array;
  state_cpl : coupling list array;
  effects : effect list array;
  row_armed : Bytes.t;
  mutable marked : int list;
  mutable pinned : int list;
  mutable ret_cells : int list;
  mutable nopens : int;
}

let create org store =
  let nrows = Org.total_rows org in
  let tcols = Org.total_cols org in
  let ncells = nrows * tcols in
  { store
  ; nrows
  ; cols = Org.cols org
  ; tcols
  ; bpc = org.Org.bpc
  ; lg_bpc = Org.log2i org.Org.bpc
  ; pin_mask = Array.make ncells 0
  ; pin_val = Array.make ncells 0
  ; no_rise = Array.make ncells 0
  ; no_fall = Array.make ncells 0
  ; opens = Array.make ncells 0
  ; ret_mask = Array.make ncells 0
  ; ret_val = Array.make ncells 0
  ; state_cpl = Array.make ncells []
  ; effects = Array.make ncells []
  ; row_armed = Bytes.make nrows '\000'
  ; marked = []
  ; pinned = []
  ; ret_cells = []
  ; nopens = 0
  }

(* The one cell accessor pair, inlined into the kernel (a call per
   cell access would cost more than the access).  [Words]: bit [b] of
   slot [row * bpc + col] is cell (row, b*bpc + col) of the regular
   grid, bit [k] of [spare.(row)] is spare-column cell (row, cols + k). *)
let get t i =
  match t.store with
  | Cells s -> s.(i)
  | Words { packed; spare; _ } ->
      let row = i / t.tcols in
      let c = i - (row * t.tcols) in
      if c < t.cols then
        (Array.unsafe_get packed ((row * t.bpc) + (c land (t.bpc - 1)))
        lsr (c lsr t.lg_bpc))
        land 1
      else (Array.unsafe_get spare row lsr (c - t.cols)) land 1
[@@inline]

let set_bit a slot b v =
  let x = Array.unsafe_get a slot in
  Array.unsafe_set a slot
    (if v <> 0 then x lor (1 lsl b) else x land lnot (1 lsl b))

let set t i v =
  match t.store with
  | Cells s -> s.(i) <- v
  | Words { packed; spare; _ } ->
      let row = i / t.tcols in
      let c = i - (row * t.tcols) in
      if c < t.cols then
        set_bit packed ((row * t.bpc) + (c land (t.bpc - 1))) (c lsr t.lg_bpc) v
      else set_bit spare row (c - t.cols) v
[@@inline]

let idx t (c : F.cell) =
  if c.F.row < 0 || c.F.row >= t.nrows then
    invalid_arg "Armed.arm: fault row out of range";
  if c.F.col < 0 || c.F.col >= t.tcols then
    invalid_arg "Armed.arm: fault col out of range";
  (c.F.row * t.tcols) + c.F.col

(* Set cell [i]'s row mark and, in the [Words] store, its word mark
   (spare-column cells belong to no word) to [m]. *)
let set_marks t i m =
  let row = i / t.tcols in
  let c = i - (row * t.tcols) in
  Bytes.unsafe_set t.row_armed row m;
  match t.store with
  | Words { word_armed; _ } when c < t.cols ->
      Bytes.unsafe_set word_armed ((row * t.bpc) + (c land (t.bpc - 1))) m
  | Words _ | Cells _ -> ()

(* Arm cell [c]: [disarm] resets it, and its word leaves the word
   path. *)
let mark t (c : F.cell) =
  let i = idx t c in
  t.marked <- i :: t.marked;
  set_marks t i '\001';
  i

let set_lane a i lbit v =
  a.(i) <- (if v then a.(i) lor lbit else a.(i) land lnot lbit)

let arm t ~lbit faults =
  List.iter
    (fun f ->
      match f with
      | F.Stuck_at (c, v) ->
          let i = mark t c in
          if t.pin_mask.(i) = 0 then t.pinned <- i :: t.pinned;
          t.pin_mask.(i) <- t.pin_mask.(i) lor lbit;
          set_lane t.pin_val i lbit v
      | F.Transition (c, up) ->
          let i = mark t c in
          if up then t.no_rise.(i) <- t.no_rise.(i) lor lbit
          else t.no_fall.(i) <- t.no_fall.(i) lor lbit
      | F.Stuck_open c ->
          let i = mark t c in
          t.opens.(i) <- t.opens.(i) lor lbit;
          t.nopens <- t.nopens + 1
      | F.Data_retention (c, v) ->
          let i = mark t c in
          if t.ret_mask.(i) = 0 then t.ret_cells <- i :: t.ret_cells;
          t.ret_mask.(i) <- t.ret_mask.(i) lor lbit;
          set_lane t.ret_val i lbit v
      | F.Coupling_inversion { aggressor; victim } ->
          let a = mark t aggressor in
          let v = mark t victim in
          t.effects.(a) <- Invert { victim = v; lbit } :: t.effects.(a)
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          let a = mark t aggressor in
          let v = mark t victim in
          t.effects.(a) <- Force { rising; victim = v; forces; lbit } :: t.effects.(a)
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          (* only the victim's reads are special: the victim re-reads
             the aggressor's stored state on every access, so the
             aggressor stays unarmed *)
          let a = idx t aggressor in
          let v = mark t victim in
          t.state_cpl.(v) <-
            { agg = a; when_state; reads_as; cbit = lbit } :: t.state_cpl.(v))
    faults

(* Every table entry sits at a marked cell: a state coupling at its
   victim, an effect at its aggressor. *)
let rec unmark t = function
  | [] -> ()
  | i :: rest ->
      t.pin_mask.(i) <- 0;
      t.pin_val.(i) <- 0;
      t.no_rise.(i) <- 0;
      t.no_fall.(i) <- 0;
      t.opens.(i) <- 0;
      t.ret_mask.(i) <- 0;
      t.ret_val.(i) <- 0;
      t.state_cpl.(i) <- [];
      t.effects.(i) <- [];
      set_marks t i '\000';
      unmark t rest

let disarm t =
  unmark t t.marked;
  t.marked <- [];
  t.pinned <- [];
  t.ret_cells <- [];
  t.nopens <- 0

(* Merge [v] into cell [i] on the lanes of [m]. *)
let put t i m v = set t i ((get t i land lnot m) lor (v land m))

(* For several stuck-ats (retention faults) on one (cell, lane) the
   last armed won in [pin_val] ([ret_val]). *)
let rec pin_cells t = function
  | [] -> ()
  | i :: rest ->
      put t i t.pin_mask.(i) t.pin_val.(i);
      pin_cells t rest

let rec decay_cells t = function
  | [] -> ()
  | i :: rest ->
      put t i (t.ret_mask.(i) land lnot t.pin_mask.(i)) t.ret_val.(i);
      decay_cells t rest

let reassert_pins t = pin_cells t t.pinned
let decay t = decay_cells t t.ret_cells

(* A cell whose value changed fires the effects it aggresses, head
   (last armed) first.  Each effect re-reads its victim, respects pins
   but not transition faults, and never cascades.  Top-level recursion
   rather than a closure, so the per-cell path allocates nothing. *)
let rec fire t ~changed ~nv = function
  | [] -> ()
  | Invert { victim; lbit } :: rest ->
      let w = changed land lbit land lnot t.pin_mask.(victim) in
      if w <> 0 then set t victim (get t victim lxor w);
      fire t ~changed ~nv rest
  | Force { rising; victim; forces; lbit } :: rest ->
      let w =
        changed land lbit
        land (if rising then nv else lnot nv)
        land lnot t.pin_mask.(victim)
      in
      if w <> 0 then put t victim w (if forces then w else 0);
      fire t ~changed ~nv rest

(* Open and pinned lanes keep their value, a transition-faulted lane
   blocks its edge, every other lane stores [d]. *)
let write t i d =
  let old_v = get t i in
  let blocked =
    (t.no_rise.(i) land d land lnot old_v)
    lor (t.no_fall.(i) land lnot d land old_v)
  in
  let changed =
    (old_v lxor d) land lnot (t.opens.(i) lor t.pin_mask.(i) lor blocked)
  in
  if changed <> 0 then begin
    let nv = old_v lxor changed in
    set t i nv;
    fire t ~changed ~nv t.effects.(i)
  end

(* Of a victim's couplings whose aggressor holds [when_state], the
   earliest armed (last in list order) decides what its lane reads. *)
let rec coupled t v = function
  | [] -> v
  | { agg; when_state; reads_as; cbit } :: rest ->
      let v =
        if (get t agg land cbit <> 0) = when_state then
          if reads_as then v lor cbit else v land lnot cbit
        else v
      in
      coupled t v rest

let read t i ~residue =
  let v = coupled t (get t i) t.state_cpl.(i) in
  let op = t.opens.(i) in
  (residue land op) lor (v land lnot op)

(* Word loops for the lane store's per-bit path, over the cells
   [base + b * stride]: one call into this module per word rather than
   per cell, because without cross-module inlining each such call is an
   indirect jump.  [residue.(b)] is I/O [b]'s sense residue. *)
let write_cells t ~base ~stride data =
  for b = 0 to Array.length data - 1 do
    write t (base + (b * stride)) (Array.unsafe_get data b)
  done

let mismatch_cells t ~base ~stride ~residue expected =
  let acc = ref 0 in
  for b = 0 to Array.length expected - 1 do
    let out =
      read t (base + (b * stride)) ~residue:(Array.unsafe_get residue b)
    in
    Array.unsafe_set residue b out;
    acc := !acc lor (out lxor Array.unsafe_get expected b)
  done;
  !acc
