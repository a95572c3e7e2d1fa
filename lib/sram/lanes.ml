(* Lane-sliced (PPSFP-style) batch store: bit [l] of every packed int
   is campaign trial [l]'s copy of that cell.  All stimulus is
   broadcast (a written bit is 0 or [all] across lanes) and every fault
   is armed as a per-lane mask in [Armed], whose per-cell kernel is the
   one [Model] runs on its armed words; this module keeps only the
   store and its broadcast fast path. *)

type t = {
  org : Org.t;
  lanes : int;
  all : int; (* mask of the armed lanes: (1 lsl lanes) - 1 *)
  bpc : int;
  bpw : int;
  state : int array; (* one slot per cell, bit l = lane l's value *)
  armed : Armed.t;
  residue : int array; (* per-I/O sense-amp residue, one lane mask each *)
  (* address decode tables: cell index of I/O 0 and physical row per
     logical address, hoisted out of the per-access hot path *)
  addr_base : int array;
  addr_row : int array;
}

let org t = t.org
let nlanes t = t.lanes
let all_mask t = t.all

let create org ~lanes =
  if not (Org.simulable org) then
    invalid_arg "Lanes.create: organization is not simulable (bpw too wide)";
  if lanes < 1 || lanes > Word.max_width then
    invalid_arg
      (Printf.sprintf "Lanes.create: lanes must be in 1..%d" Word.max_width);
  let tcols = Org.total_cols org in
  let state = Array.make (Org.total_rows org * tcols) 0 in
  { org
  ; lanes
  ; all = (1 lsl lanes) - 1
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; state
  ; armed = Armed.create org (Armed.Cells state)
  ; residue = Array.make org.Org.bpw 0
  ; addr_base =
      Array.init org.Org.words (fun a ->
          (Org.row_of_addr org a * tcols) + Org.col_of_addr org a)
  ; addr_row = Array.init org.Org.words (fun a -> Org.row_of_addr org a)
  }

let row_is_faulty t row = Bytes.unsafe_get t.armed.Armed.row_armed row <> '\000'

(* A read skips the residue refresh when its row holds no armed cell
   and no lane has a stuck-open cell anywhere: the residue is then
   unobservable. *)
let plain_read t a =
  t.armed.Armed.nopens = 0 && not (row_is_faulty t (Array.unsafe_get t.addr_row a))

let arm t ~lane faults =
  if lane < 0 || lane >= t.lanes then invalid_arg "Lanes.arm: lane out of range";
  Armed.arm t.armed ~lbit:(1 lsl lane) faults

let clear t =
  Array.fill t.state 0 (Array.length t.state) 0;
  Armed.reassert_pins t.armed;
  Array.fill t.residue 0 (Array.length t.residue) 0

let reset t =
  Armed.disarm t.armed;
  clear t

let retention_wait t = Armed.decay t.armed

(* ------------------------------------------------------------------ *)
(* word access (no remap: the lane engine only resolves clean lanes,
   whose TLB is empty and whose remap is the identity) *)

(* Broadcast expansion of a data word: element [b] is the lane mask of
   data bit [b] — [all] or [0].  The march engine expands each
   background once, so the per-address loops below touch only int
   arrays. *)
let expand t w =
  if Word.width w <> t.bpw then invalid_arg "Lanes: word width mismatch";
  Array.init t.bpw (fun bit -> if Word.get w bit then t.all else 0)

let write_exp t a exp =
  let base = Array.unsafe_get t.addr_base a in
  if row_is_faulty t (Array.unsafe_get t.addr_row a) then
    Armed.write_cells t.armed ~base ~stride:t.bpc exp
  else
    for bit = 0 to t.bpw - 1 do
      Array.unsafe_set t.state (base + (bit * t.bpc)) (Array.unsafe_get exp bit)
    done

(* Read-and-compare: returns the mask of lanes whose word differs from
   the expanded expected word — the lane-wise comparator/MISR
   reduction. *)
let mismatch_exp t a exp =
  let base = Array.unsafe_get t.addr_base a in
  if plain_read t a then begin
    let acc = ref 0 in
    for bit = 0 to t.bpw - 1 do
      acc :=
        !acc
        lor (Array.unsafe_get t.state (base + (bit * t.bpc))
            lxor Array.unsafe_get exp bit)
    done;
    !acc land t.all
  end
  else
    Armed.mismatch_cells t.armed ~base ~stride:t.bpc ~residue:t.residue exp
    land t.all

let write_word t a w = write_exp t a (expand t w)
let read_mismatch t a expected = mismatch_exp t a (expand t expected)

(* Per-I/O lane values of one word read (allocates; used by the
   differential tests, not the march hot path).  Side effects are those
   of exactly one word read. *)
let read_bits t a =
  let base = t.addr_base.(a) in
  if plain_read t a then
    Array.init t.bpw (fun bit -> t.state.(base + (bit * t.bpc)))
  else
    Array.init t.bpw (fun bit ->
        let out =
          Armed.read t.armed (base + (bit * t.bpc)) ~residue:t.residue.(bit)
        in
        t.residue.(bit) <- out;
        out)
