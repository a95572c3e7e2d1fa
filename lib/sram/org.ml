type t = {
  words : int;
  bpw : int;
  bpc : int;
  spares : int;
  spare_cols : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

let log2i n =
  let rec go acc k = if k <= 1 then acc else go (acc + 1) (k / 2) in
  go 0 n

let make ?(spares = 4) ?(spare_cols = 0) ~words ~bpw ~bpc () =
  if not (is_pow2 bpc) then invalid_arg "Org.make: bpc must be a power of 2";
  if not (is_pow2 bpw) then invalid_arg "Org.make: bpw must be a power of 2";
  if words <= 0 || words mod bpc <> 0 then
    invalid_arg "Org.make: words must be a positive multiple of bpc";
  if not (List.mem spares [ 0; 4; 8; 16 ]) then
    invalid_arg "Org.make: spares must be 0, 4, 8 or 16";
  if spare_cols < 0 || spare_cols > 8 then
    invalid_arg "Org.make: spare_cols must be in 0 .. 8";
  { words; bpw; bpc; spares; spare_cols }

let rows t = t.words / t.bpc
let total_rows t = rows t + t.spares
let cols t = t.bpw * t.bpc
let total_cols t = cols t + t.spare_cols
let bits t = t.words * t.bpw
let kilobits t = float_of_int (bits t) /. 1024.0
let spare_words t = t.spares * t.bpc

let row_of_addr t a =
  if a < 0 || a >= t.words then invalid_arg "Org.row_of_addr: out of range";
  a / t.bpc

let col_of_addr t a =
  if a < 0 || a >= t.words then invalid_arg "Org.col_of_addr: out of range";
  a mod t.bpc

let addr_of t ~row ~col =
  if row < 0 || row >= rows t then invalid_arg "Org.addr_of: bad row";
  if col < 0 || col >= t.bpc then invalid_arg "Org.addr_of: bad col";
  (row * t.bpc) + col

let cell_col t ~col ~bit =
  if col < 0 || col >= t.bpc then invalid_arg "Org.cell_col: bad col";
  if bit < 0 || bit >= t.bpw then invalid_arg "Org.cell_col: bad bit";
  (bit * t.bpc) + col

(* The behavioural simulator (Model/Word/Datagen) packs a word into one
   native int, so it only accepts organizations with bpw <= Word.max_width.
   Layout-only flows (compile, area, timing, power) have no such bound:
   the paper's Fig. 6/7 modules use bpw = 128/256 and never simulate
   word accesses, which is why the guard lives at Model.create rather
   than here. *)
let simulable t = t.bpw <= Word.max_width

let equal (a : t) b = a = b

let pp ppf t =
  Format.fprintf ppf "%dw x %db (bpc=%d, %d+%d rows)" t.words t.bpw t.bpc
    (rows t) t.spares;
  if t.spare_cols > 0 then Format.fprintf ppf " +%dc" t.spare_cols
