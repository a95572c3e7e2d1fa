type t = {
  org : Org.t;
  nrows : int;
  cols : int; (* regular physical columns: bpw * bpc *)
  (* Row stride of a cell index: cols + spare_cols.  Cells at offsets
     cols .. tcols-1 within a row are the spare columns; they are
     reachable only through an armed column remap (and by fault
     arming). *)
  tcols : int;
  bpc : int;
  bpw : int;
  (* The one data store.  Regular grid: one int per (row, col-mux)
     word, bit [b] of slot [row * bpc + col] = cell (row, b*bpc + col).
     Spare columns: one int per row, bit [k] = cell (row, cols + k). *)
  packed : int array;
  spare : int array;
  (* the fault tables over that store, lane bit 1 *)
  armed : Armed.t;
  mutable residue : int; (* sense-amp residue, bit [io] per I/O *)
  mutable remap : (int -> int) option;
  (* Column steering (2D BIRA): maps a regular physical column to the
     physical column actually accessed (a spare column for repaired
     lines, itself everywhere else).  While armed, every word access
     takes the per-bit path — the word path assumes the identity
     column map. *)
  mutable col_remap : (int -> int) option;
  mutable n_reads : int;
  mutable n_writes : int;
  (* Access-regime telemetry: how many of the reads/writes took the
     word path, plus the row traffic of [clear].  Plain unconditional
     increments adjacent to the ones above — cheaper than any
     enabled-check would be. *)
  mutable n_fast_reads : int;
  mutable n_fast_writes : int;
  mutable n_rows_cleared : int;
  (* [word_armed] marks every (row, col-mux) word holding an armed cell
     (fault site, coupling aggressor or victim, state-coupling victim):
     only those words take the per-bit path.  [Armed] sets and clears
     it along with its own armed-row marks.  [row_written] marks rows
     whose data may differ from the power-up zeros. *)
  word_armed : Bytes.t;
  row_written : Bytes.t;
}

let org t = t.org

let create org =
  if not (Org.simulable org) then
    invalid_arg
      (Printf.sprintf
         "Model.create: bpw %d exceeds the packed simulator's %d-bit words \
          (layout-only flows accept it; simulation does not)"
         org.Org.bpw Word.max_width);
  let nrows = Org.total_rows org in
  let cols = Org.cols org in
  let packed = Array.make (nrows * org.Org.bpc) 0 in
  let spare = Array.make nrows 0 in
  let word_armed = Bytes.make (nrows * org.Org.bpc) '\000' in
  { org
  ; nrows
  ; cols
  ; tcols = Org.total_cols org
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; packed
  ; spare
  ; armed = Armed.create org (Armed.Words { packed; spare; word_armed })
  ; residue = 0
  ; remap = None
  ; col_remap = None
  ; n_reads = 0
  ; n_writes = 0
  ; n_fast_reads = 0
  ; n_fast_writes = 0
  ; n_rows_cleared = 0
  ; word_armed
  ; row_written = Bytes.make nrows '\000'
  }

let mark_row_written t row = Bytes.unsafe_set t.row_written row '\001'

let clear t =
  (* power-up fill, dirty rows only: a row holds non-zero data only if
     it was written (or force-stored / decayed, which is confined to
     fault-armed rows) since the previous clear *)
  for row = 0 to t.nrows - 1 do
    if
      Bytes.unsafe_get t.row_written row <> '\000'
      || Bytes.unsafe_get t.armed.Armed.row_armed row <> '\000'
    then begin
      Array.fill t.packed (row * t.bpc) t.bpc 0;
      t.spare.(row) <- 0;
      Bytes.unsafe_set t.row_written row '\000';
      t.n_rows_cleared <- t.n_rows_cleared + 1
    end
  done;
  Armed.reassert_pins t.armed;
  t.residue <- 0

let set_faults t faults =
  (* an armed row may hold non-zero data planted by the old faults
     without [row_written] being set (pin re-assertion in [clear],
     retention decay, coupling force-stores), so flag it written: once
     its armed mark drops, only that flag makes the final [clear]
     restore the power-up zeros *)
  List.iter (fun i -> mark_row_written t (i / t.tcols)) t.armed.Armed.marked;
  Armed.disarm t.armed;
  Armed.arm t.armed ~lbit:1 faults;
  clear t

let set_remap t f = t.remap <- f

let set_col_remap t f =
  (match f with
  | None -> ()
  | Some g ->
      (* validate the whole map up front so the hot path can trust it *)
      for p = 0 to t.cols - 1 do
        let q = g p in
        if q < 0 || q >= t.tcols then
          invalid_arg "Model.set_col_remap: mapped column out of range"
      done);
  t.col_remap <- f

let physical_row t row =
  match t.remap with None -> row | Some f -> f row

let check_word t w =
  if Word.width w <> t.bpw then invalid_arg "Model: word width mismatch"

(* The physical column of data bit [bit] at mux position [col]: with
   steering armed every access resolves per bit through the column map
   (repaired columns land on their spare column). *)
let phys_col t ~bit ~col =
  let p = (bit * t.bpc) + col in
  match t.col_remap with None -> p | Some f -> f p

let write_cells t ~row ~col v =
  let base = row * t.tcols in
  for bit = 0 to t.bpw - 1 do
    Armed.write t.armed (base + phys_col t ~bit ~col) ((v lsr bit) land 1)
  done

(* A write takes the word path when no column map is armed and the
   target word holds no armed cell: no pins/transition/open faults to
   consult and no aggressor effects to fire (aggressors are always
   armed).  It is then a single store of the word's int. *)
let write_phys t ~row ~col w =
  check_word t w;
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range";
  let slot = (row * t.bpc) + col in
  (match t.col_remap with
  | None when Bytes.unsafe_get t.word_armed slot = '\000' ->
      Array.unsafe_set t.packed slot (Word.to_int w);
      t.n_fast_writes <- t.n_fast_writes + 1
  | None | Some _ -> write_cells t ~row ~col (Word.to_int w));
  mark_row_written t row;
  t.n_writes <- t.n_writes + 1

(* Per-bit read of a whole word: bit [b] is read through I/O [b],
   whose residue only that read uses and refreshes, so the word read
   is every I/O's new residue. *)
let read_cells t ~row ~col =
  let base = row * t.tcols in
  let v = ref 0 in
  for bit = 0 to t.bpw - 1 do
    let r =
      Armed.read t.armed
        (base + phys_col t ~bit ~col)
        ~residue:((t.residue lsr bit) land 1)
    in
    v := !v lor (r lsl bit)
  done;
  t.residue <- !v;
  !v

(* A read takes the word path when no column map is armed and the word
   holds no armed cell.  With no open cell in the word every I/O's
   residue becomes the bit it reads, so the per-bit residue refresh
   collapses to [residue <- v]: a single load and store. *)
let read_phys t ~row ~col =
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range";
  let slot = (row * t.bpc) + col in
  let v =
    match t.col_remap with
    | None when Bytes.unsafe_get t.word_armed slot = '\000' ->
        let v = Array.unsafe_get t.packed slot in
        t.residue <- v;
        t.n_fast_reads <- t.n_fast_reads + 1;
        v
    | None | Some _ -> read_cells t ~row ~col
  in
  t.n_reads <- t.n_reads + 1;
  v

let read_int t a =
  let row = physical_row t (Org.row_of_addr t.org a) in
  read_phys t ~row ~col:(Org.col_of_addr t.org a)

let read_word t a = Word.of_int ~width:t.bpw (read_int t a)

let write_word t a w =
  let row = physical_row t (Org.row_of_addr t.org a) in
  write_phys t ~row ~col:(Org.col_of_addr t.org a) w

let read_row_word t ~row ~col = Word.of_int ~width:t.bpw (read_phys t ~row ~col)
let write_row_word t ~row ~col w = write_phys t ~row ~col w

let retention_wait t = Armed.decay t.armed

type stats = {
  s_reads : int;
  s_writes : int;
  s_fast_reads : int;
  s_fast_writes : int;
  s_rows_cleared : int;
}

let reset_stats t =
  t.n_reads <- 0;
  t.n_writes <- 0;
  t.n_fast_reads <- 0;
  t.n_fast_writes <- 0;
  t.n_rows_cleared <- 0

let stats t =
  { s_reads = t.n_reads
  ; s_writes = t.n_writes
  ; s_fast_reads = t.n_fast_reads
  ; s_fast_writes = t.n_fast_writes
  ; s_rows_cleared = t.n_rows_cleared
  }
