module F = Bisram_faults.Fault

type agg_effect =
  | Invert of int (* victim idx *)
  | Force of { rising : bool; victim : int; forces : bool }

type t = {
  org : Org.t;
  nrows : int;
  cols : int; (* regular physical columns: bpw * bpc *)
  (* Row stride of the per-cell fault arrays: cols + spare_cols.  Cells
     at offsets cols .. tcols-1 within a row are the spare columns;
     they are reachable only through an armed column remap (and by
     fault arming). *)
  tcols : int;
  bpc : int;
  bpw : int;
  (* The one data store.  Regular grid: one int per (row, col-mux)
     word, bit [b] of slot [row * bpc + col] = cell (row, b*bpc + col).
     Spare columns: one int per row, bit [k] = cell (row, cols + k). *)
  packed : int array;
  spare : int array;
  mutable fault_list : F.t list;
  (* per-cell fault machinery, one slot per physical cell *)
  pin : bool option array;
  no_rise : bool array;
  no_fall : bool array;
  opens : bool array;
  retention : bool option array;
  state_cpl : (int * bool * bool) list array; (* victim -> (agg, state, reads_as) *)
  agg_effects : agg_effect list array; (* aggressor -> effects *)
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
     only those words take the per-bit path.  [row_fault] marks the
     rows holding any armed cell, spare columns included, for teardown
     and [clear]; [row_written] marks rows whose data may differ from
     the power-up zeros. *)
  word_armed : Bytes.t;
  row_fault : Bytes.t;
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
  let tcols = Org.total_cols org in
  let ncells = nrows * tcols in
  { org
  ; nrows
  ; cols
  ; tcols
  ; bpc = org.Org.bpc
  ; bpw = org.Org.bpw
  ; packed = Array.make (nrows * org.Org.bpc) 0
  ; spare = Array.make nrows 0
  ; fault_list = []
  ; pin = Array.make ncells None
  ; no_rise = Array.make ncells false
  ; no_fall = Array.make ncells false
  ; opens = Array.make ncells false
  ; retention = Array.make ncells None
  ; state_cpl = Array.make ncells []
  ; agg_effects = Array.make ncells []
  ; residue = 0
  ; remap = None
  ; col_remap = None
  ; n_reads = 0
  ; n_writes = 0
  ; n_fast_reads = 0
  ; n_fast_writes = 0
  ; n_rows_cleared = 0
  ; word_armed = Bytes.make (nrows * org.Org.bpc) '\000'
  ; row_fault = Bytes.make nrows '\000'
  ; row_written = Bytes.make nrows '\000'
  }

let idx t (c : F.cell) =
  if c.F.row < 0 || c.F.row >= t.nrows then
    invalid_arg "Model: fault row out of range";
  if c.F.col < 0 || c.F.col >= t.tcols then
    invalid_arg "Model: fault col out of range";
  (c.F.row * t.tcols) + c.F.col

let mark_row_written t row = Bytes.unsafe_set t.row_written row '\001'

(* Arm cell [c]: its word (spare-column cells belong to none) leaves
   the word path and its row joins the teardown set. *)
let arm t (c : F.cell) =
  let i = idx t c in
  Bytes.unsafe_set t.row_fault c.F.row '\001';
  if c.F.col < t.cols then
    Bytes.unsafe_set t.word_armed
      ((c.F.row * t.bpc) + (c.F.col mod t.bpc))
      '\001';
  i

let with_bit x bit v = if v then x lor (1 lsl bit) else x land lnot (1 lsl bit)

(* Cell-granular access for the per-bit fault machinery: a bit of the
   cell's packed word, or of its row's spare-column int. *)
let stored t i =
  let row = i / t.tcols in
  let c = i - (row * t.tcols) in
  if c < t.cols then
    (Array.unsafe_get t.packed ((row * t.bpc) + (c mod t.bpc)) lsr (c / t.bpc))
    land 1
    = 1
  else (Array.unsafe_get t.spare row lsr (c - t.cols)) land 1 = 1

let store t i v =
  let row = i / t.tcols in
  let c = i - (row * t.tcols) in
  if c < t.cols then begin
    let slot = (row * t.bpc) + (c mod t.bpc) in
    Array.unsafe_set t.packed slot
      (with_bit (Array.unsafe_get t.packed slot) (c / t.bpc) v)
  end
  else Array.unsafe_set t.spare row (with_bit t.spare.(row) (c - t.cols) v)

let clear t =
  (* power-up fill, dirty rows only: a row holds non-zero data only if
     it was written (or force-stored / decayed, which is confined to
     fault-armed rows) since the previous clear *)
  for row = 0 to t.nrows - 1 do
    if
      Bytes.unsafe_get t.row_written row <> '\000'
      || Bytes.unsafe_get t.row_fault row <> '\000'
    then begin
      Array.fill t.packed (row * t.bpc) t.bpc 0;
      t.spare.(row) <- 0;
      Bytes.unsafe_set t.row_written row '\000';
      t.n_rows_cleared <- t.n_rows_cleared + 1
    end
  done;
  (* re-assert pinned cells; list order matches the pin-array contents
     (the last Stuck_at on a cell wins in both) *)
  List.iter
    (fun f -> match f with F.Stuck_at (c, v) -> store t (idx t c) v | _ -> ())
    t.fault_list;
  t.residue <- 0

let set_faults t faults =
  (* tear down the previous fault machinery, armed rows only *)
  for row = 0 to t.nrows - 1 do
    if Bytes.unsafe_get t.row_fault row <> '\000' then begin
      let off = row * t.tcols in
      Array.fill t.pin off t.tcols None;
      Array.fill t.no_rise off t.tcols false;
      Array.fill t.no_fall off t.tcols false;
      Array.fill t.opens off t.tcols false;
      Array.fill t.retention off t.tcols None;
      Array.fill t.state_cpl off t.tcols [];
      Array.fill t.agg_effects off t.tcols [];
      Bytes.fill t.word_armed (row * t.bpc) t.bpc '\000';
      (* the row may hold non-zero data planted by the old config
         without [row_written] being set (pin re-assertion in [clear],
         retention decay, coupling force-stores), so flag it written:
         once [row_fault] drops, only that flag makes the final [clear]
         restore the power-up zeros *)
      mark_row_written t row;
      Bytes.unsafe_set t.row_fault row '\000'
    end
  done;
  t.fault_list <- faults;
  List.iter
    (fun f ->
      match f with
      | F.Stuck_at (c, v) -> t.pin.(arm t c) <- Some v
      | F.Transition (c, up) ->
          let i = arm t c in
          if up then t.no_rise.(i) <- true else t.no_fall.(i) <- true
      | F.Stuck_open c -> t.opens.(arm t c) <- true
      | F.Data_retention (c, v) -> t.retention.(arm t c) <- Some v
      | F.Coupling_inversion { aggressor; victim } ->
          let a = arm t aggressor and v = arm t victim in
          t.agg_effects.(a) <- Invert v :: t.agg_effects.(a)
      | F.Coupling_idempotent { aggressor; rising; victim; forces } ->
          let a = arm t aggressor and v = arm t victim in
          t.agg_effects.(a) <-
            Force { rising; victim = v; forces } :: t.agg_effects.(a)
      | F.State_coupling { aggressor; when_state; victim; reads_as } ->
          (* only the victim's reads are special; writes to the
             aggressor stay on the word path because the victim re-reads
             the aggressor's stored state on every access *)
          let a = idx t aggressor and v = arm t victim in
          t.state_cpl.(v) <- (a, when_state, reads_as) :: t.state_cpl.(v))
    faults;
  clear t

let faults t = t.fault_list
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

(* Coupling-driven store: respects pins (a stuck node cannot be flipped
   by crosstalk) but bypasses transition faults. *)
let force_store t i v =
  match t.pin.(i) with Some _ -> () | None -> store t i v

(* A successful state change on cell [i] fires its aggressor effects.
   The effect walks below are top-level recursions over the model
   rather than closures, so the per-bit path allocates nothing. *)
let rec fire_effects t new_v = function
  | [] -> ()
  | Invert victim :: rest ->
      force_store t victim (not (stored t victim));
      fire_effects t new_v rest
  | Force { rising; victim; forces } :: rest ->
      if rising = new_v then force_store t victim forces;
      fire_effects t new_v rest

let fire_coupling t i ~old_v ~new_v =
  if old_v <> new_v then fire_effects t new_v t.agg_effects.(i)

let write_bit t i v =
  if t.opens.(i) then () (* inaccessible cell *)
  else
    match t.pin.(i) with
    | Some _ -> () (* stuck node: write has no effect *)
    | None ->
        let old_v = stored t i in
        let blocked = (v && not old_v && t.no_rise.(i))
                      || ((not v) && old_v && t.no_fall.(i)) in
        if not blocked then begin
          store t i v;
          fire_coupling t i ~old_v ~new_v:v
        end

(* State coupling: of the victim's (aggressor, state) pairs, the last
   one in list order whose aggressor holds [state] decides what the
   victim reads. *)
let rec coupled_read t acc = function
  | [] -> acc
  | (agg, st, reads_as) :: rest ->
      coupled_read t (if stored t agg = st then reads_as else acc) rest

let read_bit t ~io i =
  if t.opens.(i) then (* SOF: the sense amp keeps its residue *)
    (t.residue lsr io) land 1 = 1
  else begin
    let v = coupled_read t (stored t i) t.state_cpl.(i) in
    t.residue <- with_bit t.residue io v;
    v
  end

let physical_row t row =
  match t.remap with None -> row | Some f -> f row

let check_word t w =
  if Word.width w <> t.bpw then invalid_arg "Model: word width mismatch"

(* A write takes the word path when no column map is armed and the
   target word holds no armed cell: no pins/transition/open faults to
   consult and no aggressor effects to fire (aggressors are always
   armed).  It is then a single store of the word's int. *)
let write_phys t ~row ~col w =
  check_word t w;
  if row < 0 || row >= t.nrows then invalid_arg "Model: row out of range";
  if col < 0 || col >= t.bpc then invalid_arg "Model: col out of range";
  (match t.col_remap with
  | None ->
      let slot = (row * t.bpc) + col in
      if Bytes.unsafe_get t.word_armed slot = '\000' then begin
        Array.unsafe_set t.packed slot (Word.to_int w);
        t.n_fast_writes <- t.n_fast_writes + 1
      end
      else
        for bit = 0 to t.bpw - 1 do
          write_bit t ((row * t.tcols) + (bit * t.bpc) + col) (Word.get w bit)
        done
  | Some f ->
      (* steering armed: every access resolves per bit through the
         column map (repaired columns land on their spare column) *)
      for bit = 0 to t.bpw - 1 do
        write_bit t ((row * t.tcols) + f ((bit * t.bpc) + col)) (Word.get w bit)
      done);
  mark_row_written t row;
  t.n_writes <- t.n_writes + 1

(* Per-bit read of a whole word, bits in increasing order: bit [b]
   refreshes (or, through an open cell, returns) I/O [b]'s residue. *)
let read_cells t ~row ~col =
  let base = row * t.tcols in
  let v = ref 0 in
  (match t.col_remap with
  | None ->
      for bit = 0 to t.bpw - 1 do
        if read_bit t ~io:bit (base + (bit * t.bpc) + col) then
          v := !v lor (1 lsl bit)
      done
  | Some f ->
      for bit = 0 to t.bpw - 1 do
        if read_bit t ~io:bit (base + f ((bit * t.bpc) + col)) then
          v := !v lor (1 lsl bit)
      done);
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

(* Decay is confined to retention-faulty cells, so walking the armed
   fault list replaces an O(ncells) array scan; for several retention
   faults on one cell the last one wins. *)
let rec decay t = function
  | [] -> ()
  | F.Data_retention (c, v) :: rest ->
      let i = idx t c in
      if t.pin.(i) = None then store t i v;
      decay t rest
  | _ :: rest -> decay t rest

let retention_wait t = decay t t.fault_list

let reads t = t.n_reads
let writes t = t.n_writes

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
