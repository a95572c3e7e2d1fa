(* Slow, obviously correct reference for Bisram_sram.Model: one byte
   per physical cell (spare rows and spare columns included), one bool
   per I/O for the sense-amplifier residue, and every fault looked up
   in the armed fault list on every bit access.  The library keeps the
   cells packed one int per word and sends only words holding an armed
   cell down its per-bit path; the differential tests require both to
   agree read for read.

   Semantics (DESIGN.md §7.2):
   - a stuck-open cell ignores writes and reads as its I/O's residue;
   - a stuck-at cell ignores writes and holds its value (the last
     stuck-at on a cell wins);
   - a transition fault blocks its one edge;
   - every other read sets its I/O's residue to the value read;
   - a write that changes a cell fires the couplings it aggresses, the
     last armed first; crosstalk respects pins, bypasses transition
     faults and never cascades;
   - a state-coupling victim reads as [reads_as] while its aggressor
     holds [when_state] (the earliest armed matching coupling wins);
   - a retention wait decays every unpinned retention-faulty cell (the
     last retention fault on a cell wins);
   - clear (and arming) restores zeros, pinned cells at their value,
     and a zero residue. *)

module F = Bisram_faults.Fault
module Org = Bisram_sram.Org

type t = {
  org : Org.t;
  tcols : int;
  cells : Bytes.t;
  residue : bool array;
  mutable faults : F.t list;
  mutable remap : (int -> int) option;
  mutable col_remap : (int -> int) option;
  mutable reads : int;
  mutable writes : int;
}

let create org =
  let tcols = Org.total_cols org in
  { org
  ; tcols
  ; cells = Bytes.make (Org.total_rows org * tcols) '\000'
  ; residue = Array.make org.Org.bpw false
  ; faults = []
  ; remap = None
  ; col_remap = None
  ; reads = 0
  ; writes = 0
  }

let same = F.equal_cell
let offset t (c : F.cell) = (c.F.row * t.tcols) + c.F.col
let get t c = Bytes.get t.cells (offset t c) = '\001'
let set t c v = Bytes.set t.cells (offset t c) (if v then '\001' else '\000')

let pin t c =
  List.fold_left
    (fun acc f ->
      match f with F.Stuck_at (c', v) when same c c' -> Some v | _ -> acc)
    None t.faults

let is_open t c =
  List.exists (function F.Stuck_open c' -> same c c' | _ -> false) t.faults

let edge_blocked t c ~rising =
  List.exists
    (function F.Transition (c', up) -> same c c' && up = rising | _ -> false)
    t.faults

let clear t =
  Bytes.fill t.cells 0 (Bytes.length t.cells) '\000';
  List.iter (function F.Stuck_at (c, v) -> set t c v | _ -> ()) t.faults;
  Array.fill t.residue 0 (Array.length t.residue) false

let set_faults t faults =
  t.faults <- faults;
  clear t

let set_remap t f = t.remap <- f
let set_col_remap t f = t.col_remap <- f
let force t c v = if pin t c = None then set t c v

let fire t a ~new_v =
  List.iter
    (function
      | F.Coupling_inversion { aggressor; victim } when same aggressor a ->
          force t victim (not (get t victim))
      | F.Coupling_idempotent { aggressor; rising; victim; forces }
        when same aggressor a && rising = new_v ->
          force t victim forces
      | _ -> ())
    (List.rev t.faults)

let write_bit t c v =
  if is_open t c || pin t c <> None then ()
  else if get t c <> v && not (edge_blocked t c ~rising:v) then begin
    set t c v;
    fire t c ~new_v:v
  end

let read_bit t c ~io =
  if is_open t c then t.residue.(io)
  else begin
    let coupled =
      List.find_map
        (function
          | F.State_coupling { aggressor; when_state; victim; reads_as }
            when same victim c && get t aggressor = when_state ->
              Some reads_as
          | _ -> None)
        t.faults
    in
    let v = Option.value coupled ~default:(get t c) in
    t.residue.(io) <- v;
    v
  end

(* Bit [bit] of mux position [col] sits at physical column
   [bit * bpc + col], or wherever the column steering sends it. *)
let cell t ~row ~col ~bit =
  let p = (bit * t.org.Org.bpc) + col in
  { F.row; col = (match t.col_remap with None -> p | Some f -> f p) }

let write_row_int t ~row ~col v =
  for bit = 0 to t.org.Org.bpw - 1 do
    write_bit t (cell t ~row ~col ~bit) ((v lsr bit) land 1 = 1)
  done;
  t.writes <- t.writes + 1

let read_row_int t ~row ~col =
  let v = ref 0 in
  for bit = 0 to t.org.Org.bpw - 1 do
    if read_bit t (cell t ~row ~col ~bit) ~io:bit then v := !v lor (1 lsl bit)
  done;
  t.reads <- t.reads + 1;
  !v

let row_of t a =
  let r = Org.row_of_addr t.org a in
  match t.remap with None -> r | Some f -> f r

let write_int t a v =
  write_row_int t ~row:(row_of t a) ~col:(Org.col_of_addr t.org a) v

let read_int t a =
  read_row_int t ~row:(row_of t a) ~col:(Org.col_of_addr t.org a)

let retention_wait t =
  List.iter
    (function F.Data_retention (c, v) -> force t c v | _ -> ())
    t.faults

let reads t = t.reads
let writes t = t.writes
