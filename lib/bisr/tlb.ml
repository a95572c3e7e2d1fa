type entry = { logical_row : int; spare : int }

type t = {
  spares : int;
  regular_rows : int;
  mutable entries : entry list; (* newest first; lookup takes first match *)
  mutable next_spare : int;
}

let create ~spares ~regular_rows =
  if spares < 0 then invalid_arg "Tlb.create: negative spares";
  if regular_rows <= 0 then invalid_arg "Tlb.create: regular_rows";
  { spares; regular_rows; entries = []; next_spare = 0 }

let capacity t = t.spares
let entries t = t.next_spare
let is_full t = t.next_spare >= t.spares

let find t row =
  List.find_opt (fun e -> e.logical_row = row) t.entries

(* The CAM lookup on the access path: the newest entry's spare for
   [row], or -1.  A plain recursion (no closure, no option) so a
   remapped access allocates nothing. *)
let rec spare_index row = function
  | [] -> -1
  | e :: rest -> if e.logical_row = row then e.spare else spare_index row rest

let spare_of t ~row = Option.map (fun e -> e.spare) (find t row)

let mapped_rows t =
  (* allocation order = spare order; keep only the newest entry per row *)
  t.entries
  |> List.filter (fun e ->
         match find t e.logical_row with
         | Some newest -> newest.spare = e.spare
         | None -> false)
  |> List.sort (fun a b -> Int.compare a.spare b.spare)
  |> List.map (fun e -> e.logical_row)

let alloc t row =
  if is_full t then `Full
  else begin
    t.entries <- { logical_row = row; spare = t.next_spare } :: t.entries;
    t.next_spare <- t.next_spare + 1;
    `Ok
  end

let record t ~row =
  if row < 0 || row >= t.regular_rows then invalid_arg "Tlb.record: bad row";
  match find t row with Some _ -> `Ok | None -> alloc t row

let would_overflow t ~row = spare_index row t.entries < 0 && is_full t

let remap t ~row =
  let k = spare_index row t.entries in
  if k < 0 then row else t.regular_rows + k

let remap_spare t ~row =
  match find t row with
  | None -> invalid_arg "Tlb.remap_spare: row not mapped"
  | Some _ -> alloc t row

let allocation_is_strictly_increasing t =
  (* entries are newest-first, so spare indices must strictly decrease *)
  let rec check = function
    | a :: (b :: _ as rest) -> a.spare > b.spare && check rest
    | [ _ ] | [] -> true
  in
  check t.entries

let clear t =
  t.entries <- [];
  t.next_spare <- 0

let pp ppf t =
  Format.fprintf ppf "@[<v>TLB %d/%d entries@," t.next_spare t.spares;
  List.iter
    (fun e ->
      Format.fprintf ppf "  row %d -> spare %d (phys %d)@," e.logical_row
        e.spare (t.regular_rows + e.spare))
    (List.rev t.entries);
  Format.fprintf ppf "@]"
