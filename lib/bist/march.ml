type order = Up | Down | Either
type op = W of bool | R of bool
type element = { order : order; ops : op list }
type item = Elem of element | Wait
type t = { name : string; items : item list }

let make ~name items =
  List.iter
    (fun item ->
      match item with
      | Wait -> ()
      | Elem { ops; _ } ->
          if ops = [] then invalid_arg "March.make: empty element")
    items;
  { name; items }

let ops_per_address t =
  List.fold_left
    (fun acc item ->
      match item with Wait -> acc | Elem e -> acc + List.length e.ops)
    0 t.items

let reads_per_address t =
  List.fold_left
    (fun acc item ->
      match item with
      | Wait -> acc
      | Elem e ->
          acc
          + List.length (List.filter (function R _ -> true | W _ -> false) e.ops))
    0 t.items

let has_retention t = List.exists (fun i -> i = Wait) t.items

let iter_addresses n order f =
  match order with
  | Up | Either ->
      for a = 0 to n - 1 do
        f a
      done
  | Down ->
      for a = n - 1 downto 0 do
        f a
      done

let op_table ops ~bg ~bg_compl =
  let ops = Array.of_list ops in
  ( Array.map (function W _ -> true | R _ -> false) ops
  , Array.map (function W c | R c -> if c then bg_compl else bg) ops )

let string_of_op = function
  | W false -> "w0"
  | W true -> "w1"
  | R false -> "r0"
  | R true -> "r1"

let string_of_order = function Up -> "u" | Down -> "d" | Either -> "a"

let to_string t =
  t.items
  |> List.map (fun item ->
         match item with
         | Wait -> "D"
         | Elem { order; ops } ->
             Printf.sprintf "%s(%s)" (string_of_order order)
               (String.concat "," (List.map string_of_op ops)))
  |> String.concat "; "

let parse_op s =
  match String.trim s with
  | "w0" -> W false
  | "w1" -> W true
  | "r0" -> R false
  | "r1" -> R true
  | other -> invalid_arg ("March.of_string: bad op " ^ other)

let parse_item s =
  let s = String.trim s in
  if s = "D" then Wait
  else
    let order =
      match s.[0] with
      | 'u' -> Up
      | 'd' -> Down
      | 'a' -> Either
      | c -> invalid_arg (Printf.sprintf "March.of_string: bad order %c" c)
    in
    let len = String.length s in
    if len < 3 || s.[1] <> '(' || s.[len - 1] <> ')' then
      invalid_arg ("March.of_string: bad element " ^ s);
    let inner = String.sub s 2 (len - 3) in
    let ops = List.map parse_op (String.split_on_char ',' inner) in
    if ops = [] then invalid_arg "March.of_string: empty element";
    Elem { order; ops }

let of_string ~name s =
  let parts =
    String.split_on_char ';' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then invalid_arg "March.of_string: empty test";
  make ~name (List.map parse_item parts)

let equal a b = a.items = b.items
let pp ppf t = Format.fprintf ppf "%s: %s" t.name (to_string t)
