module Word = Bisram_sram.Word
module Model = Bisram_sram.Model

type result = { detected : bool; contents_preserved : bool }

let is_pure_write = function
  | March.Wait -> false
  | March.Elem { ops; _ } ->
      List.for_all (function March.W _ -> true | March.R _ -> false) ops

(* The transparent transform drops a leading initialization element and
   appends a restore write when the test ends with complemented data. *)
let split_init test =
  match test.March.items with
  | first :: rest when is_pure_write first -> rest
  | items -> items

let final_phase items =
  (* complement state of each cell after the last write (None = never
     written, contents already intact) *)
  List.fold_left
    (fun acc item ->
      match item with
      | March.Wait -> acc
      | March.Elem { ops; _ } ->
          List.fold_left
            (fun acc op ->
              match op with March.W c -> Some c | March.R _ -> acc)
            acc ops)
    None items

let transformed_ops_per_address test =
  let items = split_init test in
  let base =
    List.fold_left
      (fun acc item ->
        match item with
        | March.Wait -> acc
        | March.Elem { ops; _ } -> acc + List.length ops)
      0 items
  in
  match final_phase items with Some true -> base + 1 | Some false | None -> base

(* A rotate-and-xor MISR over read words: the packed word value feeds
   the signature directly (no string hashing, no allocation). *)
let misr_step sig_ w =
  let rot = ((sig_ lsl 1) lor (sig_ lsr 61)) land ((1 lsl 62) - 1) in
  rot lxor Word.to_int w

let run (ram : Engine.ram) test =
  let items = split_init test in
  (* initial-content snapshot: the hardware's prediction pass reads the
     array once; we also keep it to check restoration *)
  let s = Array.init ram.Engine.words ram.Engine.read in
  let datum addr c = if c then Word.lnot_ s.(addr) else s.(addr) in
  (* prediction phase: fault-free signature over the expected reads *)
  let predicted = ref 0 in
  List.iter
    (fun item ->
      match item with
      | March.Wait -> ()
      | March.Elem { order; ops } ->
          March.iter_addresses ram.Engine.words order (fun addr ->
              List.iter
                (fun op ->
                  match op with
                  | March.W _ -> ()
                  | March.R c -> predicted := misr_step !predicted (datum addr c))
                ops))
    items;
  (* test phase: apply the transformed ops, compress observed reads *)
  let observed = ref 0 in
  List.iter
    (fun item ->
      match item with
      | March.Wait -> ram.Engine.retention_wait ()
      | March.Elem { order; ops } ->
          March.iter_addresses ram.Engine.words order (fun addr ->
              List.iter
                (fun op ->
                  match op with
                  | March.W c -> ram.Engine.write addr (datum addr c)
                  | March.R _ ->
                      observed := misr_step !observed (ram.Engine.read addr))
                ops))
    items;
  (* restore phase: bring every word back to its initial content *)
  (match final_phase items with
  | Some true ->
      for addr = 0 to ram.Engine.words - 1 do
        ram.Engine.write addr s.(addr)
      done
  | Some false | None -> ());
  let contents_preserved =
    let ok = ref true in
    for addr = 0 to ram.Engine.words - 1 do
      if not (Word.equal (ram.Engine.read addr) s.(addr)) then ok := false
    done;
    !ok
  in
  { detected = !predicted <> !observed; contents_preserved }

let run_model model test = run (Engine.ram_of_model model) test
