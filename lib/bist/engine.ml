module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module Obs = Bisram_obs.Obs

type failure = {
  background : Word.t;
  item : int;
  op : int;
  addr : int;
  expected : Word.t;
  got : Word.t;
}

exception Stop

type ram = {
  words : int;
  read : int -> Word.t;
  write : int -> Word.t -> unit;
  retention_wait : unit -> unit;
}

let ram_of_model model =
  { words = (Model.org model).Org.words
  ; read = Model.read_word model
  ; write = Model.write_word model
  ; retention_wait = (fun () -> Model.retention_wait model)
  }

(* The kernel.  [read] returns the packed value of the word read at an
   address, so the expected-vs-got check is an int compare and a read
   allocates nothing; the [got] word is built only for a failure
   record.  Every background has width [width] (checked by the
   callers, once per run). *)
let run_general ram ~read ~width test ~backgrounds ~stop_at_first =
  let failures = ref [] in
  (try
     List.iteri
       (fun bg_idx bg ->
         (* hoisted out of the address loop: the complemented background
            is needed on every ~r/~w op of every address *)
         let bg_compl = Word.lnot_ bg in
         List.iteri
           (fun item_idx item ->
             match item with
             | March.Wait ->
                 if Obs.enabled () then begin
                   Obs.incr "engine.waits";
                   Obs.span ~cat:"bist"
                     (Printf.sprintf "%s.bg%d.wait%d" test.March.name bg_idx
                        item_idx)
                     ram.retention_wait
                 end
                 else ram.retention_wait ()
             | March.Elem { order; ops } ->
                 (* per-element op table, resolved against the current
                    background once: the address loop walks flat arrays
                    instead of re-running List.iteri closures, so it
                    allocates nothing per address *)
                 let is_write, op_word = March.op_table ops ~bg ~bg_compl in
                 let n_ops = Array.length op_word in
                 let op_int = Array.map Word.to_int op_word in
                 let exec () =
                   March.iter_addresses ram.words order (fun addr ->
                       for op_idx = 0 to n_ops - 1 do
                         if Array.unsafe_get is_write op_idx then
                           ram.write addr (Array.unsafe_get op_word op_idx)
                         else begin
                           let got = read addr in
                           if got <> Array.unsafe_get op_int op_idx then begin
                             failures :=
                               { background = bg
                               ; item = item_idx
                               ; op = op_idx
                               ; addr
                               ; expected = Array.unsafe_get op_word op_idx
                               ; got = Word.of_int ~width got
                               }
                               :: !failures;
                             if stop_at_first then raise Stop
                           end
                         end
                       done)
                 in
                 (* per-element telemetry: one enabled check per march
                    element keeps the per-op loop untouched when off *)
                 if Obs.enabled () then begin
                   Obs.incr "engine.elements";
                   Obs.add "engine.ops" (n_ops * ram.words);
                   Obs.span ~cat:"bist"
                     (Printf.sprintf "%s.bg%d.elem%d" test.March.name bg_idx
                        item_idx)
                     exec
                 end
                 else exec ())
           test.March.items)
       backgrounds
   with Stop -> ());
  List.rev !failures

let check_widths ~width backgrounds =
  if List.exists (fun bg -> Word.width bg <> width) backgrounds then
    invalid_arg "Engine: background width differs from the RAM word width"

(* A generic RAM returns words: its reads are width-checked one by one
   (the words are already built), the backgrounds against the first. *)
let run_ram ram test ~backgrounds =
  let width = match backgrounds with [] -> 0 | bg :: _ -> Word.width bg in
  check_widths ~width backgrounds;
  let read addr =
    let w = ram.read addr in
    if Word.width w <> width then invalid_arg "Engine: word width mismatch";
    Word.to_int w
  in
  run_general ram ~read ~width test ~backgrounds ~stop_at_first:false

let run_model model test ~backgrounds ~stop_at_first =
  let width = (Model.org model).Org.bpw in
  check_widths ~width backgrounds;
  Model.clear model;
  run_general (ram_of_model model) ~read:(Model.read_int model) ~width test
    ~backgrounds ~stop_at_first

let run model test ~backgrounds =
  run_model model test ~backgrounds ~stop_at_first:false

let passes model test ~backgrounds =
  run_model model test ~backgrounds ~stop_at_first:true = []

let failing_rows org failures =
  let seen = Hashtbl.create 16 in
  List.filter_map
    (fun f ->
      let row = Org.row_of_addr org f.addr in
      if Hashtbl.mem seen row then None
      else begin
        Hashtbl.add seen row ();
        Some row
      end)
    failures

let op_count test org ~backgrounds =
  March.ops_per_address test * org.Org.words * backgrounds
