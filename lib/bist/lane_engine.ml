module Lanes = Bisram_sram.Lanes
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word

exception Saturated

(* One full march application over every lane at once, mirroring
   [Engine.run_general]'s op-table loop: per element the ops are
   resolved against the current background into flat arrays, and each
   read folds its per-lane comparator result into the fail mask.
   Once every lane has failed the pass stops early — the batched
   scheduler falls all of them back to the scalar engine anyway. *)
let run_pass ?(clear = true) lanes test ~backgrounds =
  if clear then Lanes.clear lanes;
  let words = (Lanes.org lanes).Org.words in
  let all = Lanes.all_mask lanes in
  let fail = ref 0 in
  (try
     List.iter
       (fun bg ->
         let bg = Lanes.expand lanes bg
         and bg_compl = Lanes.expand lanes (Word.lnot_ bg) in
         List.iter
           (fun item ->
             match item with
             | March.Wait -> Lanes.retention_wait lanes
             | March.Elem { order; ops } ->
                 let is_write, op_exp = March.op_table ops ~bg ~bg_compl in
                 let n_ops = Array.length op_exp in
                 March.iter_addresses words order (fun addr ->
                     for op_idx = 0 to n_ops - 1 do
                       let e = Array.unsafe_get op_exp op_idx in
                       if Array.unsafe_get is_write op_idx then
                         Lanes.write_exp lanes addr e
                       else begin
                         fail := !fail lor Lanes.mismatch_exp lanes addr e;
                         if !fail = all then raise Saturated
                       end
                     done))
           test.March.items)
       backgrounds
   with Saturated -> ());
  !fail
