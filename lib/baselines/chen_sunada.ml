module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Engine = Bisram_bist.Engine
module F = Bisram_faults.Fault
module E = Bisram_tech.Electrical
module Pr = Bisram_tech.Process
module Sz = Bisram_spice.Sizing

type t = {
  org : Org.t;
  n_blocks : int;
  spare_blocks : int;
  words_per_block : int;
  (* per-block capture registers: up to two diverted word addresses *)
  captures : (int * Word.t ref) list array;
  (* dead blocks diverted to spare blocks (index into spare storage) *)
  dead : (int, int) Hashtbl.t;
  mutable spares_used : int;
  spare_store : Word.t array array; (* spare block storage *)
}

let create org ~subblocks ~spare_blocks =
  if subblocks <= 0 || org.Org.words mod subblocks <> 0 then
    invalid_arg "Chen_sunada.create: subblocks must divide words";
  if spare_blocks < 0 then invalid_arg "Chen_sunada.create: spare_blocks";
  let words_per_block = org.Org.words / subblocks in
  { org
  ; n_blocks = subblocks
  ; spare_blocks
  ; words_per_block
  ; captures = Array.make subblocks []
  ; dead = Hashtbl.create 4
  ; spares_used = 0
  ; spare_store =
      Array.init spare_blocks (fun _ ->
          Array.make words_per_block (Word.zero org.Org.bpw))
  }

let subblocks t = t.n_blocks
let words_per_block t = t.words_per_block

let backgrounds ~bpw = [ Word.zero bpw; Word.ones bpw ]

type outcome =
  | Passed_clean
  | Repaired of { word_repairs : int; block_repairs : int }
  | Unsuccessful

let block_of t addr = addr / t.words_per_block

let diverted_ram t model =
  let base = Engine.ram_of_model model in
  let lookup addr =
    let blk = block_of t addr in
    match Hashtbl.find_opt t.dead blk with
    | Some spare -> `Spare_block (spare, addr mod t.words_per_block)
    | None -> (
        (* sequential comparison with the two captured addresses *)
        match List.assoc_opt addr t.captures.(blk) with
        | Some cell -> `Captured cell
        | None -> `Direct)
  in
  { base with
    Engine.read =
      (fun addr ->
        match lookup addr with
        | `Direct -> base.Engine.read addr
        | `Captured cell -> !cell
        | `Spare_block (s, off) -> t.spare_store.(s).(off))
  ; write =
      (fun addr w ->
        match lookup addr with
        | `Direct -> base.Engine.write addr w
        | `Captured cell -> cell := w
        | `Spare_block (s, off) -> t.spare_store.(s).(off) <- w)
  }

let repair t model test ~backgrounds =
  assert (Model.org model = t.org);
  Model.clear model;
  let failures = Engine.run_ram (Engine.ram_of_model model) test ~backgrounds in
  let addrs =
    List.sort_uniq Int.compare (List.map (fun f -> f.Engine.addr) failures)
  in
  if addrs = [] then Passed_clean
  else begin
    (* group faulty addresses per subblock *)
    let per_block = Hashtbl.create 8 in
    List.iter
      (fun addr ->
        let blk = block_of t addr in
        Hashtbl.replace per_block blk
          (addr
          ::
          (match Hashtbl.find_opt per_block blk with
          | Some l -> l
          | None -> [])))
      addrs;
    let word_repairs = ref 0 and block_repairs = ref 0 in
    let feasible = ref true in
    Hashtbl.iter
      (fun blk faulty ->
        if List.length faulty <= 2 then begin
          t.captures.(blk) <-
            List.map (fun a -> (a, ref (Word.zero t.org.Org.bpw))) faulty;
          word_repairs := !word_repairs + List.length faulty
        end
        else if t.spares_used < t.spare_blocks then begin
          Hashtbl.replace t.dead blk t.spares_used;
          t.spares_used <- t.spares_used + 1;
          incr block_repairs
        end
        else feasible := false)
      per_block;
    if not !feasible then Unsuccessful
    else begin
      (* verify pass through the repaired structure *)
      Model.clear model;
      if Engine.run_ram (diverted_ram t model) test ~backgrounds = [] then
        Repaired { word_repairs = !word_repairs; block_repairs = !block_repairs }
      else Unsuccessful
    end
  end

let repairable t faults =
  let per_block = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let c = F.victim f in
      if c.F.row < Org.rows t.org then begin
        let addr = Org.addr_of t.org ~row:c.F.row ~col:(c.F.col mod t.org.Org.bpc) in
        let blk = block_of t addr in
        let set =
          match Hashtbl.find_opt per_block blk with
          | Some s -> s
          | None ->
              let s = Hashtbl.create 4 in
              Hashtbl.add per_block blk s;
              s
        in
        Hashtbl.replace set addr ()
      end)
    faults;
  let over_budget =
    Hashtbl.fold
      (fun _ set acc -> if Hashtbl.length set > 2 then acc + 1 else acc)
      per_block 0
  in
  over_budget <= t.spare_blocks

let delay_penalty ?(entries = 2) p ~org =
  (* sequential register compares: each is an XOR per address bit into
     a log-depth AND tree, then the select mux *)
  let e = p.Pr.electrical in
  let feature_m = float_of_int p.Pr.feature_nm *. 1e-9 in
  let unit = Sz.balanced e ~feature_m ~drive:1.0 in
  let addr_bits = max 1 (Org.log2i org.Org.words) in
  let tree_depth = max 1 (Org.log2i addr_bits) in
  let stage = Sz.inverter_delay e ~feature_m unit ~cload:(2.0 *. Sz.input_cap e unit) in
  let one_compare = float_of_int (1 + tree_depth) *. stage in
  let mux = stage in
  (float_of_int entries *. one_compare) +. mux
