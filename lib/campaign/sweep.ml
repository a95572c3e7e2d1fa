module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word

type phase = Read_up | Read_down | Retention

type mismatch = {
  addr : int;
  pattern : string;
  phase : phase;
  expected : Word.t;
  got : Word.t;
}

let phase_name = function
  | Read_up -> "read-up"
  | Read_down -> "read-down"
  | Retention -> "retention"

(* Data backgrounds of the sweep.  All-0 and all-1 exercise both cell
   polarities (and both data-retention decay directions after the wait);
   the checkerboard pair alternates the data along every I/O bit column
   from one address to the next, so a read observes the complement of
   the previous read on the same sense amplifier — the read-after-read
   sequence that exposes stuck-open cells the march may have missed. *)
let patterns org =
  let bpw = org.Org.bpw in
  let zero = Word.zero bpw and ones = Word.ones bpw in
  let alt = Word.init bpw (fun i -> i land 1 = 0) in
  let alt' = Word.lnot_ alt in
  [ ("all-0", fun _ -> zero)
  ; ("all-1", fun _ -> ones)
  ; ("checker", fun a -> if a land 1 = 0 then alt else alt')
  ; ("checker-inv", fun a -> if a land 1 = 0 then alt' else alt)
  ]

(* The one pattern walk: per background, write every address, read it
   back ascending and descending, wait, and read it once more.  [read]
   gets the pattern name, phase, address and expected word. *)
let walk org ~write ~read ~wait =
  let words = org.Org.words in
  List.iter
    (fun (pattern, data) ->
      for a = 0 to words - 1 do
        write a (data a)
      done;
      for a = 0 to words - 1 do
        read pattern Read_up a (data a)
      done;
      for a = words - 1 downto 0 do
        read pattern Read_down a (data a)
      done;
      wait ();
      for a = 0 to words - 1 do
        read pattern Retention a (data a)
      done)
    (patterns org)

exception Found of mismatch

let run ?(stop_at_first = false) model =
  let org = Model.org model in
  let bpw = org.Org.bpw in
  (* the backgrounds are built at the model's own [bpw], so reads can be
     compared as packed ints with no width guard; the [got] word is
     built only for a mismatch record *)
  let mismatches = ref [] in
  let read pattern phase addr expected =
    let got = Model.read_int model addr in
    if got <> Word.to_int expected then begin
      let m =
        { addr; pattern; phase; expected; got = Word.of_int ~width:bpw got }
      in
      if stop_at_first then raise (Found m);
      mismatches := m :: !mismatches
    end
  in
  try
    walk org
      ~write:(fun a w -> Model.write_word model a w)
      ~read
      ~wait:(fun () -> Model.retention_wait model);
    List.rev !mismatches
  with Found m -> [ m ]

let clean model = run ~stop_at_first:true model = []

exception Saturated

(* Lane-wise sweep over a batch store: the same walk, with the mismatch
   detail reduced to a per-lane fail mask (a failing lane is re-swept
   by the scalar path for the report detail).  No initial clear — like
   [run], the sweep exercises the array as the flow left it. *)
let run_lanes lanes =
  let module Lanes = Bisram_sram.Lanes in
  let all = Lanes.all_mask lanes in
  let fail = ref 0 in
  let read _pattern _phase addr expected =
    fail := !fail lor Lanes.read_mismatch lanes addr expected;
    if !fail = all then raise Saturated
  in
  try
    walk (Lanes.org lanes)
      ~write:(fun a w -> Lanes.write_word lanes a w)
      ~read
      ~wait:(fun () -> Lanes.retention_wait lanes);
    !fail
  with Saturated -> all

let pp_mismatch ppf m =
  Format.fprintf ppf "addr %d [%s/%s]: expected %a, got %a" m.addr m.pattern
    (phase_name m.phase) Word.pp m.expected Word.pp m.got
