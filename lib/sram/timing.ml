module E = Bisram_tech.Electrical
module Pr = Bisram_tech.Process
module L = Bisram_tech.Layer
module El = Bisram_spice.Elmore
module Sz = Bisram_spice.Sizing

type breakdown = {
  address_buffer : float;
  row_decoder : float;
  word_line : float;
  bit_line : float;
  sense_amp : float;
  column_mux : float;
  output_driver : float;
}

let total b =
  b.address_buffer +. b.row_decoder +. b.word_line +. b.bit_line
  +. b.sense_amp +. b.column_mux +. b.output_driver

(* A compact 6T cell in SCMOS-class rules. *)
let cell_lambda = (24, 20)

let wordline_length p org =
  let cw, _ = cell_lambda in
  float_of_int (Org.cols org * Pr.nm_of_lambda p cw) *. 1e-9

let bitline_length p org =
  let _, ch = cell_lambda in
  float_of_int (Org.total_rows org * Pr.nm_of_lambda p ch) *. 1e-9

let wire_r e layer ~length ~width = e.E.sheet_r layer *. (length /. width)

let wire_c e layer ~length ~width =
  (e.E.cap_area layer *. length *. width)
  +. (e.E.cap_fringe layer *. 2.0 *. (length +. width))

let access_time p org ~drive =
  assert (drive >= 1.0);
  let e = p.Pr.electrical in
  let feature_m = float_of_int p.Pr.feature_nm *. 1e-9 in
  let lambda_m = float_of_int p.Pr.lambda_nm *. 1e-9 in
  let unit = Sz.balanced e ~feature_m ~drive:1.0 in
  let sized = Sz.balanced e ~feature_m ~drive in
  let cunit = Sz.input_cap e unit in
  let inv g cload = Sz.inverter_delay e ~feature_m g ~cload in
  (* --- address buffer: one sized inverter pair driving the predecode
     fanout (one gate per predecode NAND it feeds) --- *)
  let row_bits = Org.log2i (Org.rows org) in
  let address_buffer = 2.0 *. inv sized (cunit *. float_of_int (max 2 row_bits)) in
  (* --- row decoder: predecode NAND + final NAND per row + WL driver
     chain.  The decode fanout grows with log(rows). --- *)
  let nand = Sz.nand_stack sized ~n:3 in
  let wl_len = wordline_length p org in
  let wl_width = 4.0 *. lambda_m in
  let cwl_wire = wire_c e L.Metal2 ~length:wl_len ~width:wl_width in
  (* two access-transistor gates per cell on the word line *)
  let cgate_cell = 2.0 *. E.cgate e ~w:(3.0 *. lambda_m) ~l:feature_m in
  let cwl = cwl_wire +. (float_of_int (Org.cols org) *. cgate_cell) in
  let chain = Sz.buffer_chain e ~feature_m ~cin:(Sz.input_cap e nand) ~cload:cwl in
  let row_decoder =
    inv nand (Sz.input_cap e (List.hd chain))
    +. List.fold_left (fun acc _ -> acc +. inv sized (4.0 *. Sz.input_cap e sized))
         0.0 chain
  in
  (* --- word line: distributed RC driven by the last buffer --- *)
  let last = List.nth chain (List.length chain - 1) in
  let rwl = wire_r e L.Metal2 ~length:wl_len ~width:wl_width in
  let word_line =
    0.69 *. El.rc_line ~rdrive:(Sz.rpull_up e last) ~r:rwl ~c:cwl ~cload:0.0
  in
  (* --- bit line: the accessed cell sinks current; with current-mode
     sensing only a ~10% swing must develop before the sense amp
     latches, so the effective delay is 0.1 of the full RC. --- *)
  let bl_len = bitline_length p org in
  let bl_width = 3.0 *. lambda_m in
  let rbl = wire_r e L.Metal1 ~length:bl_len ~width:bl_width in
  let cbl_wire = wire_c e L.Metal1 ~length:bl_len ~width:bl_width in
  let cdiff_cell = E.cdiff e ~feature_m ~w:(3.0 *. lambda_m) in
  let cbl = cbl_wire +. (float_of_int (Org.total_rows org) *. cdiff_cell) in
  let rcell =
    (* series access transistor + driver, both near-minimum *)
    2.0 *. E.ron_nmos e ~w:(3.0 *. lambda_m) ~l:feature_m
  in
  let bit_line = 0.1 *. El.rc_line ~rdrive:rcell ~r:rbl ~c:cbl ~cload:0.0 in
  (* --- current-mode sense amplifier: a couple of gate delays to
     regenerate full swing --- *)
  let sense_amp = 2.0 *. inv sized (2.0 *. cunit) in
  (* --- column mux: one pass-transistor RC into the sense node --- *)
  let rpass = E.ron_nmos e ~w:(6.0 *. lambda_m) ~l:feature_m in
  let column_mux =
    0.69 *. rpass *. (float_of_int org.Org.bpc *. cdiff_cell)
  in
  (* --- output driver: sized chain into a 0.2 pF internal bus --- *)
  let out_chain = Sz.buffer_chain e ~feature_m ~cin:cunit ~cload:0.2e-12 in
  let output_driver =
    List.fold_left (fun acc g -> acc +. inv g (4.0 *. Sz.input_cap e g)) 0.0
      out_chain
  in
  { address_buffer; row_decoder; word_line; bit_line; sense_amp; column_mux
  ; output_driver
  }

let write_time p org ~drive =
  let e = p.Pr.electrical in
  let feature_m = float_of_int p.Pr.feature_nm *. 1e-9 in
  let lambda_m = float_of_int p.Pr.lambda_nm *. 1e-9 in
  let b = access_time p org ~drive in
  (* write drivers swing the selected bit lines rail to rail *)
  let bl_len = bitline_length p org in
  let bl_width = 3.0 *. lambda_m in
  let rbl = wire_r e L.Metal1 ~length:bl_len ~width:bl_width in
  let cbl_wire = wire_c e L.Metal1 ~length:bl_len ~width:bl_width in
  let cdiff_cell = E.cdiff e ~feature_m ~w:(3.0 *. lambda_m) in
  let cbl = cbl_wire +. (float_of_int (Org.total_rows org) *. cdiff_cell) in
  let driver = Sz.balanced e ~feature_m ~drive:(4.0 *. drive) in
  let slam =
    0.69 *. El.rc_line ~rdrive:(Sz.rpull_down e driver) ~r:rbl ~c:cbl ~cload:0.0
  in
  (* cell flip once the bit lines are driven: a couple of gate delays *)
  let unit = Sz.balanced e ~feature_m ~drive:1.0 in
  let flip = 2.0 *. Sz.inverter_delay e ~feature_m unit ~cload:(Sz.input_cap e unit) in
  b.address_buffer +. b.row_decoder +. b.word_line +. slam +. flip

type interface_timing = {
  address_setup : float;
  data_setup : float;
  hold : float;
}

let interface p org ~drive =
  let b = access_time p org ~drive in
  (* the address must be stable while the decoders settle before the
     word line fires; data must be at the write drivers before write
     enable; hold covers the word-line fall *)
  { address_setup = b.address_buffer +. b.row_decoder
  ; data_setup = b.output_driver
  ; hold = 0.5 *. b.word_line
  }

let pp ppf b =
  let ns x = x *. 1e9 in
  Format.fprintf ppf
    "@[<v>addr buf   %.3f ns@,row dec    %.3f ns@,word line  %.3f ns@,\
     bit line   %.3f ns@,sense amp  %.3f ns@,col mux    %.3f ns@,\
     out drv    %.3f ns@,TOTAL      %.3f ns@]"
    (ns b.address_buffer) (ns b.row_decoder) (ns b.word_line) (ns b.bit_line)
    (ns b.sense_amp) (ns b.column_mux) (ns b.output_driver) (ns (total b))
