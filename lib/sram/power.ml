module E = Bisram_tech.Electrical
module Pr = Bisram_tech.Process
module L = Bisram_tech.Layer

type estimate = {
  read_energy : float;
  write_energy : float;
  static_power : float;
  vdd : float;
}

let estimate p org ~drive =
  assert (drive >= 1.0);
  let e = p.Pr.electrical in
  let vdd = e.E.vdd in
  let feature_m = float_of_int p.Pr.feature_nm *. 1e-9 in
  let lambda_m = float_of_int p.Pr.lambda_nm *. 1e-9 in
  (* word line: full-swing CV^2 over the wire + 2 gates per cell *)
  let wl_len = Timing.wordline_length p org in
  let wl_width = 4.0 *. lambda_m in
  let c_wl =
    (e.E.cap_area L.Metal2 *. wl_len *. wl_width)
    +. (e.E.cap_fringe L.Metal2 *. 2.0 *. wl_len)
    +. (float_of_int (Org.cols org)
       *. 2.0
       *. E.cgate e ~w:(3.0 *. lambda_m) ~l:feature_m)
  in
  let e_wl = c_wl *. vdd *. vdd in
  (* bit lines: under current-mode sensing a read develops only ~10% of
     the swing on the selected word's bpw pairs; a write drives the
     selected pairs full swing *)
  let bl_len = Timing.bitline_length p org in
  let bl_width = 3.0 *. lambda_m in
  let c_bl =
    (e.E.cap_area L.Metal1 *. bl_len *. bl_width)
    +. (e.E.cap_fringe L.Metal1 *. 2.0 *. bl_len)
    +. (float_of_int (Org.total_rows org)
       *. E.cdiff e ~feature_m ~w:(3.0 *. lambda_m))
  in
  let pairs = float_of_int org.Org.bpw in
  let e_bl_read = pairs *. c_bl *. vdd *. (0.1 *. vdd) in
  let e_bl_write = pairs *. c_bl *. vdd *. vdd in
  (* decoders and datapath: a handful of sized gates switching *)
  let unit_w = 1.5 *. feature_m *. drive in
  let c_gate = E.cgate e ~w:unit_w ~l:feature_m in
  let switching_gates =
    float_of_int (2 * (Org.log2i org.Org.words + org.Org.bpw + 8))
  in
  let e_logic = switching_gates *. c_gate *. vdd *. vdd in
  (* sense amplifiers: bias current during the sensing window (~1 ns) *)
  let i_sa = 50e-6 (* 50 uA per amp, current-mode bias *) in
  let e_sense = pairs *. i_sa *. vdd *. 1e-9 in
  (* static: sense-amp standby bias (powered down between accesses to
     10%) dominates; leakage at 5 V 0.5-0.7 um is negligible *)
  let static_power = 0.1 *. pairs *. i_sa *. vdd in
  { read_energy = e_wl +. e_bl_read +. e_logic +. e_sense
  ; write_energy = e_wl +. e_bl_write +. e_logic
  ; static_power
  ; vdd
  }

let average_power t ~frequency_hz =
  assert (frequency_hz >= 0.0);
  (0.5 *. (t.read_energy +. t.write_energy) *. frequency_hz) +. t.static_power

let supply_current t ~frequency_hz = average_power t ~frequency_hz /. t.vdd

let pp ppf t =
  Format.fprintf ppf "read %.2f pJ, write %.2f pJ, static %.2f mW"
    (t.read_energy *. 1e12) (t.write_energy *. 1e12) (t.static_power *. 1e3)
