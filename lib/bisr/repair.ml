module Model = Bisram_sram.Model
module Org = Bisram_sram.Org
module Word = Bisram_sram.Word
module March = Bisram_bist.March
module Engine = Bisram_bist.Engine
module Controller = Bisram_bist.Controller

type reason = Too_many_faulty_rows | Fault_in_second_pass

type outcome =
  | Passed_clean
  | Repaired of int list
  | Repair_unsuccessful of reason

let hooks_of_tlb tlb model =
  { Controller.record_fault = (fun ~row -> Tlb.record tlb ~row)
  ; would_overflow = (fun ~row -> Tlb.would_overflow tlb ~row)
  ; enable_remap =
      (fun () -> Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row)))
  ; faults_recorded = (fun () -> Tlb.entries tlb)
  }

let fresh_tlb model =
  let org = Model.org model in
  Tlb.create ~spares:org.Org.spares ~regular_rows:(Org.rows org)

let run ?controller model test ~backgrounds =
  let words = (Model.org model).Org.words in
  let ctl =
    match controller with
    | None -> Controller.compile test ~words ~backgrounds
    | Some ctl ->
        let same_bg a b = Word.width a = Word.width b && Word.equal a b in
        if Controller.words ctl <> words then
          invalid_arg "Repair.run: controller compiled for another word count";
        if not (March.equal (Controller.test ctl) test) then
          invalid_arg "Repair.run: controller compiled for another march";
        if not (List.equal same_bg (Controller.backgrounds ctl) backgrounds)
        then
          invalid_arg "Repair.run: controller compiled for other backgrounds";
        ctl
  in
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let hooks = hooks_of_tlb tlb model in
  let in_pass2 = ref false in
  let hooks =
    { hooks with
      Controller.enable_remap =
        (fun () ->
          in_pass2 := true;
          hooks.Controller.enable_remap ())
    }
  in
  let report = Controller.run ctl model hooks in
  let outcome =
    match report.Controller.outcome with
    | Controller.Passed_clean -> Passed_clean
    | Controller.Repaired -> Repaired (Tlb.mapped_rows tlb)
    | Controller.Repair_unsuccessful ->
        if !in_pass2 then Repair_unsuccessful Fault_in_second_pass
        else Repair_unsuccessful Too_many_faulty_rows
  in
  (outcome, report, tlb)

let run_reference model test ~backgrounds =
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let failures = Engine.run model test ~backgrounds in
  let rows = Engine.failing_rows (Model.org model) failures in
  let rec record = function
    | [] -> `Ok
    | row :: rest -> (
        match Tlb.record tlb ~row with `Ok -> record rest | `Full -> `Full)
  in
  match record rows with
  | `Full -> (Repair_unsuccessful Too_many_faulty_rows, tlb)
  | `Ok ->
      Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row));
      if Engine.passes model test ~backgrounds then
        if rows = [] then (Passed_clean, tlb) else (Repaired rows, tlb)
      else (Repair_unsuccessful Fault_in_second_pass, tlb)

type iterated_result = { i_outcome : outcome; i_tlb : Tlb.t; i_rounds : int }

let run_iterated_result ?(max_rounds = 8) model test ~backgrounds =
  let tlb = fresh_tlb model in
  Model.set_remap model None;
  let failures = Engine.run model test ~backgrounds in
  let first_rows = Engine.failing_rows (Model.org model) failures in
  let record_new rows =
    List.fold_left
      (fun acc row ->
        match acc with
        | `Full -> `Full
        | `Ok -> (
            match Tlb.spare_of tlb ~row with
            | None -> Tlb.record tlb ~row
            | Some _ -> Tlb.remap_spare tlb ~row))
      `Ok rows
  in
  match record_new first_rows with
  | `Full ->
      { i_outcome = Repair_unsuccessful Too_many_faulty_rows
      ; i_tlb = tlb
      ; i_rounds = 0
      }
  | `Ok ->
      Model.set_remap model (Some (fun row -> Tlb.remap tlb ~row));
      let rec verify round =
        let failures = Engine.run model test ~backgrounds in
        if failures = [] then
          let i_outcome =
            if first_rows = [] then Passed_clean
            else Repaired (Tlb.mapped_rows tlb)
          in
          { i_outcome; i_tlb = tlb; i_rounds = round }
        else if round >= max_rounds then
          { i_outcome = Repair_unsuccessful Fault_in_second_pass
          ; i_tlb = tlb
          ; i_rounds = round
          }
        else
          let rows = Engine.failing_rows (Model.org model) failures in
          match record_new rows with
          | `Full ->
              { i_outcome = Repair_unsuccessful Too_many_faulty_rows
              ; i_tlb = tlb
              ; i_rounds = round
              }
          | `Ok -> verify (round + 1)
      in
      verify 1

let run_iterated ?max_rounds model test ~backgrounds =
  let r = run_iterated_result ?max_rounds model test ~backgrounds in
  (r.i_outcome, r.i_tlb)

let pp_outcome ppf = function
  | Passed_clean -> Format.pp_print_string ppf "passed clean"
  | Repaired rows ->
      Format.fprintf ppf "repaired rows [%s]"
        (String.concat "," (List.map string_of_int rows))
  | Repair_unsuccessful Too_many_faulty_rows ->
      Format.pp_print_string ppf "repair unsuccessful: too many faulty rows"
  | Repair_unsuccessful Fault_in_second_pass ->
      Format.pp_print_string ppf "repair unsuccessful: fault in second pass"
