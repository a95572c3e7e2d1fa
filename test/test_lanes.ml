(* Tests for the lane-sliced batch engine: the differential property
   pinning [Lanes] to the scalar [Model] trial-for-trial, report byte
   identity of the batched campaign scheduler across lane widths and
   job counts, failing-lane replay, and the batched checkpoint/resume
   boundary. *)

module C = Bisram_campaign.Campaign
module Sweep = Bisram_campaign.Sweep
module Org = Bisram_sram.Org
module Model = Bisram_sram.Model
module Word = Bisram_sram.Word
module Lanes = Bisram_sram.Lanes
module Lane_engine = Bisram_bist.Lane_engine
module Alg = Bisram_bist.Algorithms
module Datagen = Bisram_bist.Datagen
module I = Bisram_faults.Injection
module Pool = Bisram_parallel.Pool

let retention_only =
  { I.stuck_at = 0.0
  ; transition = 0.0
  ; stuck_open = 0.0
  ; coupling_inversion = 0.0
  ; coupling_idempotent = 0.0
  ; state_coupling = 0.0
  ; data_retention = 1.0
  }

let uniform_mix =
  { I.stuck_at = 1.0
  ; transition = 1.0
  ; stuck_open = 1.0
  ; coupling_inversion = 1.0
  ; coupling_idempotent = 1.0
  ; state_coupling = 1.0
  ; data_retention = 1.0
  }

(* ------------------------------------------------------------------ *)
(* the correctness keystone: per lane, [Lanes] equals the scalar
   [Model] under arbitrary per-lane fault sets and an arbitrary
   broadcast stimulus.  Every read compares every lane's every data
   bit against its own scalar model and its own [Sram_reference]: the
   two stores share one fault kernel, so only the independent
   per-cell reference can catch a fault-semantics bug they both
   carry. *)

type op = Op_write of int * int | Op_read of int | Op_wait

let ops_gen =
  QCheck.(
    triple (int_range 0 1_000_000) (int_range 1 10)
      (list_of_size (Gen.int_range 1 60) (triple (int_range 0 20) small_nat small_nat)))

let lanes_agree org ~mix ~max_faults (seed, lanes, raw_ops) =
  let rng = Random.State.make [| 0x1a9e5; seed |] in
  (* per-lane random fault sets across every class of [mix], sizes
     0..max_faults so clean lanes and heavily faulted lanes mix within
     one batch *)
  let fault_sets =
    List.init lanes (fun _ ->
        I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org) ~mix
          ~n:(Random.State.int rng (max_faults + 1)))
  in
  let batch = Lanes.create org ~lanes in
  List.iteri (fun l f -> Lanes.arm batch ~lane:l f) fault_sets;
  Lanes.clear batch;
  let models =
    List.map
      (fun f ->
        let m = Model.create org in
        Model.set_faults m f;
        m)
      fault_sets
  in
  let refs =
    List.map
      (fun f ->
        let r = Sram_reference.create org in
        Sram_reference.set_faults r f;
        r)
      fault_sets
  in
  (* decode the raw generator triples into a stimulus: tag 0-8 a
     write, 9-18 a read, 19-20 a retention wait *)
  let ops =
    List.map
      (fun (tag, a, d) ->
        let addr = a mod org.Org.words in
        if tag < 9 then Op_write (addr, d land ((1 lsl org.Org.bpw) - 1))
        else if tag < 19 then Op_read addr
        else Op_wait)
      raw_ops
  in
  List.for_all
    (fun o ->
      match o with
      | Op_write (a, d) ->
          let w = Word.of_int ~width:org.Org.bpw d in
          Lanes.write_word batch a w;
          List.iter (fun m -> Model.write_word m a w) models;
          List.iter (fun r -> Sram_reference.write_int r a d) refs;
          true
      | Op_wait ->
          Lanes.retention_wait batch;
          List.iter Model.retention_wait models;
          List.iter Sram_reference.retention_wait refs;
          true
      | Op_read a ->
          let bits = Lanes.read_bits batch a in
          List.for_all2
            (fun (l, m) r ->
              let w = Word.to_int (Model.read_word m a) in
              let v = Sram_reference.read_int r a in
              let lane = ref 0 in
              Array.iteri
                (fun b mask -> lane := !lane lor (((mask lsr l) land 1) lsl b))
                bits;
              !lane = w && !lane = v)
            (List.mapi (fun l m -> (l, m)) models)
            refs)
    ops

let prop_lanes_equal_scalar_models =
  QCheck.Test.make
    ~name:"every lane of Lanes equals its own scalar Model (differential)"
    ~count:150 ops_gen
    (lanes_agree
       (Org.make ~words:16 ~bpw:4 ~bpc:2 ~spares:4 ())
       ~mix:I.default_mix ~max_faults:4)

(* The same on an 8-cell array with up to 8 faults per lane drawn from
   every class alike, so faults pile up on shared cells: pins under
   couplings and retention, two state couplings on one victim.  The
   default-mix sets on the larger array almost never produce these
   overlaps, where the precedence rules between faults decide the value
   read. *)
let prop_dense_faults =
  QCheck.Test.make
    ~name:"dense fault sets: every lane equals its Model and the reference"
    ~count:400 ops_gen
    (lanes_agree
       (Org.make ~words:4 ~bpw:2 ~bpc:2 ~spares:0 ())
       ~mix:uniform_mix ~max_faults:8)

(* A store that ran a batch and was then [reset] and re-armed behaves
   exactly like a fresh store armed the same way: the campaign reuses
   one store for every lane batch of a run. *)
let prop_reset_equals_fresh =
  QCheck.Test.make ~name:"reset store = fresh store" ~count:100
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, lanes) ->
      let org = Org.make ~words:16 ~bpw:4 ~bpc:2 ~spares:4 ~spare_cols:1 () in
      let rng = Random.State.make [| 0x5e7; seed |] in
      let draw n =
        List.init n (fun _ ->
            I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.total_cols org)
              ~mix:I.default_mix
              ~n:(Random.State.int rng 5))
      in
      let arm batch fault_sets =
        List.iteri (fun l f -> Lanes.arm batch ~lane:l f) fault_sets;
        Lanes.clear batch
      in
      let drive batch =
        List.init 40 (fun i ->
            let a = i * 7 mod org.Org.words in
            if i mod 9 = 0 then Lanes.retention_wait batch;
            Lanes.write_word batch a (Word.of_int ~width:4 (i * 5));
            ( Lanes.read_bits batch ((a + 3) mod org.Org.words)
            , Lanes.read_mismatch batch a (Word.of_int ~width:4 i) ))
      in
      let used = Lanes.create org ~lanes in
      arm used (draw lanes);
      ignore (drive used);
      Lanes.reset used;
      let fault_sets = draw lanes in
      arm used fault_sets;
      let fresh = Lanes.create org ~lanes in
      arm fresh fault_sets;
      drive used = drive fresh)

(* the lane march engine agrees with the scalar engine's pass/fail
   verdict per lane, for random per-lane fault sets *)
let prop_lane_engine_verdicts =
  QCheck.Test.make
    ~name:"lane march fail mask = per-lane scalar Engine.passes" ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 10))
    (fun (seed, lanes) ->
      let org = Org.make ~words:16 ~bpw:4 ~bpc:2 ~spares:4 () in
      let rng = Random.State.make [| 0xe9e1e; seed |] in
      let fault_sets =
        List.init lanes (fun _ ->
            I.inject rng ~rows:(Org.total_rows org) ~cols:(Org.cols org)
              ~mix:I.default_mix
              ~n:(Random.State.int rng 4))
      in
      let bgs = Datagen.required_backgrounds ~bpw:4 in
      let batch = Lanes.create org ~lanes in
      List.iteri (fun l f -> Lanes.arm batch ~lane:l f) fault_sets;
      Lanes.clear batch;
      let fail = Lane_engine.run_pass batch Alg.ifa_9 ~backgrounds:bgs in
      (* saturation stops the lane pass early, so only the all-failed
         case is comparable when the mask saturates *)
      if fail = Lanes.all_mask batch then
        List.for_all
          (fun f ->
            let m = Model.create org in
            Model.set_faults m f;
            not (Bisram_bist.Engine.passes m Alg.ifa_9 ~backgrounds:bgs))
          fault_sets
      else
        List.for_all
          (fun (l, f) ->
            let m = Model.create org in
            Model.set_faults m f;
            let scalar_pass =
              Bisram_bist.Engine.passes m Alg.ifa_9 ~backgrounds:bgs
            in
            scalar_pass = ((fail lsr l) land 1 = 0))
          (List.mapi (fun l f -> (l, f)) fault_sets))

(* ------------------------------------------------------------------ *)
(* report byte identity: the batched scheduler is purely a throughput
   knob.  70 trials so lanes=62 forms one full batch plus a ragged
   tail and lanes=7 forms ten full batches. *)

let check_identity name cfg =
  let scalar = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
  List.iter
    (fun lanes ->
      List.iter
        (fun jobs ->
          Alcotest.(check string)
            (Printf.sprintf "%s lanes=%d jobs=%d" name lanes jobs)
            scalar
            (C.json_string (C.run ~jobs ~lanes cfg)))
        [ 1; 4 ])
    [ 1; 7; 62 ]

let test_report_identity_fault_free () =
  check_identity "fault-free"
    (C.make_config ~mode:(C.Uniform 0) ~trials:70 ~seed:1999 ())

let test_report_identity_stuck_at () =
  check_identity "stuck-at"
    (C.make_config ~mix:I.stuck_at_only ~mode:(C.Uniform 2) ~trials:70
       ~seed:7 ())

let test_report_identity_poisson_default_mix () =
  check_identity "poisson default mix"
    (C.make_config ~mode:(C.Poisson 0.4) ~trials:70 ~seed:3 ())

let test_lanes_out_of_range_rejected () =
  let cfg = C.make_config ~trials:3 ~seed:1 () in
  List.iter
    (fun lanes ->
      Alcotest.check_raises
        (Printf.sprintf "lanes=%d rejected" lanes)
        (Invalid_argument
           (Printf.sprintf "Campaign.run: lanes must be in 1..%d" C.max_lanes))
        (fun () -> ignore (C.run ~lanes cfg)))
    [ 0; -1; C.max_lanes + 1 ]

(* ------------------------------------------------------------------ *)
(* failing-lane replay: a failure found by the batched scheduler
   carries the same trial seed as the scalar one, and replaying that
   seed alone (pure scalar path) reproduces the anomaly *)

let test_failing_lane_replay () =
  let cfg =
    C.make_config ~march:Alg.mats_plus ~mix:retention_only ~mode:(C.Uniform 3)
      ~trials:70 ~seed:5 ()
  in
  let batched = C.run ~jobs:1 ~lanes:62 cfg in
  let scalar = C.run ~jobs:1 ~lanes:1 cfg in
  Alcotest.(check bool) "escapes found" true (batched.C.escapes <> []);
  Alcotest.(check string) "batched report = scalar report"
    (C.json_string scalar) (C.json_string batched);
  let f = List.hd batched.C.escapes in
  let t = C.replay cfg ~seed:f.C.f_seed in
  Alcotest.(check bool) "replayed lane reproduces the escape" true
    (List.exists (function C.Escape _ -> true | _ -> false)
       t.C.t_anomalies);
  Alcotest.(check (list string)) "replay draws the reported fault set"
    (List.map (Format.asprintf "%a" Bisram_faults.Fault.pp) f.C.f_faults)
    (List.map (Format.asprintf "%a" Bisram_faults.Fault.pp) t.C.t_faults)

(* ------------------------------------------------------------------ *)
(* batched checkpoint/resume: a checkpoint cut inside and at a batch
   boundary resumes to a byte-identical report *)

let test_batched_checkpoint_resume () =
  let cfg = C.make_config ~mode:(C.Uniform 2) ~trials:70 ~seed:17 () in
  let full = C.json_string (C.run ~jobs:1 ~lanes:1 cfg) in
  let path = Filename.temp_file "bisram-lanes-ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun k ->
          (* run the first k trials batched, snapshotting; resume the
             full campaign batched from the snapshot *)
          ignore
            (C.run ~jobs:1 ~lanes:62
               ~checkpoint:(C.checkpoint ~path ~every:1 ())
               { cfg with C.trials = k });
          let r =
            C.run ~jobs:1 ~lanes:62
              ~checkpoint:(C.checkpoint ~path ~every:1 ~resume:true ())
              cfg
          in
          Alcotest.(check int)
            (Printf.sprintf "k=%d trials resumed" k)
            k r.C.resumed_trials;
          Alcotest.(check string)
            (Printf.sprintf "k=%d byte-identical" k)
            full (C.json_string r))
        [ 30; 62; 65 ])

(* ------------------------------------------------------------------ *)
(* unit decomposition: full batches then single-trial tail units, so
   per-trial chaos/checkpoint semantics survive for short campaigns *)

let test_batch_ranges () =
  Alcotest.(check (list (pair int int)))
    "70 trials at width 62" [ (0, 62); (62, 1); (63, 1); (64, 1); (65, 1); (66, 1); (67, 1); (68, 1); (69, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:70 ~width:62));
  Alcotest.(check (list (pair int int)))
    "width 1 stays scalar" [ (0, 1); (1, 1); (2, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:3 ~width:1));
  Alcotest.(check (list (pair int int)))
    "exact multiple has no tail" [ (0, 4); (4, 4) ]
    (Array.to_list (Pool.batch_ranges ~items:8 ~width:4));
  Alcotest.(check (list (pair int int)))
    "fewer items than width decomposes to singles"
    [ (0, 1); (1, 1) ]
    (Array.to_list (Pool.batch_ranges ~items:2 ~width:62));
  Alcotest.(check (list (pair int int))) "zero items" []
    (Array.to_list (Pool.batch_ranges ~items:0 ~width:8))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lanes"
    [ ( "differential"
      , [ QCheck_alcotest.to_alcotest prop_lanes_equal_scalar_models
        ; QCheck_alcotest.to_alcotest prop_dense_faults
        ; QCheck_alcotest.to_alcotest prop_lane_engine_verdicts
        ; QCheck_alcotest.to_alcotest prop_reset_equals_fresh
        ] )
    ; ( "report-identity"
      , [ Alcotest.test_case "fault-free" `Quick test_report_identity_fault_free
        ; Alcotest.test_case "stuck-at" `Quick test_report_identity_stuck_at
        ; Alcotest.test_case "poisson default mix" `Slow
            test_report_identity_poisson_default_mix
        ; Alcotest.test_case "lanes out of range" `Quick
            test_lanes_out_of_range_rejected
        ] )
    ; ( "replay"
      , [ Alcotest.test_case "failing lane replays scalar" `Quick
            test_failing_lane_replay
        ] )
    ; ( "checkpoint"
      , [ Alcotest.test_case "batched resume boundaries" `Quick
            test_batched_checkpoint_resume
        ] )
    ; ( "scheduler"
      , [ Alcotest.test_case "batch_ranges decomposition" `Quick
            test_batch_ranges
        ] )
    ]
