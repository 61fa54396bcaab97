(* Tests for Into_circuit: the subcircuit algebra, the 30625-topology design
   space, parameter schemas, netlist expansion, and the MNA/AC engine
   verified against hand-computed transfer functions. *)

module Subcircuit = Into_circuit.Subcircuit
module Topology = Into_circuit.Topology
module Params = Into_circuit.Params
module Process = Into_circuit.Process
module Netlist = Into_circuit.Netlist
module Linear_system = Into_circuit.Linear_system
module Ac = Into_circuit.Ac
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Rng = Into_util.Rng

let check_close tol = Alcotest.(check (float tol))

(* --- Subcircuit --- *)

let test_type_counts () =
  Alcotest.(check int) "25 full types" 25 (List.length Subcircuit.all);
  Alcotest.(check int) "7 input types" 7 (List.length Subcircuit.gm_from_input);
  Alcotest.(check int) "5 shunt types" 5 (List.length Subcircuit.passive_only)

let test_types_distinct () =
  let distinct l = List.length (List.sort_uniq Subcircuit.compare l) = List.length l in
  Alcotest.(check bool) "all distinct" true (distinct Subcircuit.all);
  Alcotest.(check bool) "input subset of all" true
    (List.for_all (fun t -> List.mem t Subcircuit.all) Subcircuit.gm_from_input);
  Alcotest.(check bool) "shunt subset of all" true
    (List.for_all (fun t -> List.mem t Subcircuit.all) Subcircuit.passive_only)

let test_labels_distinct () =
  let labels = List.map Subcircuit.label Subcircuit.all in
  Alcotest.(check int) "labels distinct" (List.length labels)
    (List.length (List.sort_uniq compare labels))

let test_param_kinds () =
  Alcotest.(check int) "none has no params" 0
    (List.length (Subcircuit.param_kinds Subcircuit.No_conn));
  Alcotest.(check int) "RCs has two params" 2
    (List.length (Subcircuit.param_kinds (Subcircuit.Passive (Subcircuit.Rc Subcircuit.Series))));
  Alcotest.(check int) "gm+R has three params" 3
    (List.length
       (Subcircuit.param_kinds
          (Subcircuit.Gm_with
             (Subcircuit.Plus, Subcircuit.Forward, Subcircuit.Res, Subcircuit.Series))))

let test_is_gm () =
  Alcotest.(check bool) "passive is not gm" false
    (Subcircuit.is_gm (Subcircuit.Passive Subcircuit.Single_r));
  Alcotest.(check bool) "gm is gm" true
    (Subcircuit.is_gm (Subcircuit.Gm (Subcircuit.Plus, Subcircuit.Forward)))

(* --- Topology --- *)

let test_space_size () =
  Alcotest.(check int) "30625 topologies" 30625 Topology.space_size

let prop_index_bijection =
  QCheck.Test.make ~name:"topology index bijection" ~count:500
    QCheck.(int_range 0 (Topology.space_size - 1))
    (fun idx -> Topology.to_index (Topology.of_index idx) = idx)

let test_of_index_bounds () =
  Alcotest.check_raises "negative index" (Invalid_argument "Topology.of_index: out of range")
    (fun () -> ignore (Topology.of_index (-1)));
  Alcotest.check_raises "too large" (Invalid_argument "Topology.of_index: out of range")
    (fun () -> ignore (Topology.of_index Topology.space_size))

let test_make_rejects_rule_violation () =
  (* A backward gm is not admissible on a vin-anchored slot. *)
  let bad () =
    ignore
      (Topology.make
         ~vin_v2:(Subcircuit.Gm (Subcircuit.Plus, Subcircuit.Backward))
         ~vin_vout:Subcircuit.No_conn ~v1_vout:Subcircuit.No_conn
         ~v1_gnd:Subcircuit.No_conn ~v2_gnd:Subcircuit.No_conn)
  in
  match bad () with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "rule violation accepted"

let prop_random_topology_valid =
  QCheck.Test.make ~name:"random topologies satisfy the rule set" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let t = Topology.random rng in
      List.for_all
        (fun slot ->
          Array.exists (Subcircuit.equal (Topology.get t slot)) (Topology.allowed slot))
        Topology.slots)

let prop_mutation_changes_topology =
  QCheck.Test.make ~name:"mutation always changes the topology" ~count:200
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let t = Topology.random rng in
      let t' = Topology.mutate rng t in
      Topology.hamming t t' >= 1)

let test_mutation_expected_changes () =
  let rng = Rng.create ~seed:99 in
  let n = 5000 in
  let total = ref 0 in
  for _ = 1 to n do
    let t = Topology.random rng in
    total := !total + Topology.hamming t (Topology.mutate rng t)
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* Expected ~1.17: one slot is forced when the 1/5-per-slot draw fires none. *)
  Alcotest.(check bool)
    (Printf.sprintf "mean mutated slots %.2f in [0.9, 1.5]" mean)
    true
    (mean > 0.9 && mean < 1.5)

let test_set_get () =
  let t = Topology.nmc () in
  let t' = Topology.set t Topology.V1_gnd (Subcircuit.Passive Subcircuit.Single_c) in
  Alcotest.(check bool) "updated" true
    (Subcircuit.equal (Topology.get t' Topology.V1_gnd) (Subcircuit.Passive Subcircuit.Single_c));
  Alcotest.(check bool) "original unchanged" true
    (Subcircuit.equal (Topology.get t Topology.V1_gnd) Subcircuit.No_conn);
  Alcotest.(check int) "hamming" 1 (Topology.hamming t t')

(* --- Params --- *)

let test_schema_dims () =
  let bare = Topology.of_index 0 in
  Alcotest.(check bool) "index 0 is the bare amplifier" true
    (List.for_all
       (fun slot -> Subcircuit.equal (Topology.get bare slot) Subcircuit.No_conn)
       Topology.slots);
  Alcotest.(check int) "bare dim" 6 (Params.dim (Params.schema bare));
  Alcotest.(check int) "nmc dim" 8 (Params.dim (Params.schema (Topology.nmc ())))

let prop_normalize_roundtrip =
  QCheck.Test.make ~name:"params normalize . denormalize = id" ~count:200
    QCheck.(pair (int_range 0 (Topology.space_size - 1)) small_int)
    (fun (idx, seed) ->
      let schema = Params.schema (Topology.of_index idx) in
      let rng = Rng.create ~seed in
      let u = Params.random_point rng schema in
      let u' = Params.normalize schema (Params.denormalize schema u) in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) u u')

let test_slot_param_indices () =
  let t = Topology.nmc () in
  let schema = Params.schema t in
  Alcotest.(check (list int)) "v1-vout owns dims 6,7" [ 6; 7 ]
    (Params.slot_param_indices schema Topology.V1_vout);
  Alcotest.(check (list int)) "v1-gnd owns nothing" []
    (Params.slot_param_indices schema Topology.V1_gnd)

(* --- Netlist --- *)

let nmc_sizing gm1 gm2 gm3 gmid r c = [| gm1; gmid; gm2; gmid; gm3; gmid; r; c |]

let test_netlist_structure () =
  let nl =
    Netlist.build (Topology.nmc ()) ~sizing:(nmc_sizing 1e-4 1e-4 1e-3 10.0 1e4 1e-12)
      ~cl_f:10e-12
  in
  Alcotest.(check int) "three unknowns" 3 nl.Netlist.n_unknowns;
  Alcotest.(check int) "three transconductors" 3 (List.length nl.Netlist.gms);
  check_close 1e-15 "power = vdd * sum(gm/gmid)"
    (1.8 *. ((1e-4 +. 1e-4 +. 1e-3) /. 10.0))
    nl.Netlist.power_w

let test_netlist_internal_node () =
  let t =
    Topology.make
      ~vin_v2:
        (Subcircuit.Gm_with
           (Subcircuit.Minus, Subcircuit.Forward, Subcircuit.Res, Subcircuit.Series))
      ~vin_vout:Subcircuit.No_conn ~v1_vout:Subcircuit.No_conn
      ~v1_gnd:Subcircuit.No_conn ~v2_gnd:Subcircuit.No_conn
  in
  let schema = Params.schema t in
  let sizing = Params.denormalize schema (Params.default_point schema) in
  let nl = Netlist.build t ~sizing ~cl_f:10e-12 in
  Alcotest.(check int) "one internal node" 4 nl.Netlist.n_unknowns;
  Alcotest.(check int) "four transconductors" 4 (List.length nl.Netlist.gms)

let test_netlist_dimension_check () =
  match Netlist.build (Topology.nmc ()) ~sizing:[| 1.0 |] ~cl_f:1e-12 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad sizing accepted"

(* --- MNA against hand-computed transfer functions --- *)

(* Hand-built netlists for stamp verification; unused nodes v1/v2 get unit
   conductances to ground so the system stays regular. *)
(* [vout/vin] of the modified-nodal-analysis stamps at one frequency. *)
let transfer nl ~freq_hz =
  let ws = Linear_system.ac (Linear_system.build nl) in
  Linear_system.factor_at ws ~freq_hz;
  Linear_system.vout ws

let bare_netlist prims =
  {
    Netlist.prims =
      Netlist.Conductance (Netlist.N 0, Netlist.Gnd, 1.0)
      :: Netlist.Conductance (Netlist.N 1, Netlist.Gnd, 1.0)
      :: prims;
    n_unknowns = 3;
    power_w = 0.0;
    gms = [];
  }

let test_mna_single_stage_dc () =
  (* vin --[-gm]--> vout with R load: H(0) = -gm R. *)
  let nl =
    bare_netlist
      [
        Netlist.Vccs { ctrl = Netlist.Vin; out = Netlist.N 2; gm = -1e-3; pole_hz = 1e15 };
        Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1e-5);
        Netlist.Capacitance (Netlist.N 2, Netlist.Gnd, 1e-12);
      ]
  in
  let h = transfer nl ~freq_hz:1e-3 in
  check_close 1e-6 "DC gain -gm R" (-100.0) h.Complex.re;
  check_close 1e-6 "no imaginary part at DC" 0.0 h.Complex.im

let test_mna_pole_frequency () =
  let gm = 1e-3 and r = 1e5 and c = 1e-12 in
  let fp = 1.0 /. (2.0 *. Float.pi *. r *. c) in
  let nl =
    bare_netlist
      [
        Netlist.Vccs { ctrl = Netlist.Vin; out = Netlist.N 2; gm = -.gm; pole_hz = 1e15 };
        Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1.0 /. r);
        Netlist.Capacitance (Netlist.N 2, Netlist.Gnd, c);
      ]
  in
  let h = transfer nl ~freq_hz:fp in
  check_close 1e-3 "magnitude -3dB at the pole" (gm *. r /. sqrt 2.0) (Complex.norm h);
  check_close 1e-3 "phase at the pole" (3.0 *. Float.pi /. 4.0) (Complex.arg h)

let test_mna_series_rc_admittance () =
  (* Divider vin --[R-C series]-- vout --[G]-- gnd: H = Y/(Y+G). *)
  let r = 1e4 and c = 1e-9 and g = 1e-4 in
  let f = 12345.0 in
  let nl =
    bare_netlist
      [
        Netlist.Series_rc (Netlist.Vin, Netlist.N 2, r, c);
        Netlist.Conductance (Netlist.N 2, Netlist.Gnd, g);
      ]
  in
  let h = transfer nl ~freq_hz:f in
  let w = 2.0 *. Float.pi *. f in
  let y =
    Complex.div { Complex.re = 0.0; im = w *. c } { Complex.re = 1.0; im = w *. r *. c }
  in
  let expected = Complex.div y (Complex.add y { Complex.re = g; im = 0.0 }) in
  check_close 1e-9 "divider re" expected.Complex.re h.Complex.re;
  check_close 1e-9 "divider im" expected.Complex.im h.Complex.im

let test_three_stage_dc_gain () =
  (* With every slot unconnected the DC gain is (gmid * va)^3. *)
  let bare = Topology.of_index 0 in
  let gmid = 10.0 in
  let sizing = [| 1e-5; gmid; 1e-5; gmid; 1e-5; gmid |] in
  let nl = Netlist.build bare ~sizing ~cl_f:10e-12 in
  let h = transfer nl ~freq_hz:1e-3 in
  let expected = (gmid *. Process.behavioral.Process.va) ** 3.0 in
  check_close (expected *. 1e-4) "analytic three-stage DC gain" expected (Complex.norm h);
  Alcotest.(check bool) "positive overall sign" true (h.Complex.re > 0.0)

(* --- AC analysis --- *)

let test_ac_bare_amplifier () =
  let bare = Topology.of_index 0 in
  let sizing = [| 1e-4; 10.0; 1e-4; 10.0; 1e-3; 10.0 |] in
  match Ac.analyze (Netlist.build bare ~sizing ~cl_f:10e-12) with
  | None -> Alcotest.fail "bare amplifier should simulate"
  | Some r ->
    check_close 0.5 "gain is (gmid va)^3 in dB"
      (60.0 *. log10 (10.0 *. Process.behavioral.Process.va))
      r.Ac.gain_db;
    Alcotest.(check bool) "unity crossing exists" true (r.Ac.gbw_hz > 0.0);
    Alcotest.(check bool) "uncompensated three-stage has poor PM" true (r.Ac.pm_deg < 55.0)

let test_ac_pm_capped () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 100 do
    let t = Topology.random rng in
    let schema = Params.schema t in
    let sizing = Params.denormalize schema (Params.random_point rng schema) in
    match Ac.analyze (Netlist.build t ~sizing ~cl_f:10e-12) with
    | None -> ()
    | Some r -> Alcotest.(check bool) "pm <= 180" true (r.Ac.pm_deg <= 180.0)
  done

let test_bode_sweep () =
  let nl =
    Netlist.build (Topology.nmc ())
      ~sizing:(nmc_sizing 1e-4 1e-4 1e-3 10.0 1e4 1e-12)
      ~cl_f:10e-12
  in
  let pts = Ac.bode nl ~freqs:[| 1.0; 10.0; 100.0 |] in
  Alcotest.(check int) "three points" 3 (Array.length pts);
  let _, mag0, ph0 = pts.(0) in
  Alcotest.(check bool) "finite" true (Float.is_finite mag0 && Float.is_finite ph0)

(* --- Spec & Perf --- *)

let test_spec_lookup () =
  Alcotest.(check string) "find S-3" "S-3" (Spec.find "S-3").Spec.name;
  Alcotest.(check int) "five specs" 5 (List.length Spec.all);
  check_close 1e-18 "S-5 load" 10e-9 (Spec.find "S-5").Spec.cl_f

let test_fom_formula () =
  let p = { Perf.gain_db = 90.0; gbw_hz = 2e6; pm_deg = 60.0; power_w = 100e-6 } in
  (* FoM = 2 MHz * 10 pF / 0.1 mW = 200. *)
  check_close 1e-9 "fom" 200.0 (Perf.fom p ~cl_f:10e-12)

let perf_gen =
  QCheck.Gen.(
    map
      (fun ((gain, gbw), (pm, power)) ->
        { Perf.gain_db = gain; gbw_hz = gbw; pm_deg = pm; power_w = power })
      (pair
         (pair (float_range 0.0 150.0) (float_range 0.0 1e8))
         (pair (float_range (-90.0) 180.0) (float_range 1e-6 1e-3))))

let prop_satisfies_iff_zero_violation =
  QCheck.Test.make ~name:"satisfies <=> violation = 0" ~count:500 (QCheck.make perf_gen)
    (fun p ->
      let s = Spec.s1 in
      let sat = Perf.satisfies p s and v = Perf.violation p s in
      if sat then v = 0.0 else v >= 0.0)

let test_evaluate_returns_power () =
  let t = Topology.nmc () in
  let sizing = nmc_sizing 1e-4 1e-4 1e-3 10.0 1e4 1e-12 in
  match Perf.evaluate_checked t ~sizing ~cl_f:10e-12 with
  | Error _ -> Alcotest.fail "should simulate"
  | Ok p ->
    check_close 1e-12 "power matches netlist"
      (Netlist.build t ~sizing ~cl_f:10e-12).Netlist.power_w p.Perf.power_w

(* --- Process --- *)

let test_process_model () =
  let p = Process.behavioral in
  check_close 1e-12 "bias current" 1e-5 (Process.bias_current ~gm:1e-4 ~gm_over_id:10.0);
  check_close 1e-6 "output resistance" (p.Process.va /. 1e-5)
    (Process.output_resistance p ~id:1e-5);
  Alcotest.(check bool) "weak inversion is slower" true
    (Process.transit_frequency p ~gm_over_id:25.0 < Process.transit_frequency p ~gm_over_id:5.0);
  Alcotest.(check bool) "co floor" true
    (Process.output_capacitance p ~gm:1e-9 ~gm_over_id:10.0 >= p.Process.co_floor_f)


(* --- additional edge cases --- *)

let test_subcircuit_strings_distinct () =
  let names = List.map Subcircuit.to_string Subcircuit.all in
  Alcotest.(check int) "25 distinct names" 25 (List.length (List.sort_uniq compare names))

let test_gm_instance_names () =
  let t =
    Topology.make ~vin_v2:(Subcircuit.Gm (Subcircuit.Minus, Subcircuit.Forward))
      ~vin_vout:Subcircuit.No_conn ~v1_vout:Subcircuit.No_conn ~v1_gnd:Subcircuit.No_conn
      ~v2_gnd:Subcircuit.No_conn
  in
  let schema = Params.schema t in
  let nl =
    Netlist.build t ~sizing:(Params.denormalize schema (Params.default_point schema))
      ~cl_f:1e-12
  in
  let names = List.map (fun g -> g.Netlist.gm_name) nl.Netlist.gms in
  Alcotest.(check (list string)) "stage names then slot name"
    [ "stage1"; "stage2"; "stage3"; "vin-v2.gm" ] names

let test_topology_to_string_mentions_slots () =
  let s = Topology.to_string (Topology.nmc ()) in
  List.iter
    (fun frag ->
      let nl = String.length frag and hl = String.length s in
      let rec go i = i + nl <= hl && (String.sub s i nl = frag || go (i + 1)) in
      Alcotest.(check bool) ("mentions " ^ frag) true (go 0))
    [ "vin-v2:none"; "v1-vout:RCs"; "v2-gnd:none" ]

let test_specs_differ_in_one_bound () =
  let base = Spec.s1 in
  Alcotest.(check bool) "s2 tightens gain only" true
    (Spec.s2.Spec.min_gain_db > base.Spec.min_gain_db
    && Spec.s2.Spec.min_gbw_hz = base.Spec.min_gbw_hz
    && Spec.s2.Spec.max_power_w = base.Spec.max_power_w
    && Spec.s2.Spec.cl_f = base.Spec.cl_f);
  Alcotest.(check bool) "s3 tightens gbw only" true
    (Spec.s3.Spec.min_gbw_hz > base.Spec.min_gbw_hz
    && Spec.s3.Spec.min_gain_db = base.Spec.min_gain_db);
  Alcotest.(check bool) "s4 tightens power only" true
    (Spec.s4.Spec.max_power_w < base.Spec.max_power_w);
  Alcotest.(check bool) "s5 scales the load only" true
    (Spec.s5.Spec.cl_f = 1000.0 *. base.Spec.cl_f)

let test_full_schema_dim () =
  (* The largest schema: gm+element in all three gm-capable slots plus two
     RC shunts: 6 + 3 + 3 + 3 + 2 + 2 = 19. *)
  let t =
    Topology.make
      ~vin_v2:(Subcircuit.Gm_with (Subcircuit.Minus, Subcircuit.Forward, Subcircuit.Res, Subcircuit.Series))
      ~vin_vout:(Subcircuit.Gm_with (Subcircuit.Plus, Subcircuit.Forward, Subcircuit.Cap, Subcircuit.Series))
      ~v1_vout:(Subcircuit.Gm_with (Subcircuit.Minus, Subcircuit.Backward, Subcircuit.Cap, Subcircuit.Parallel))
      ~v1_gnd:(Subcircuit.Passive (Subcircuit.Rc Subcircuit.Series))
      ~v2_gnd:(Subcircuit.Passive (Subcircuit.Rc Subcircuit.Parallel))
  in
  Alcotest.(check int) "maximal dimension" 19 (Params.dim (Params.schema t))

let prop_power_scales_with_gm =
  QCheck.Test.make ~name:"power is monotone in stage gm" ~count:50
    QCheck.(pair (float_range 1e-6 1e-3) (float_range 1.1 5.0))
    (fun (gm, factor) ->
      let bare = Topology.of_index 0 in
      let power g =
        (Netlist.build bare ~sizing:[| g; 10.0; g; 10.0; g; 10.0 |] ~cl_f:1e-12).Netlist.power_w
      in
      power (gm *. factor) > power gm)

let () =
  Alcotest.run "into_circuit"
    [
      ( "subcircuit",
        [
          Alcotest.test_case "type counts" `Quick test_type_counts;
          Alcotest.test_case "types distinct" `Quick test_types_distinct;
          Alcotest.test_case "labels distinct" `Quick test_labels_distinct;
          Alcotest.test_case "param kinds" `Quick test_param_kinds;
          Alcotest.test_case "is_gm" `Quick test_is_gm;
        ] );
      ( "topology",
        [
          Alcotest.test_case "space size" `Quick test_space_size;
          Alcotest.test_case "of_index bounds" `Quick test_of_index_bounds;
          Alcotest.test_case "rule violations rejected" `Quick test_make_rejects_rule_violation;
          Alcotest.test_case "mutation rate" `Quick test_mutation_expected_changes;
          Alcotest.test_case "set/get" `Quick test_set_get;
          QCheck_alcotest.to_alcotest prop_index_bijection;
          QCheck_alcotest.to_alcotest prop_random_topology_valid;
          QCheck_alcotest.to_alcotest prop_mutation_changes_topology;
        ] );
      ( "params",
        [
          Alcotest.test_case "schema dims" `Quick test_schema_dims;
          Alcotest.test_case "slot param indices" `Quick test_slot_param_indices;
          QCheck_alcotest.to_alcotest prop_normalize_roundtrip;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "structure" `Quick test_netlist_structure;
          Alcotest.test_case "internal node for series gm" `Quick test_netlist_internal_node;
          Alcotest.test_case "dimension check" `Quick test_netlist_dimension_check;
        ] );
      ( "mna",
        [
          Alcotest.test_case "single stage DC" `Quick test_mna_single_stage_dc;
          Alcotest.test_case "pole frequency" `Quick test_mna_pole_frequency;
          Alcotest.test_case "series RC admittance" `Quick test_mna_series_rc_admittance;
          Alcotest.test_case "three-stage DC gain" `Quick test_three_stage_dc_gain;
        ] );
      ( "ac",
        [
          Alcotest.test_case "bare amplifier" `Quick test_ac_bare_amplifier;
          Alcotest.test_case "pm capped at 180" `Quick test_ac_pm_capped;
          Alcotest.test_case "bode sweep" `Quick test_bode_sweep;
        ] );
      ( "spec-perf",
        [
          Alcotest.test_case "spec lookup" `Quick test_spec_lookup;
          Alcotest.test_case "fom formula" `Quick test_fom_formula;
          Alcotest.test_case "evaluate attaches power" `Quick test_evaluate_returns_power;
          QCheck_alcotest.to_alcotest prop_satisfies_iff_zero_violation;
        ] );
      ("process", [ Alcotest.test_case "model relations" `Quick test_process_model ]);
      ( "edge-cases",
        [
          Alcotest.test_case "subcircuit names distinct" `Quick test_subcircuit_strings_distinct;
          Alcotest.test_case "gm instance names" `Quick test_gm_instance_names;
          Alcotest.test_case "topology rendering" `Quick test_topology_to_string_mentions_slots;
          Alcotest.test_case "spec deltas" `Quick test_specs_differ_in_one_bound;
          Alcotest.test_case "maximal schema" `Quick test_full_schema_dim;
          QCheck_alcotest.to_alcotest prop_power_scales_with_gm;
        ] );
    ]
