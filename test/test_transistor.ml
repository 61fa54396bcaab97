(* Tests for Into_transistor: the EKV device model, synthetic gm/id lookup
   tables, the behavioral-to-transistor mapping and the transistor-level
   re-evaluation. *)

module Ekv = Into_transistor.Ekv
module Gmid_table = Into_transistor.Gmid_table
module Mapping = Into_transistor.Mapping
module Tlevel = Into_transistor.Tlevel
module Topology = Into_circuit.Topology
module Params = Into_circuit.Params
module Netlist = Into_circuit.Netlist
module Perf = Into_circuit.Perf

let check_close tol = Alcotest.(check (float tol))
let tech = Ekv.default_tech

(* --- Ekv --- *)

let prop_ic_gmid_roundtrip =
  QCheck.Test.make ~name:"IC <-> gm/Id round trip" ~count:200
    QCheck.(float_range 0.01 100.0)
    (fun ic ->
      let gmid = Ekv.gm_over_id_of_ic tech ic in
      let ic' = Ekv.ic_of_gm_over_id tech gmid in
      Float.abs (ic' -. ic) /. ic < 1e-9)

let test_gmid_monotone () =
  let prev = ref infinity in
  List.iter
    (fun ic ->
      let g = Ekv.gm_over_id_of_ic tech ic in
      Alcotest.(check bool) "gm/Id decreases with IC" true (g < !prev);
      prev := g)
    [ 0.01; 0.1; 1.0; 10.0; 100.0 ]

let test_gmid_limits () =
  Alcotest.(check bool) "weak-inversion limit ~29.8 S/A" true
    (Float.abs (Ekv.max_gm_over_id tech -. 29.81) < 0.1);
  (match Ekv.ic_of_gm_over_id tech 50.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "impossible gm/Id accepted");
  match Ekv.gm_over_id_of_ic tech 0.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero IC accepted"

let test_size_device () =
  let d = Ekv.size_device tech ~gm:1e-3 ~gm_over_id:15.0 ~l_um:0.5 in
  Alcotest.(check bool) "positive dimensions" true (d.Ekv.w_um > 0.0);
  check_close 1e-12 "bias current" (1e-3 /. 15.0) d.Ekv.id_a;
  Alcotest.(check bool) "ro positive" true (d.Ekv.ro_ohm > 0.0);
  Alcotest.(check bool) "ft positive" true (d.Ekv.ft_hz > 0.0);
  (* Stronger inversion at equal gm is faster (smaller device). *)
  let strong = Ekv.size_device tech ~gm:1e-3 ~gm_over_id:6.0 ~l_um:0.5 in
  Alcotest.(check bool) "strong inversion is faster" true (strong.Ekv.ft_hz > d.Ekv.ft_hz);
  Alcotest.(check bool) "strong inversion is smaller" true (strong.Ekv.w_um < d.Ekv.w_um)

(* --- Gmid_table --- *)

let table = Gmid_table.generate tech

let test_table_sorted () =
  let rows = Gmid_table.rows table in
  Alcotest.(check int) "default points" 128 (Array.length rows);
  for i = 1 to Array.length rows - 1 do
    Alcotest.(check bool) "ascending gm/Id" true
      (rows.(i).Gmid_table.gm_over_id > rows.(i - 1).Gmid_table.gm_over_id)
  done

let test_table_lookup_exact () =
  let rows = Gmid_table.rows table in
  let mid = rows.(40) in
  let found = Gmid_table.lookup_by_gm_over_id table mid.Gmid_table.gm_over_id in
  check_close 1e-9 "exact node lookup" mid.Gmid_table.ic found.Gmid_table.ic

let test_table_lookup_interpolates () =
  let rows = Gmid_table.rows table in
  let a = rows.(10) and b = rows.(11) in
  let g = 0.5 *. (a.Gmid_table.gm_over_id +. b.Gmid_table.gm_over_id) in
  let r = Gmid_table.lookup_by_gm_over_id table g in
  Alcotest.(check bool) "between the nodes" true
    (r.Gmid_table.ic < a.Gmid_table.ic && r.Gmid_table.ic > b.Gmid_table.ic)

let test_table_lookup_clamps () =
  let rows = Gmid_table.rows table in
  let low = Gmid_table.lookup_by_gm_over_id table 0.001 in
  check_close 1e-9 "clamped low" rows.(0).Gmid_table.gm_over_id low.Gmid_table.gm_over_id;
  let high = Gmid_table.lookup_by_gm_over_id table 1e6 in
  check_close 1e-9 "clamped high"
    rows.(Array.length rows - 1).Gmid_table.gm_over_id
    high.Gmid_table.gm_over_id

(* --- Mapping --- *)

let nmc_netlist () =
  let t = Topology.nmc () in
  let schema = Params.schema t in
  let sizing = Params.denormalize schema (Params.default_point schema) in
  Netlist.build t ~sizing ~cl_f:10e-12

let test_mapping_stage1_diff_pair () =
  let nl = nmc_netlist () in
  let impls = Mapping.map_design table nl in
  Alcotest.(check int) "three stages mapped" 3 (List.length impls);
  let s1 = List.hd impls in
  Alcotest.(check bool) "stage1 is a diff pair" true
    (s1.Mapping.kind = Mapping.Differential_pair);
  Alcotest.(check int) "four devices" 4 (List.length s1.Mapping.devices);
  check_close 1e-15 "tail doubles the bias"
    (2.0 *. s1.Mapping.instance.Netlist.bias_a)
    s1.Mapping.branch_current_a

let test_mapping_common_source () =
  let nl = nmc_netlist () in
  let impls = Mapping.map_design table nl in
  let s2 = List.nth impls 1 in
  Alcotest.(check bool) "stage2 is common source" true
    (s2.Mapping.kind = Mapping.Common_source);
  Alcotest.(check int) "driver and load" 2 (List.length s2.Mapping.devices);
  check_close 1e-15 "branch current is the stage bias"
    s2.Mapping.instance.Netlist.bias_a s2.Mapping.branch_current_a

let test_supply_current () =
  let nl = nmc_netlist () in
  let impls = Mapping.map_design table nl in
  let total = Mapping.supply_current impls in
  let behavioral = List.fold_left (fun acc g -> acc +. g.Netlist.bias_a) 0.0 nl.Netlist.gms in
  (* The diff pair doubles stage 1, so supply current exceeds behavioral. *)
  Alcotest.(check bool) "transistor level burns more" true (total > behavioral)

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_describe () =
  let nl = nmc_netlist () in
  let impls = Mapping.map_design table nl in
  let s = Mapping.describe (List.hd impls) in
  Alcotest.(check bool) "mentions the stage" true (string_contains s "stage1")

(* --- Tlevel --- *)

let test_tlevel_process_degraded () =
  let p = Tlevel.transistor_process tech ~l_um:0.5 in
  let b = Into_circuit.Process.behavioral in
  Alcotest.(check bool) "early voltage preserved (gm/id mapping targets it)" true
    (Float.abs (p.Into_circuit.Process.va -. b.Into_circuit.Process.va) < 1e-9);
  Alcotest.(check bool) "heavier parasitics" true
    (p.Into_circuit.Process.co_floor_f > b.Into_circuit.Process.co_floor_f);
  Alcotest.(check bool) "slower extracted devices" true
    (p.Into_circuit.Process.ft_hz < b.Into_circuit.Process.ft_hz);
  Alcotest.(check bool) "miller coupling on" true
    (p.Into_circuit.Process.cross_cap_factor > 0.0)

let test_tlevel_evaluate () =
  let t = Topology.nmc () in
  let schema = Params.schema t in
  let sizing = Params.denormalize schema (Params.default_point schema) in
  match (Tlevel.evaluate t ~sizing ~cl_f:10e-12, Perf.evaluate_checked t ~sizing ~cl_f:10e-12) with
  | Some tl, Ok behavioral ->
    Alcotest.(check int) "implementations reported" 3 (List.length tl.Tlevel.impls);
    Alcotest.(check bool) "power increases" true
      (tl.Tlevel.perf.Perf.power_w > behavioral.Perf.power_w);
    Alcotest.(check bool) "fom drops at the transistor level" true
      (Perf.fom tl.Tlevel.perf ~cl_f:10e-12 < Perf.fom behavioral ~cl_f:10e-12)
  | None, _ -> Alcotest.fail "transistor-level simulation failed"
  | _, Error _ -> Alcotest.fail "behavioral simulation failed"

let () =
  Alcotest.run "into_transistor"
    [
      ( "ekv",
        [
          Alcotest.test_case "gm/Id monotone" `Quick test_gmid_monotone;
          Alcotest.test_case "limits" `Quick test_gmid_limits;
          Alcotest.test_case "device sizing" `Quick test_size_device;
          QCheck_alcotest.to_alcotest prop_ic_gmid_roundtrip;
        ] );
      ( "gmid_table",
        [
          Alcotest.test_case "sorted rows" `Quick test_table_sorted;
          Alcotest.test_case "exact lookup" `Quick test_table_lookup_exact;
          Alcotest.test_case "interpolation" `Quick test_table_lookup_interpolates;
          Alcotest.test_case "clamping" `Quick test_table_lookup_clamps;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "stage1 diff pair" `Quick test_mapping_stage1_diff_pair;
          Alcotest.test_case "common source stages" `Quick test_mapping_common_source;
          Alcotest.test_case "supply current" `Quick test_supply_current;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "tlevel",
        [
          Alcotest.test_case "degraded process" `Quick test_tlevel_process_degraded;
          Alcotest.test_case "re-evaluation" `Quick test_tlevel_evaluate;
        ] );
    ]
