(* Tests for Into_core: acquisition functions, objective transforms, the
   sizing BO, candidate generation, Algorithm 1, and the interpretability
   layer (attribution, sensitivity, refinement). *)

module Acquisition = Into_core.Acquisition
module Objective = Into_core.Objective
module Sizing = Into_core.Sizing
module Sizing_transfer = Into_core.Sizing_transfer
module Evaluator = Into_core.Evaluator
module Candidates = Into_core.Candidates
module Topo_bo = Into_core.Topo_bo
module Attribution = Into_core.Attribution
module Sensitivity = Into_core.Sensitivity
module Refine = Into_core.Refine
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Params = Into_circuit.Params
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Rng = Into_util.Rng

let check_close tol = Alcotest.(check (float tol))

(* --- Acquisition --- *)

let test_ei_basics () =
  check_close 1e-12 "deterministic below best" 0.0
    (Acquisition.expected_improvement ~mean:0.0 ~std:0.0 ~best:1.0);
  check_close 1e-12 "deterministic above best" 2.0
    (Acquisition.expected_improvement ~mean:3.0 ~std:0.0 ~best:1.0);
  let ei = Acquisition.expected_improvement ~mean:0.0 ~std:1.0 ~best:0.0 in
  check_close 1e-6 "EI at best with unit std" (1.0 /. sqrt (2.0 *. Float.pi)) ei

let prop_ei_nonnegative =
  QCheck.Test.make ~name:"EI is nonnegative" ~count:300
    QCheck.(triple (float_range (-10.) 10.) (float_range 0.0 5.0) (float_range (-10.) 10.))
    (fun (mean, std, best) -> Acquisition.expected_improvement ~mean ~std ~best >= 0.0)

let prop_ei_monotone_in_mean =
  QCheck.Test.make ~name:"EI monotone in the mean" ~count:200
    QCheck.(triple (float_range (-5.) 5.) (float_range 0.01 3.0) (float_range (-5.) 5.))
    (fun (mean, std, best) ->
      Acquisition.expected_improvement ~mean:(mean +. 0.5) ~std ~best
      >= Acquisition.expected_improvement ~mean ~std ~best -. 1e-12)

let test_probability_feasible () =
  check_close 1e-9 "min sense at bound" 0.5
    (Acquisition.probability_feasible ~mean:1.0 ~std:1.0 ~bound:1.0 ~sense:`Min);
  Alcotest.(check bool) "min sense above" true
    (Acquisition.probability_feasible ~mean:3.0 ~std:0.5 ~bound:1.0 ~sense:`Min > 0.99);
  Alcotest.(check bool) "max sense above" true
    (Acquisition.probability_feasible ~mean:3.0 ~std:0.5 ~bound:1.0 ~sense:`Max < 0.01);
  check_close 1e-12 "deterministic min" 1.0
    (Acquisition.probability_feasible ~mean:2.0 ~std:0.0 ~bound:1.0 ~sense:`Min)

let test_weighted_ei () =
  let v = Acquisition.weighted_ei ~w:0.5 ~ei:4.0 ~feasibility:[ 0.25 ] in
  check_close 1e-9 "geometric blend" 1.0 v;
  check_close 1e-9 "w=1 ignores feasibility" 4.0
    (Acquisition.weighted_ei ~w:1.0 ~ei:4.0 ~feasibility:[ 0.01 ]);
  (match Acquisition.weighted_ei ~w:1.5 ~ei:1.0 ~feasibility:[] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "w > 1 accepted");
  check_close 1e-12 "feasibility product" 0.06
    (Acquisition.feasibility_only [ 0.2; 0.3 ])

(* --- Objective --- *)

let test_objective_transforms () =
  let p = { Perf.gain_db = 90.0; gbw_hz = 1e6; pm_deg = 60.0; power_w = 1e-4 } in
  let v = Objective.metric_values p in
  check_close 1e-9 "gain passthrough" 90.0 v.(0);
  check_close 1e-9 "gbw log10" 6.0 v.(1);
  check_close 1e-9 "pm passthrough" 60.0 v.(2);
  check_close 1e-9 "power log10" (-4.0) v.(3)

let test_objective_bounds_consistent () =
  (* A perf exactly at the bounds transforms to values exactly at the
     transformed bounds. *)
  let s = Spec.s1 in
  let p =
    {
      Perf.gain_db = s.Spec.min_gain_db;
      gbw_hz = s.Spec.min_gbw_hz;
      pm_deg = s.Spec.min_pm_deg;
      power_w = s.Spec.max_power_w;
    }
  in
  let v = Objective.metric_values p in
  List.iteri
    (fun i (bound, _) -> check_close 1e-9 "bound matches" bound v.(i))
    (Objective.bounds s)

let test_fom_value_floor () =
  let p = { Perf.gain_db = 0.0; gbw_hz = 0.0; pm_deg = 0.0; power_w = 1e-4 } in
  check_close 1e-9 "floored log fom" (-6.0) (Objective.fom_value p ~cl_f:10e-12)

(* --- Sizing --- *)

let small_sizing = { Sizing.default_config with Sizing.n_init = 5; n_iter = 8; n_candidates = 20 }

let test_sizing_budget () =
  let rng = Rng.create ~seed:41 in
  let r = Sizing.optimize ~config:small_sizing ~rng ~spec:Spec.s1 (Topology.nmc ()) in
  Alcotest.(check int) "n_sims = init + iterations" 13 r.Sizing.n_sims;
  Alcotest.(check bool) "found something" true (Sizing.best r <> None)

let test_sizing_improves_over_random () =
  (* The BO phase should not be worse than its own initialization. *)
  let rng = Rng.create ~seed:42 in
  let t = Topology.nmc () in
  let r = Sizing.optimize ~rng ~spec:Spec.s1 t in
  match Sizing.best r with
  | None -> Alcotest.fail "sizing failed entirely"
  | Some o ->
    Alcotest.(check bool) "positive power" true (o.Sizing.perf.Perf.power_w > 0.0)

let test_sizing_free_dims () =
  let t = Topology.nmc () in
  let schema = Params.schema t in
  let start = Params.default_point schema in
  let rng = Rng.create ~seed:43 in
  let r =
    Sizing.optimize ~config:small_sizing ~start ~free_dims:[ 6; 7 ] ~rng ~spec:Spec.s1 t
  in
  match Sizing.best r with
  | None -> Alcotest.fail "sizing failed"
  | Some o ->
    let u = Params.normalize schema o.Sizing.sizing in
    (* Frozen coordinates stay at the start point. *)
    List.iter
      (fun d -> check_close 1e-9 "frozen dim" start.(d) u.(d))
      [ 0; 1; 2; 3; 4; 5 ]

let test_sizing_start_validation () =
  match
    Sizing.optimize ~start:[| 0.5 |] ~rng:(Rng.create ~seed:1) ~spec:Spec.s1
      (Topology.nmc ())
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad start accepted"

(* --- Sizing_transfer --- *)

let test_transfer_identity () =
  let t = Topology.nmc () in
  let schema = Params.schema t in
  let sizing = Params.denormalize schema (Params.default_point schema) in
  let back = Sizing_transfer.transfer ~from_schema:schema ~from_sizing:sizing ~to_schema:schema in
  Alcotest.(check (array (float 1e-12))) "identity transfer" sizing back

let test_transfer_and_new_dims () =
  let t = Topology.nmc () in
  let t' = Topology.set t Topology.V1_gnd (Subcircuit.Passive Subcircuit.Single_c) in
  let s = Params.schema t and s' = Params.schema t' in
  let sizing = Params.denormalize s (Params.default_point s) in
  let moved = Sizing_transfer.transfer ~from_schema:s ~from_sizing:sizing ~to_schema:s' in
  Alcotest.(check int) "dimension grows" (Params.dim s + 1) (Array.length moved);
  (* Old values preserved (stage params at the front). *)
  check_close 1e-12 "gm1 preserved" sizing.(0) moved.(0);
  let fresh = Sizing_transfer.new_dims ~from_schema:s ~to_schema:s' in
  Alcotest.(check int) "one new dim" 1 (List.length fresh);
  (* Removal direction: no new dims. *)
  Alcotest.(check (list int)) "no new dims on removal" []
    (Sizing_transfer.new_dims ~from_schema:s' ~to_schema:s)

(* --- Candidates --- *)

let test_candidates_distinct_unvisited () =
  let rng = Rng.create ~seed:51 in
  let visited_set = Hashtbl.create 16 in
  for i = 0 to 99 do
    Hashtbl.replace visited_set i ()
  done;
  let visited t = Hashtbl.mem visited_set (Topology.to_index t) in
  let pool =
    Candidates.generate ~rng ~strategy:Candidates.Mixed ~pool:50
      ~best:[ Topology.nmc () ] ~visited
  in
  Alcotest.(check int) "pool filled" 50 (List.length pool);
  let idxs = List.map Topology.to_index pool in
  Alcotest.(check int) "distinct" 50 (List.length (List.sort_uniq compare idxs));
  Alcotest.(check bool) "unvisited" true (List.for_all (fun i -> i >= 100) idxs)

let test_candidates_mutation_local () =
  let rng = Rng.create ~seed:52 in
  let seed_topo = Topology.nmc () in
  let pool =
    Candidates.generate ~rng ~strategy:Candidates.Mutation_only ~pool:30
      ~best:[ seed_topo ] ~visited:(fun _ -> false)
  in
  (* One mutation step keeps candidates within a small Hamming ball. *)
  Alcotest.(check bool) "hamming <= 4" true
    (List.for_all (fun t -> Topology.hamming seed_topo t <= 4) pool);
  let mean_h =
    Into_util.Stats.mean
      (List.map (fun t -> float_of_int (Topology.hamming seed_topo t)) pool)
  in
  Alcotest.(check bool) "mostly local" true (mean_h < 2.5)

let test_candidates_empty_best_falls_back () =
  let rng = Rng.create ~seed:53 in
  let pool =
    Candidates.generate ~rng ~strategy:Candidates.Mutation_only ~pool:10 ~best:[]
      ~visited:(fun _ -> false)
  in
  Alcotest.(check int) "random fallback" 10 (List.length pool)

let test_strategy_names () =
  Alcotest.(check string) "mixed" "INTO-OA" (Candidates.strategy_name Candidates.Mixed);
  Alcotest.(check string) "random" "INTO-OA-r" (Candidates.strategy_name Candidates.Random_only);
  Alcotest.(check string) "mutation" "INTO-OA-m"
    (Candidates.strategy_name Candidates.Mutation_only)

(* --- Evaluator --- *)

let test_evaluator () =
  let rng = Rng.create ~seed:61 in
  match Evaluator.evaluate_gated ~sizing_config:small_sizing ~rng ~spec:Spec.s1 (Topology.nmc ()) with
  | Evaluator.Rejected _ | Evaluator.Failed _ -> Alcotest.fail "NMC should evaluate"
  | Evaluator.Evaluated e ->
    Alcotest.(check int) "sims counted" 13 e.Evaluator.n_sims;
    check_close 1e-9 "fom consistent"
      (Perf.fom e.Evaluator.perf ~cl_f:Spec.s1.Spec.cl_f)
      e.Evaluator.fom;
    Alcotest.(check bool) "feasible flag consistent"
      (Perf.satisfies e.Evaluator.perf Spec.s1)
      e.Evaluator.feasible

(* --- Topo_bo (Algorithm 1) --- *)

let tiny_config strategy =
  {
    (Topo_bo.default_config strategy) with
    Topo_bo.n_init = 3;
    iterations = 4;
    pool = 20;
    sizing = small_sizing;
  }

let test_topo_bo_run () =
  let rng = Rng.create ~seed:71 in
  let r = Topo_bo.run ~config:(tiny_config Candidates.Mixed) ~rng ~spec:Spec.s1 () in
  Alcotest.(check int) "one step per evaluation" 7 (List.length r.Topo_bo.steps);
  Alcotest.(check int) "sims = 7 * 13" (7 * 13) r.Topo_bo.total_sims;
  (* Cumulative sims strictly increasing. *)
  let sims = List.map (fun (s : Topo_bo.step) -> s.Topo_bo.cumulative_sims) r.Topo_bo.steps in
  Alcotest.(check bool) "monotone" true (List.sort compare sims = sims);
  (* Visited topologies never repeat. *)
  let idxs =
    List.filter_map
      (fun (s : Topo_bo.step) ->
        Option.map
          (fun (e : Evaluator.evaluation) -> Topology.to_index e.Evaluator.topology)
          s.Topo_bo.evaluation)
      r.Topo_bo.steps
  in
  Alcotest.(check int) "no repeats" (List.length idxs)
    (List.length (List.sort_uniq compare idxs));
  Alcotest.(check int) "five models" 5 (List.length r.Topo_bo.models)

let test_topo_bo_best_is_feasible () =
  let rng = Rng.create ~seed:72 in
  let cfg = { (tiny_config Candidates.Mixed) with Topo_bo.n_init = 6; iterations = 10 } in
  let r = Topo_bo.run ~config:cfg ~rng ~spec:Spec.s1 () in
  match r.Topo_bo.best with
  | None -> () (* a tiny run may legitimately fail *)
  | Some e -> Alcotest.(check bool) "best is feasible" true e.Evaluator.feasible

(* A fixed-seed run pinned to values recorded with surrogates that fit and
   predict one model at a time: every step (chosen topology, sizing, FoM
   and simulations at %.17g), the selected h per final model, and the
   complete WL dictionary, whose [Wl.describe] listing (all 5707 entries,
   one per line) is pinned by its digest.  Sharing work across the models
   must change none of it. *)
let pinned_step_line (s : Topo_bo.step) =
  let g = Printf.sprintf "%.17g" in
  let what =
    match (s.Topo_bo.evaluation, s.Topo_bo.failure, s.Topo_bo.rejection) with
    | Some (e : Evaluator.evaluation), _, _ ->
      Printf.sprintf "E %d %d %s %b %s" (Topology.to_index e.topology) e.n_sims (g e.fom)
        e.feasible
        (String.concat "," (Array.to_list (Array.map g e.sizing)))
    | None, Some f, _ -> "F " ^ Into_core.Fail.to_string f
    | None, None, diags -> Printf.sprintf "R %d" (List.length diags)
  in
  Printf.sprintf "%d|%s|%d|%s\n" s.Topo_bo.iteration what s.Topo_bo.cumulative_sims
    (match s.Topo_bo.best_fom_so_far with None -> "-" | Some f -> g f)

let test_topo_bo_pinned_run () =
  let config =
    {
      (Topo_bo.default_config Candidates.Mixed) with
      Topo_bo.n_init = 6;
      iterations = 12;
      pool = 30;
      sizing = { Sizing.default_config with Sizing.n_init = 6; n_iter = 10 };
    }
  in
  let r = Topo_bo.run ~config ~rng:(Rng.create ~seed:2) ~spec:(Spec.find "S-3") () in
  let digest s = Digest.to_hex (Digest.string s) in
  (* The first feasible design arrives at iteration 9, so both acquisition
     branches (feasibility only, then wEI with the FoM model) are pinned. *)
  Alcotest.(check string) "steps digest" "7abaaf6d2033372b6debf9c0b8e7b9e4"
    (digest (String.concat "" (List.map pinned_step_line r.Topo_bo.steps)));
  Alcotest.(check string) "selected h per model" "gain:3,gbw:2,pm:2,power:1,fom:3"
    (String.concat ","
       (List.map
          (fun (name, m) -> Printf.sprintf "%s:%d" name (Into_gp.Wl_gp.h m))
          r.Topo_bo.models));
  let dict = r.Topo_bo.dict in
  let n = Into_graph.Wl.dict_size dict in
  Alcotest.(check int) "dictionary size" 5707 n;
  Alcotest.(check (list string)) "first entries" [ "vin"; "v1"; "v2" ]
    (List.init 3 (Into_graph.Wl.describe dict));
  Alcotest.(check string) "dictionary listing digest" "16297ee1b9d5bb8654f4f4044c46321c"
    (digest (String.concat "" (List.init n (fun i -> Into_graph.Wl.describe dict i ^ "\n"))))

(* --- Attribution --- *)

let trained_models seed =
  let rng = Rng.create ~seed in
  let cfg = { (tiny_config Candidates.Mixed) with Topo_bo.n_init = 8; iterations = 12 } in
  Topo_bo.run ~config:cfg ~rng ~spec:Spec.s1 ()

let test_attribution_covers_connected_slots () =
  let r = trained_models 81 in
  let model = List.assoc "gbw" r.Topo_bo.models in
  let t = Topology.nmc () in
  let reports = Attribution.slot_gradients model t in
  Alcotest.(check int) "one report per connected slot" 1 (List.length reports);
  let rep = List.hd reports in
  Alcotest.(check string) "the v1-vout slot" "v1-vout" (Topology.slot_name rep.Attribution.slot);
  Alcotest.(check bool) "finite gradient" true (Float.is_finite rep.Attribution.gradient)

let test_attribution_top_features () =
  let r = trained_models 82 in
  let model = List.assoc "gain" r.Topo_bo.models in
  let feats = Attribution.top_features model (Topology.nmc ()) ~n:5 in
  Alcotest.(check bool) "at most 5" true (List.length feats <= 5);
  Alcotest.(check bool) "sorted by |gradient|" true
    (let mags = List.map (fun (_, g) -> Float.abs g) feats in
     List.sort (fun a b -> compare b a) mags = mags)

(* --- Sensitivity --- *)

let sized_nmc seed =
  let rng = Rng.create ~seed in
  let r = Sizing.optimize ~rng ~spec:Spec.s1 (Topology.nmc ()) in
  match Sizing.best r with
  | Some o -> o.Sizing.sizing
  | None -> Alcotest.fail "sizing failed"

let test_sensitivity_remove () =
  let t = Topology.nmc () in
  let sizing = sized_nmc 91 in
  Alcotest.(check bool) "unconnected slot yields None" true
    (Sensitivity.remove_slot t ~sizing Topology.V1_gnd = None);
  match Sensitivity.remove_slot t ~sizing Topology.V1_vout with
  | None -> Alcotest.fail "connected slot should remove"
  | Some (reduced, sizing') ->
    Alcotest.(check int) "smaller schema" 6 (Array.length sizing');
    Alcotest.(check bool) "slot now unconnected" true
      (Subcircuit.equal (Topology.get reduced Topology.V1_vout) Subcircuit.No_conn)

let test_sensitivity_analyze () =
  let t = Topology.nmc () in
  let sizing = sized_nmc 92 in
  let deltas = Sensitivity.analyze t ~sizing ~cl_f:10e-12 in
  Alcotest.(check int) "one delta per connected slot" 1 (List.length deltas);
  let d = List.hd deltas in
  (* Removing the only compensation of a sized NMC design hurts PM. *)
  match Sensitivity.d_pm_deg d with
  | None -> () (* removal may even fail to simulate; acceptable *)
  | Some dpm -> Alcotest.(check bool) "compensation removal costs PM" true (dpm < 10.0)

(* --- Refine --- *)

let test_refine_feasible_design_is_noop () =
  let r = trained_models 101 in
  match r.Topo_bo.best with
  | None -> () (* nothing feasible to exercise; skip *)
  | Some e ->
    let rng = Rng.create ~seed:102 in
    let outcome =
      Refine.refine ~models:r.Topo_bo.models ~rng ~spec:Spec.s1
        ~sizing:e.Evaluator.sizing e.Evaluator.topology
    in
    Alcotest.(check bool) "already feasible" true (outcome.Refine.critical_metric = None);
    Alcotest.(check int) "single verification sim" 1 outcome.Refine.n_sims;
    Alcotest.(check bool) "returned as refined" true (outcome.Refine.refined <> None)

let test_refine_missing_model () =
  let sizing = sized_nmc 103 in
  let rng = Rng.create ~seed:104 in
  (* S-2's 110 dB gain will be violated by an S-1 sizing; with no models the
     refinement must fail loudly. *)
  match Refine.refine ~models:[] ~rng ~spec:Spec.s2 ~sizing (Topology.nmc ()) with
  | exception Invalid_argument _ -> ()
  | outcome ->
    (* Unless the sizing happens to satisfy S-2 already. *)
    Alcotest.(check bool) "no critical metric" true (outcome.Refine.critical_metric = None)


(* --- Design_report --- *)

let test_design_report () =
  let r = trained_models 111 in
  let topo = Topology.nmc () in
  let sizing = sized_nmc 112 in
  let report =
    Into_core.Design_report.render ~models:r.Topo_bo.models ~spec:Spec.s1 ~sizing topo
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("report contains " ^ fragment) true
        (let nl = String.length fragment and hl = String.length report in
         let rec go i = i + nl <= hl && (String.sub report i nl = fragment || go (i + 1)) in
         go 0))
    [ "design report"; "slot gradients"; "pole/zero"; "remove-and-resimulate"; "v1-vout" ]

let test_design_report_no_models () =
  let sizing = sized_nmc 113 in
  let report =
    Into_core.Design_report.render ~models:[] ~spec:Spec.s1 ~sizing (Topology.nmc ())
  in
  Alcotest.(check bool) "degrades gracefully" true
    (let needle = "(no surrogate)" in
     let nl = String.length needle and hl = String.length report in
     let rec go i = i + nl <= hl && (String.sub report i nl = needle || go (i + 1)) in
     go 0)

let () =
  Alcotest.run "into_core"
    [
      ( "acquisition",
        [
          Alcotest.test_case "EI basics" `Quick test_ei_basics;
          Alcotest.test_case "probability of feasibility" `Quick test_probability_feasible;
          Alcotest.test_case "weighted EI" `Quick test_weighted_ei;
          QCheck_alcotest.to_alcotest prop_ei_nonnegative;
          QCheck_alcotest.to_alcotest prop_ei_monotone_in_mean;
        ] );
      ( "objective",
        [
          Alcotest.test_case "transforms" `Quick test_objective_transforms;
          Alcotest.test_case "bounds consistent" `Quick test_objective_bounds_consistent;
          Alcotest.test_case "fom floor" `Quick test_fom_value_floor;
        ] );
      ( "sizing",
        [
          Alcotest.test_case "budget accounting" `Quick test_sizing_budget;
          Alcotest.test_case "returns evaluated design" `Quick test_sizing_improves_over_random;
          Alcotest.test_case "free dims freeze the rest" `Quick test_sizing_free_dims;
          Alcotest.test_case "start validation" `Quick test_sizing_start_validation;
        ] );
      ( "sizing_transfer",
        [
          Alcotest.test_case "identity" `Quick test_transfer_identity;
          Alcotest.test_case "transfer and new dims" `Quick test_transfer_and_new_dims;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "distinct and unvisited" `Quick test_candidates_distinct_unvisited;
          Alcotest.test_case "mutation stays local" `Quick test_candidates_mutation_local;
          Alcotest.test_case "empty best falls back" `Quick test_candidates_empty_best_falls_back;
          Alcotest.test_case "strategy names" `Quick test_strategy_names;
        ] );
      ("evaluator", [ Alcotest.test_case "evaluation fields" `Quick test_evaluator ]);
      ( "topo_bo",
        [
          Alcotest.test_case "algorithm 1 bookkeeping" `Quick test_topo_bo_run;
          Alcotest.test_case "best is feasible" `Quick test_topo_bo_best_is_feasible;
          Alcotest.test_case "pinned fixed-seed run" `Quick test_topo_bo_pinned_run;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "covers connected slots" `Quick test_attribution_covers_connected_slots;
          Alcotest.test_case "top features sorted" `Quick test_attribution_top_features;
        ] );
      ( "sensitivity",
        [
          Alcotest.test_case "remove slot" `Quick test_sensitivity_remove;
          Alcotest.test_case "analyze deltas" `Quick test_sensitivity_analyze;
        ] );
      ( "design_report",
        [
          Alcotest.test_case "full report" `Quick test_design_report;
          Alcotest.test_case "no models" `Quick test_design_report_no_models;
        ] );
      ( "refine",
        [
          Alcotest.test_case "feasible design is a no-op" `Quick test_refine_feasible_design_is_noop;
          Alcotest.test_case "missing model" `Quick test_refine_missing_model;
        ] );
    ]
