(* Tests for Into_experiments: the method interface, curve bookkeeping, the
   campaign aggregations, refinement seeds and report rendering. *)

module Methods = Into_experiments.Methods
module Curves = Into_experiments.Curves
module Campaign = Into_experiments.Campaign
module Seeds = Into_experiments.Seeds
module Report = Into_experiments.Report
module Tlevel_exp = Into_experiments.Tlevel_exp
module Topo_bo = Into_core.Topo_bo
module Evaluator = Into_core.Evaluator
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Spec = Into_circuit.Spec
module Perf = Into_circuit.Perf
module Rng = Into_util.Rng

let tiny_scale =
  { Methods.runs = 1; n_init = 3; iterations = 3; pool = 20; sizing_init = 4; sizing_iters = 4 }

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- Methods --- *)

let test_method_names () =
  Alcotest.(check int) "five methods" 5 (List.length Methods.all);
  Alcotest.(check (list string)) "table II row order"
    [ "FE-GA"; "VGAE-BO"; "INTO-OA-r"; "INTO-OA-m"; "INTO-OA" ]
    (List.map Methods.name Methods.all)

let test_each_method_runs () =
  List.iter
    (fun m ->
      let rng = Rng.create ~seed:(Hashtbl.hash (Methods.name m)) in
      let trace = Methods.run m ~scale:tiny_scale ~rng ~spec:Spec.s1 in
      Alcotest.(check bool)
        (Methods.name m ^ " produced steps")
        true
        (List.length trace.Methods.steps > 0);
      Alcotest.(check bool)
        (Methods.name m ^ " counted sims")
        true (trace.Methods.total_sims > 0))
    Methods.all

let test_scale_of_env () =
  let scale () =
    match Methods.scale_of_env () with Ok s -> s | Error msg -> Alcotest.fail msg
  in
  let rejected value =
    Unix.putenv "INTO_OA_RUNS" value;
    match Methods.scale_of_env () with
    | Ok s -> Alcotest.failf "INTO_OA_RUNS=%S accepted as %d runs" value s.Methods.runs
    | Error msg ->
      Alcotest.(check bool)
        ("error names the variable: " ^ msg)
        true
        (String.starts_with ~prefix:"INTO_OA_RUNS=" msg)
  in
  (* Without INTO_OA_FULL the reduced default applies. *)
  Unix.putenv "INTO_OA_FULL" "0";
  Unix.putenv "INTO_OA_RUNS" "7";
  Alcotest.(check int) "runs from env" 7 (scale ()).Methods.runs;
  (* Malformed and non-positive values are rejected, not replaced. *)
  rejected "abc";
  rejected "0";
  rejected "-3";
  (* An empty value counts as unset. *)
  Unix.putenv "INTO_OA_RUNS" "";
  Alcotest.(check int) "empty value is the default" 3 (scale ()).Methods.runs;
  Unix.putenv "INTO_OA_FULL" "1";
  let s = scale () in
  Alcotest.(check int) "paper scale runs" 10 s.Methods.runs;
  Alcotest.(check int) "paper scale iters" 50 s.Methods.iterations;
  Unix.putenv "INTO_OA_FULL" "0";
  Unix.putenv "INTO_OA_RUNS" ""

(* Every method charges the budget, counts rejections and tracks the best
   design through the same bookkeeping.  A scripted runner returns a mix of
   outcomes keyed on the topology index (the real design space has no
   gate errors, so rejections only happen here). *)
let scripted_runner ~spec seen =
  let u idx k = float_of_int ((idx * k) mod 97) /. 97.0 in
  let run_one (task : Evaluator.task) =
    let idx = Topology.to_index task.Evaluator.task_topology in
    seen := idx :: !seen;
    match idx mod 4 with
    | 0 ->
      Evaluator.Rejected
        [ Into_analysis.Diagnostic.make Into_analysis.Diagnostic.Build_failure "scripted" ]
    | 1 -> Evaluator.Failed Into_core.Fail.Singular
    | _ ->
      let perf =
        {
          Perf.gain_db = 70.0 +. (30.0 *. u idx 13);
          gbw_hz = 10.0 ** (5.5 +. (1.5 *. u idx 29));
          pm_deg = 40.0 +. (40.0 *. u idx 41);
          power_w = 10.0 ** (-4.5 +. (1.5 *. u idx 53));
        }
      in
      Evaluator.Evaluated
        {
          Evaluator.topology = task.Evaluator.task_topology;
          sizing = [||];
          perf;
          feasible = Perf.satisfies perf spec;
          fom = Perf.fom perf ~cl_f:spec.Spec.cl_f;
          n_sims = 1 + (idx mod 5);
        }
  in
  { Evaluator.run_one; run_batch = Array.map run_one }

let test_methods_share_bookkeeping () =
  let scale = { tiny_scale with Methods.n_init = 4; iterations = 8; pool = 24 } in
  let failed_charge = scale.Methods.sizing_init + scale.Methods.sizing_iters in
  List.iter
    (fun m ->
      let name = Methods.name m in
      let seen = ref [] in
      let runner = scripted_runner ~spec:Spec.s1 seen in
      let trace = Methods.run ~runner m ~scale ~rng:(Rng.create ~seed:5) ~spec:Spec.s1 in
      let steps = trace.Methods.steps in
      Alcotest.(check int) (name ^ ": one step per task") (List.length !seen) (List.length steps);
      Alcotest.(check int) (name ^ ": no topology revisited") (List.length !seen)
        (List.length (List.sort_uniq compare !seen));
      let count p = List.length (List.filter p steps) in
      let rejected (s : Topo_bo.step) = s.Topo_bo.rejection <> [] in
      let failed (s : Topo_bo.step) = Option.is_some s.Topo_bo.failure in
      Alcotest.(check bool) (name ^ ": scripted mix reached") true
        (count rejected > 0 && count failed > 0
        && count (fun s -> Option.is_some s.Topo_bo.evaluation) > 0);
      Alcotest.(check int) (name ^ ": rejections counted") (count rejected)
        trace.Methods.rejections;
      let last_sims, last_best =
        List.fold_left
          (fun (sims, best) (s : Topo_bo.step) ->
            let charge =
              match (s.Topo_bo.evaluation, s.Topo_bo.failure) with
              | Some e, _ -> e.Evaluator.n_sims
              | None, Some _ -> failed_charge
              | None, None -> 0
            in
            Alcotest.(check int) (name ^ ": step charge") charge (s.Topo_bo.cumulative_sims - sims);
            (match (best, s.Topo_bo.best_fom_so_far) with
            | Some b, Some b' ->
              Alcotest.(check bool) (name ^ ": best never decreases") true (b' >= b)
            | Some _, None -> Alcotest.fail (name ^ ": best forgotten")
            | None, _ -> ());
            (s.Topo_bo.cumulative_sims, s.Topo_bo.best_fom_so_far))
          (0, None) steps
      in
      Alcotest.(check int) (name ^ ": total sims") last_sims trace.Methods.total_sims;
      Alcotest.(check (option (float 0.0))) (name ^ ": best matches trace") last_best
        (Option.map (fun (e : Evaluator.evaluation) -> e.Evaluator.fom) trace.Methods.best))
    Methods.all

(* --- Curves --- *)

let synthetic_steps =
  (* (cumulative_sims, best_fom_so_far) *)
  List.map
    (fun (sims, best) ->
      { Topo_bo.iteration = 0; evaluation = None; rejection = []; failure = None; cumulative_sims = sims; best_fom_so_far = best })
    [ (40, None); (80, Some 10.0); (120, Some 10.0); (160, Some 25.0) ]

let test_best_fom_at () =
  Alcotest.(check (option (float 1e-9))) "before any feasible" None
    (Curves.best_fom_at synthetic_steps ~sims:40);
  Alcotest.(check (option (float 1e-9))) "mid" (Some 10.0)
    (Curves.best_fom_at synthetic_steps ~sims:100);
  Alcotest.(check (option (float 1e-9))) "end" (Some 25.0)
    (Curves.best_fom_at synthetic_steps ~sims:1000)

let test_sims_to_reach () =
  Alcotest.(check (option int)) "first feasible" (Some 80)
    (Curves.sims_to_reach synthetic_steps ~target:5.0);
  Alcotest.(check (option int)) "later target" (Some 160)
    (Curves.sims_to_reach synthetic_steps ~target:20.0);
  Alcotest.(check (option int)) "unreached" None
    (Curves.sims_to_reach synthetic_steps ~target:100.0)

let test_sample_grid () =
  Alcotest.(check (list int)) "grid" [ 40; 80; 120 ] (Curves.sample_grid ~step:40 ~max_sims:130);
  match Curves.sample_grid ~step:0 ~max_sims:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero step accepted"

let test_mean_curve () =
  let run2 =
    List.map
      (fun (sims, best) ->
        { Topo_bo.iteration = 0; evaluation = None; rejection = []; failure = None; cumulative_sims = sims; best_fom_so_far = best })
      [ (40, Some 20.0); (80, Some 20.0) ]
  in
  let curve = Curves.mean_curve [ synthetic_steps; run2 ] ~grid:[ 40; 80 ] in
  (match curve with
  | [ (40, m1, n1); (80, m2, n2) ] ->
    Alcotest.(check int) "one feasible run at 40" 1 n1;
    Alcotest.(check (float 1e-9)) "mean at 40" 20.0 m1;
    Alcotest.(check int) "two feasible at 80" 2 n2;
    Alcotest.(check (float 1e-9)) "mean at 80" 15.0 m2
  | _ -> Alcotest.fail "unexpected grid")

(* --- Campaign --- *)

let campaign =
  lazy
    (Campaign.execute ~methods:[ Methods.Into_oa_r; Methods.Into_oa ]
       ~specs:[ Spec.s1 ] ~scale:{ tiny_scale with Methods.runs = 2 } ~seed:5 ())

let test_campaign_shape () =
  let c = Lazy.force campaign in
  Alcotest.(check int) "2 methods x 1 spec x 2 runs" 4 (List.length c);
  Alcotest.(check int) "runs_of filters" 2
    (List.length (Campaign.runs_of c Methods.Into_oa Spec.s1))

let test_campaign_determinism () =
  let c1 =
    Campaign.execute ~methods:[ Methods.Into_oa ] ~specs:[ Spec.s1 ]
      ~scale:tiny_scale ~seed:9 ()
  in
  let c2 =
    Campaign.execute ~methods:[ Methods.Into_oa ] ~specs:[ Spec.s1 ]
      ~scale:tiny_scale ~seed:9 ()
  in
  let sims c = List.map (fun (r : Campaign.run) -> r.Campaign.trace.Methods.total_sims) c in
  Alcotest.(check (list int)) "same seed, same budget" (sims c1) (sims c2);
  let foms c =
    List.map
      (fun (r : Campaign.run) ->
        Option.map (fun (e : Evaluator.evaluation) -> e.Evaluator.fom) r.Campaign.trace.Methods.best)
      c
  in
  Alcotest.(check bool) "same seed, same results" true (foms c1 = foms c2)

let test_table2_rows () =
  let c = Lazy.force campaign in
  let rows = Campaign.table2 c Spec.s1 in
  Alcotest.(check int) "row per method present" 2 (List.length rows);
  List.iter
    (fun (r : Campaign.row) ->
      let succ, total = r.Campaign.success_rate in
      Alcotest.(check int) "out of two runs" 2 total;
      Alcotest.(check bool) "sane" true (succ >= 0 && succ <= 2))
    rows

let test_reference_fom_is_min () =
  let c = Lazy.force campaign in
  match Campaign.reference_fom c Spec.s1 with
  | None -> () (* no successful run in the tiny campaign *)
  | Some reference ->
    let means =
      List.filter_map
        (fun m ->
          let foms =
            List.filter_map
              (fun (r : Campaign.run) ->
                Option.map
                  (fun (e : Evaluator.evaluation) -> e.Evaluator.fom)
                  r.Campaign.trace.Methods.best)
              (Campaign.runs_of c m Spec.s1)
          in
          if foms = [] then None else Some (Into_util.Stats.mean foms))
        [ Methods.Into_oa_r; Methods.Into_oa ]
    in
    List.iter
      (fun m -> Alcotest.(check bool) "reference <= every method mean" true (reference <= m +. 1e-9))
      means

(* --- Seeds --- *)

let test_seeds_valid () =
  (* make already validates; reaching here means the encodings are legal. *)
  Alcotest.(check bool) "c1 uses a parallel -gm/C between v1 and vout" true
    (Subcircuit.equal
       (Topology.get Seeds.c1 Topology.V1_vout)
       (Subcircuit.Gm_with
          (Subcircuit.Minus, Subcircuit.Forward, Subcircuit.Cap, Subcircuit.Parallel)));
  Alcotest.(check bool) "c2 uses a Miller capacitor" true
    (Subcircuit.equal (Topology.get Seeds.c2 Topology.V1_vout)
       (Subcircuit.Passive Subcircuit.Single_c))

let test_expected_moves_legal () =
  let check_move (slot, sub) =
    Alcotest.(check bool) "replacement type admissible" true
      (Array.exists (Subcircuit.equal sub) (Topology.allowed slot))
  in
  check_move Seeds.c1_expected_move;
  check_move Seeds.c2_expected_move

(* --- Report --- *)

let test_report_table1 () =
  let s = Report.table1 () in
  List.iter
    (fun fragment -> Alcotest.(check bool) fragment true (string_contains s fragment))
    [ "S-1"; "S-5"; "Gain(dB)"; "10000" ]

let test_report_table2_renders () =
  let c = Lazy.force campaign in
  let s = Report.table2 c in
  Alcotest.(check bool) "mentions INTO-OA" true (string_contains s "INTO-OA");
  Alcotest.(check bool) "mentions success rate" true (string_contains s "Suc. Rate")

let test_report_fig5_renders () =
  let c = Lazy.force campaign in
  let s = Report.fig5 c Spec.s1 in
  Alcotest.(check bool) "has the sims column" true (string_contains s "# Sim.")

let test_perf_cells () =
  let p = { Perf.gain_db = 90.1; gbw_hz = 2e6; pm_deg = 61.5; power_w = 120e-6 } in
  Alcotest.(check (list string)) "formatted like the paper"
    [ "90.10"; "2.00"; "61.50"; "120.00"; "166.67" ]
    (Report.perf_cells p ~cl_f:10e-12)

(* --- Tlevel_exp --- *)

let test_tlevel_evaluate_design () =
  let t = Topology.nmc () in
  let schema = Into_circuit.Params.schema t in
  let sizing = Into_circuit.Params.denormalize schema (Into_circuit.Params.default_point schema) in
  match Perf.evaluate_checked t ~sizing ~cl_f:Spec.s1.Spec.cl_f with
  | Error _ -> Alcotest.fail "behavioral evaluation failed"
  | Ok behavioral ->
    let row =
      Tlevel_exp.evaluate_design ~spec:Spec.s1 ~label:"test" ~topology:t ~sizing ~behavioral
    in
    Alcotest.(check string) "spec name" "S-1" row.Tlevel_exp.spec_name;
    (match row.Tlevel_exp.transistor_fom with
    | Some tf ->
      Alcotest.(check bool) "fom drops at transistor level" true
        (tf < row.Tlevel_exp.behavioral_fom)
    | None -> Alcotest.fail "transistor evaluation failed")


(* --- Csv --- *)

let test_csv_escape () =
  Alcotest.(check string) "plain" "abc" (Into_experiments.Csv.escape "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Into_experiments.Csv.escape "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Into_experiments.Csv.escape "a\"b")

let test_csv_of_rows () =
  let s = Into_experiments.Csv.of_rows ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check string) "layout" "x,y\n1,2\n3,4\n" s

let test_csv_campaign () =
  let c = Lazy.force campaign in
  let runs_csv = Into_experiments.Csv.campaign_runs c in
  let lines = String.split_on_char '\n' runs_csv in
  (* header + one line per run + trailing newline *)
  Alcotest.(check int) "rows" (List.length c + 2) (List.length lines);
  Alcotest.(check bool) "header" true
    (String.length (List.hd lines) > 0 && String.sub (List.hd lines) 0 4 = "spec");
  let t2 = Into_experiments.Csv.campaign_table2 c in
  Alcotest.(check bool) "table2 header" true
    (String.sub t2 0 11 = "spec,method")

(* --- Ablation --- *)

let test_ablation_variants () =
  let scale = tiny_scale in
  let vs = Into_experiments.Ablation.variants scale in
  Alcotest.(check int) "six variants" 6 (List.length vs);
  let names = List.map fst vs in
  Alcotest.(check bool) "baseline first" true
    (match names with n :: _ -> n = "INTO-OA (baseline)" | [] -> false);
  (* The h=0 variant really restricts the candidate set. *)
  let _, h0 = List.nth vs 1 in
  Alcotest.(check (list int)) "h restricted" [ 0 ] h0.Into_core.Topo_bo.h_candidates

let test_ablation_run_and_report () =
  let rows =
    Into_experiments.Ablation.run ~spec:Spec.s1 ~scale:{ tiny_scale with Methods.runs = 1 }
      ~seed:3 ()
  in
  Alcotest.(check int) "row per variant" 6 (List.length rows);
  List.iter
    (fun (r : Into_experiments.Ablation.row) ->
      Alcotest.(check int) "runs recorded" 1 r.Into_experiments.Ablation.runs)
    rows;
  let s = Into_experiments.Ablation.report Spec.s1 rows in
  Alcotest.(check bool) "report mentions the baseline" true (string_contains s "baseline")


(* --- Surrogate_exp --- *)

let test_surrogate_exp_shape () =
  let cfg = { Into_core.Sizing.default_config with Into_core.Sizing.n_init = 3; n_iter = 3 } in
  let r =
    Into_experiments.Surrogate_exp.run ~n_train:6 ~n_test:3 ~spec:Spec.s1
      ~sizing_config:cfg ~seed:4 ()
  in
  Alcotest.(check int) "train size" 6 r.Into_experiments.Surrogate_exp.n_train;
  Alcotest.(check int) "test size" 3 r.Into_experiments.Surrogate_exp.n_test;
  Alcotest.(check int) "five metrics scored" 5
    (List.length r.Into_experiments.Surrogate_exp.scores);
  List.iter
    (fun (s : Into_experiments.Surrogate_exp.model_score) ->
      Alcotest.(check bool) "scores bounded" true
        (Float.abs s.Into_experiments.Surrogate_exp.wl_spearman <= 1.0 +. 1e-9
        && Float.abs s.Into_experiments.Surrogate_exp.embedding_spearman <= 1.0 +. 1e-9))
    r.Into_experiments.Surrogate_exp.scores;
  let txt = Into_experiments.Surrogate_exp.render Spec.s1 r in
  Alcotest.(check bool) "render mentions WL-GP" true (string_contains txt "WL-GP")

let () =
  Alcotest.run "into_experiments"
    [
      ( "methods",
        [
          Alcotest.test_case "names" `Quick test_method_names;
          Alcotest.test_case "every method runs" `Slow test_each_method_runs;
          Alcotest.test_case "shared search bookkeeping" `Quick test_methods_share_bookkeeping;
          Alcotest.test_case "scale from environment" `Quick test_scale_of_env;
        ] );
      ( "curves",
        [
          Alcotest.test_case "best fom at budget" `Quick test_best_fom_at;
          Alcotest.test_case "sims to reach target" `Quick test_sims_to_reach;
          Alcotest.test_case "sample grid" `Quick test_sample_grid;
          Alcotest.test_case "mean curve" `Quick test_mean_curve;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "shape" `Slow test_campaign_shape;
          Alcotest.test_case "deterministic seeding" `Slow test_campaign_determinism;
          Alcotest.test_case "table2 rows" `Slow test_table2_rows;
          Alcotest.test_case "reference fom is the worst mean" `Slow test_reference_fom_is_min;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "valid encodings" `Quick test_seeds_valid;
          Alcotest.test_case "expected moves legal" `Quick test_expected_moves_legal;
        ] );
      ( "report",
        [
          Alcotest.test_case "table I" `Quick test_report_table1;
          Alcotest.test_case "table II renders" `Slow test_report_table2_renders;
          Alcotest.test_case "fig 5 renders" `Slow test_report_fig5_renders;
          Alcotest.test_case "perf cells" `Quick test_perf_cells;
        ] );
      ( "csv",
        [
          Alcotest.test_case "escape" `Quick test_csv_escape;
          Alcotest.test_case "of_rows" `Quick test_csv_of_rows;
          Alcotest.test_case "campaign export" `Slow test_csv_campaign;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "variants" `Quick test_ablation_variants;
          Alcotest.test_case "run and report" `Slow test_ablation_run_and_report;
        ] );
      ( "surrogate_exp",
        [ Alcotest.test_case "shape and bounds" `Slow test_surrogate_exp_shape ] );
      ( "tlevel_exp",
        [ Alcotest.test_case "evaluate design" `Quick test_tlevel_evaluate_design ] );
    ]
