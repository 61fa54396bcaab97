(* Topology refinement of a trusted legacy design (Section IV-C workflow).

   The C1 op-amp (a published feedforward three-stage scheme) was designed
   for a 10 pF load; asked to drive S-5's 10 nF it misses the spec.  Instead
   of re-synthesizing from scratch, INTO-OA refines it: the WL-GP gradient
   points at the most harmful subcircuit, a replacement is chosen by the
   surrogate, and only the modified part is resized.

   Run with: dune exec examples/refine_legacy_design.exe *)

module Spec = Into_circuit.Spec
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Perf = Into_circuit.Perf
module Sizing = Into_core.Sizing
module Topo_bo = Into_core.Topo_bo
module Candidates = Into_core.Candidates
module Refine = Into_core.Refine
module Seeds = Into_experiments.Seeds

let () =
  let rng = Into_util.Rng.create ~seed:99 in
  let c1 = Seeds.c1 in
  Printf.printf "Legacy design C1: %s\n" (Topology.to_string c1);

  (* Size it for the load it was published with. *)
  let sizing =
    match Sizing.best (Sizing.optimize ~rng ~spec:Spec.s1 c1) with
    | Some o -> o.Sizing.sizing
    | None -> failwith "seed sizing failed"
  in
  (match Perf.evaluate_checked c1 ~sizing ~cl_f:Spec.s1.Spec.cl_f with
  | Ok p -> Printf.printf "As designed (10 pF):  %s\n" (Perf.to_string p ~cl_f:Spec.s1.Spec.cl_f)
  | Error _ -> ());
  (match Perf.evaluate_checked c1 ~sizing ~cl_f:Spec.s5.Spec.cl_f with
  | Ok p ->
    Printf.printf "Driving S-5 (10 nF):  %s  -> meets S-5: %b\n"
      (Perf.to_string p ~cl_f:Spec.s5.Spec.cl_f)
      (Perf.satisfies p Spec.s5)
  | Error _ -> ());

  (* Train surrogates with a short INTO-OA run on S-5 (the models the paper
     reuses from optimization). *)
  print_endline "\nTraining WL-GP surrogates with a short INTO-OA run on S-5...";
  let config =
    { (Topo_bo.default_config Candidates.Mixed) with Topo_bo.iterations = 15; pool = 100 }
  in
  let bo = Topo_bo.run ~config ~rng ~spec:Spec.s5 () in
  Printf.printf "  (%d simulations; surrogates for %s)\n" bo.Topo_bo.total_sims
    (String.concat ", " (List.map fst bo.Topo_bo.models));

  (* Refine. *)
  let outcome = Refine.refine ~models:bo.Topo_bo.models ~rng ~spec:Spec.s5 ~sizing c1 in
  (match outcome.Refine.critical_metric with
  | Some m -> Printf.printf "\nCritical metric: %s\n" m
  | None -> print_endline "\nDesign already meets S-5.");
  List.iter
    (fun (m : Refine.move) ->
      Printf.printf "  move: %s at %s -> %s  %s\n"
        (Subcircuit.to_string m.Refine.from_sub)
        (Topology.slot_name m.Refine.slot)
        (Subcircuit.to_string m.Refine.to_sub)
        (match m.Refine.achieved with
        | Some p -> Perf.to_string p ~cl_f:Spec.s5.Spec.cl_f
        | None -> "(simulation failed)"))
    outcome.Refine.moves;
  Printf.printf "Refinement spent %d simulations.\n" outcome.Refine.n_sims;
  match outcome.Refine.refined with
  | Some (topo, _, perf) ->
    Printf.printf "\nRefined topology R1: %s\n  %s\n  meets S-5: %b\n"
      (Topology.to_string topo)
      (Perf.to_string perf ~cl_f:Spec.s5.Spec.cl_f)
      (Perf.satisfies perf Spec.s5)
  | None -> print_endline "\nRefinement did not reach feasibility within its move budget."
