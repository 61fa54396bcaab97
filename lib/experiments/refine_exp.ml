module Spec = Into_circuit.Spec
module Perf = Into_circuit.Perf
module Topology = Into_circuit.Topology
module Sizing = Into_core.Sizing
module Refine = Into_core.Refine
module Topo_bo = Into_core.Topo_bo
module Candidates = Into_core.Candidates

type case = {
  label : string;
  seed_topology : Topology.t;
  seed_sizing : float array;
  before : Perf.t;
  outcome : Refine.outcome;
}

type report = { cases : case list; models_sims : int }

(* The published designs are "trusted" but predate the S-5 requirement: we
   size each seed to meet the same performance bounds at a 1 nF load (the
   regime it was published for), then ask it to drive S-5's 10 nF.  The
   tenfold load degrades the phase margin below the specification —
   reproducing the paper's setting of reliable designs that narrowly miss a
   new requirement and deserve a minimal, interpretable fix rather than a
   from-scratch synthesis. *)
let seed_spec =
  { Spec.s5 with Spec.name = "S-5-seed"; cl_f = 1e-9; min_gbw_hz = 2.5e6 }

(* The published sizing is a given, not part of the refinement budget, so
   the seeds get a more thorough sizing pass than the in-loop evaluator. *)
let seed_sizing_config =
  { Sizing.default_config with Sizing.n_init = 10; n_iter = 60 }

let seed_sizing ~rng topo =
  let result = Sizing.optimize ~config:seed_sizing_config ~rng ~spec:seed_spec topo in
  match Sizing.best result with
  | Some o -> o.Sizing.sizing
  | None -> invalid_arg "Refine_exp: seed design could not be sized"

let train_models ~scale ~rng =
  let config =
    {
      (Topo_bo.default_config Candidates.Mixed) with
      Topo_bo.n_init = scale.Methods.n_init;
      iterations = scale.Methods.iterations;
      pool = scale.Methods.pool;
    }
  in
  let r = Topo_bo.run ~config ~rng ~spec:Spec.s5 () in
  (r.Topo_bo.models, r.Topo_bo.total_sims)

let run ?models ~scale ~rng () =
  let models, models_sims =
    match models with
    | Some m -> (m, 0)
    | None -> train_models ~scale ~rng
  in
  let one label topo =
    let sizing = seed_sizing ~rng topo in
    let before =
      match Perf.evaluate_checked topo ~sizing ~cl_f:Spec.s5.Spec.cl_f with
      | Ok p -> p
      | Error _ -> invalid_arg "Refine_exp: seed does not simulate under S-5"
    in
    let outcome = Refine.refine ~models ~rng ~spec:Spec.s5 ~sizing topo in
    { label; seed_topology = topo; seed_sizing = sizing; before; outcome }
  in
  { cases = [ one "C1" Seeds.c1; one "C2" Seeds.c2 ]; models_sims }
