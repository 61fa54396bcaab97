module Rng = Into_util.Rng
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Evaluator = Into_core.Evaluator
module Search = Into_core.Search
module Objective = Into_core.Objective
module Acquisition = Into_core.Acquisition
module Rbf_gp = Into_gp.Rbf_gp

type config = {
  n_init : int;
  iterations : int;
  pool : int;
  wei_w : float;
  refit_every : int;
  sizing : Into_core.Sizing.config;
  runner : Evaluator.runner;
}

let default_config =
  {
    n_init = 10;
    iterations = 50;
    pool = 200;
    wei_w = 0.5;
    refit_every = 5;
    sizing = Into_core.Sizing.default_config;
    runner = Evaluator.serial_runner;
  }

type state = {
  cfg : config;
  rng : Rng.t;
  spec : Spec.t;
  search : Search.t;
  mutable hyper : (float * float) array;  (** (lengthscale, noise) per GP: 4 metrics + objective *)
}

let n_models = List.length Objective.target_names

(* Latents are recomputed from the topologies: [Embedding.embed] is a fixed
   projection, so the training inputs are the same floats every time. *)
let targets st =
  let evals = Search.evaluations st.search in
  let xs =
    Array.of_list (List.map (fun (e : Evaluator.evaluation) -> Embedding.embed e.topology) evals)
  in
  let vectors =
    List.map (fun (e : Evaluator.evaluation) -> Objective.targets e.perf st.spec) evals
  in
  (xs, Array.init n_models (fun m -> Array.of_list (List.map (fun v -> v.(m)) vectors)))

let lengthscale_grid = [ 0.25; 0.5; 1.0; 2.0; 4.0 ]
let noise_grid = [ 1e-4; 1e-2; 1e-1 ]

let refit_hyperparameters st =
  let xs, ys = targets st in
  st.hyper <-
    Rbf_gp.select ~lengthscales:lengthscale_grid ~noises:noise_grid ~current:st.hyper xs ys

let fit_models st =
  let xs, ys = targets st in
  Rbf_gp.fit xs ys ~hyper:st.hyper

let acquisition st fitted best_tfom z =
  Acquisition.constrained_wei ~w:st.cfg.wei_w ~bounds:(Objective.bounds st.spec)
    ~best:best_tfom (Rbf_gp.predictor fitted z)

let bo_iteration st ~iteration =
  if List.length (Search.evaluations st.search) < 2 then
    ignore (Search.evaluate st.search ~iteration (Topology.random st.rng))
  else begin
    if iteration mod st.cfg.refit_every = 1 || fst st.hyper.(0) = 0.0 then
      refit_hyperparameters st;
    let fitted = fit_models st in
    let best_tfom =
      Option.map
        (fun (e : Evaluator.evaluation) ->
          Objective.penalized_fom_value e.perf st.spec ~cl_f:st.spec.Spec.cl_f)
        (Search.best st.search)
    in
    let best_candidate = ref None in
    let tries = ref 0 in
    while !tries < st.cfg.pool do
      incr tries;
      let t = Topology.random st.rng in
      if not (Search.visited st.search t) then begin
        let a = acquisition st fitted best_tfom (Embedding.embed t) in
        match !best_candidate with
        | Some (_, ba) when ba >= a -> ()
        | Some _ | None -> best_candidate := Some (t, a)
      end
    done;
    match !best_candidate with
    | Some (t, _) -> ignore (Search.evaluate st.search ~iteration t)
    | None -> ()
  end

let run ?(config = default_config) ~rng ~spec () =
  let search = Search.create ~rng ~spec ~sizing:config.sizing ~runner:config.runner in
  let st = { cfg = config; rng; spec; search; hyper = Array.make n_models (0.0, 1e-2) } in
  ignore (Search.initial search config.n_init);
  for iteration = 1 to config.iterations do
    bo_iteration st ~iteration
  done;
  Search.trace search
