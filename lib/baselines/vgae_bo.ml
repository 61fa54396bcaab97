module Rng = Into_util.Rng
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Evaluator = Into_core.Evaluator
module Topo_bo = Into_core.Topo_bo
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

type result = {
  steps : Topo_bo.step list;
  best : Evaluator.evaluation option;
  total_sims : int;
  rejections : int;
}

type state = {
  cfg : config;
  rng : Rng.t;
  spec : Spec.t;
  visited : (int, unit) Hashtbl.t;
  mutable evals : (Evaluator.evaluation * float array) list;  (** with latents *)
  mutable steps : Topo_bo.step list;
  mutable total_sims : int;
  mutable rejections : int;
  mutable best : (Evaluator.evaluation * float) option;
  mutable hyper : (float * float) array;  (** (lengthscale, noise) per GP: 4 metrics + objective *)
}

let n_models = List.length Objective.metrics + 1

let record st ~iteration ~evaluation ~rejection ~failure ~n_sims =
  st.total_sims <- st.total_sims + n_sims;
  (match evaluation with
  | Some (e : Evaluator.evaluation) ->
    st.evals <- st.evals @ [ (e, Embedding.embed e.topology) ];
    if e.feasible then begin
      match st.best with
      | Some (_, f) when f >= e.fom -> ()
      | Some _ | None -> st.best <- Some (e, e.fom)
    end
  | None -> ());
  st.steps <-
    {
      Topo_bo.iteration;
      evaluation;
      rejection;
      failure;
      cumulative_sims = st.total_sims;
      best_fom_so_far = Option.map snd st.best;
    }
    :: st.steps

let record_outcome st ~iteration outcome =
  match outcome with
  | Evaluator.Evaluated e ->
    record st ~iteration ~evaluation:(Some e) ~rejection:[] ~failure:None
      ~n_sims:e.n_sims
  | Evaluator.Rejected diags ->
    st.rejections <- st.rejections + 1;
    record st ~iteration ~evaluation:None ~rejection:diags ~failure:None ~n_sims:0
  | Evaluator.Failed reason ->
    record st ~iteration ~evaluation:None ~rejection:[] ~failure:(Some reason)
      ~n_sims:(Evaluator.sims_of_failed_evaluation ~sizing_config:st.cfg.sizing)

(* Seed drawn at scheduling time: see [Into_core.Evaluator.fresh_seed]. *)
let task_of st topo =
  Hashtbl.replace st.visited (Topology.to_index topo) ();
  Evaluator.task ~spec:st.spec ~sizing_config:st.cfg.sizing
    ~seed:(Evaluator.fresh_seed st.rng) topo

let evaluate st ~iteration topo =
  record_outcome st ~iteration (st.cfg.runner.Evaluator.run_one (task_of st topo))

let targets st =
  let xs = Array.of_list (List.map snd st.evals) in
  let n_metrics = List.length Objective.metrics in
  let ys =
    Array.init n_models (fun m ->
        Array.of_list
          (List.map
             (fun ((e : Evaluator.evaluation), _) ->
               if m < n_metrics then (Objective.metric_values e.perf).(m)
               else Objective.penalized_fom_value e.perf st.spec ~cl_f:st.spec.Spec.cl_f)
             st.evals))
  in
  (xs, ys)

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
  if List.length st.evals < 2 then evaluate st ~iteration (Topology.random st.rng)
  else begin
    if iteration mod st.cfg.refit_every = 1 || fst st.hyper.(0) = 0.0 then
      refit_hyperparameters st;
    let fitted = fit_models st in
    let best_tfom =
      Option.map
        (fun ((e : Evaluator.evaluation), _) ->
          Objective.penalized_fom_value e.perf st.spec ~cl_f:st.spec.Spec.cl_f)
        st.best
    in
    let best_candidate = ref None in
    let tries = ref 0 in
    while !tries < st.cfg.pool do
      incr tries;
      let t = Topology.random st.rng in
      if not (Hashtbl.mem st.visited (Topology.to_index t)) then begin
        let a = acquisition st fitted best_tfom (Embedding.embed t) in
        match !best_candidate with
        | Some (_, ba) when ba >= a -> ()
        | Some _ | None -> best_candidate := Some (t, a)
      end
    done;
    match !best_candidate with
    | Some (t, _) -> evaluate st ~iteration t
    | None -> ()
  end

let run ?(config = default_config) ~rng ~spec () =
  let st =
    {
      cfg = config;
      rng;
      spec;
      visited = Hashtbl.create 256;
      evals = [];
      steps = [];
      total_sims = 0;
      rejections = 0;
      best = None;
      hyper = Array.make n_models (0.0, 1e-2);
    }
  in
  (* Initial designs evaluate as one batch (parallel under a pooled runner);
     outcomes recorded in draw order match the serial interleaving. *)
  let init_tasks = ref [] in
  let added = ref 0 in
  let guard = ref 0 in
  while !added < config.n_init && !guard < 100 * config.n_init do
    incr guard;
    let t = Topology.random st.rng in
    if not (Hashtbl.mem st.visited (Topology.to_index t)) then begin
      incr added;
      init_tasks := task_of st t :: !init_tasks
    end
  done;
  let init_outcomes =
    config.runner.Evaluator.run_batch (Array.of_list (List.rev !init_tasks))
  in
  Array.iter (record_outcome st ~iteration:0) init_outcomes;
  for iteration = 1 to config.iterations do
    bo_iteration st ~iteration
  done;
  {
    steps = List.rev st.steps;
    best = Option.map fst st.best;
    total_sims = st.total_sims;
    rejections = st.rejections;
  }
