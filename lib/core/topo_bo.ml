module Rng = Into_util.Rng
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Wl = Into_graph.Wl
module Wl_gp = Into_gp.Wl_gp
module Gp = Into_gp.Gp

type config = {
  n_init : int;
  iterations : int;
  pool : int;
  strategy : Candidates.strategy;
  wei_w : float;
  n_best_seeds : int;
  refit_every : int;
  h_candidates : int list;
  sizing : Sizing.config;
  runner : Evaluator.runner;
}

let default_config strategy =
  {
    n_init = 10;
    iterations = 50;
    pool = 200;
    strategy;
    wei_w = 0.5;
    n_best_seeds = 5;
    refit_every = 5;
    h_candidates = Wl_gp.default_h_candidates;
    sizing = Sizing.default_config;
    runner = Evaluator.serial_runner;
  }

type step = {
  iteration : int;
  evaluation : Evaluator.evaluation option;
  rejection : Into_analysis.Diagnostic.t list;
  failure : Fail.t option;
  cumulative_sims : int;
  best_fom_so_far : float option;
}

type result = {
  steps : step list;
  best : Evaluator.evaluation option;
  models : (string * Wl_gp.t) list;
  dict : Wl.dict;
  total_sims : int;
  rejections : int;
}

let model_names = List.map (fun m -> m.Objective.name) Objective.metrics @ [ "fom" ]

let model_targets ~spec (evals : Evaluator.evaluation list) =
  let n_metrics = List.length Objective.metrics in
  List.mapi
    (fun m name ->
      let y =
        if m < n_metrics then
          Array.of_list
            (List.map (fun (e : Evaluator.evaluation) -> (Objective.metric_values e.perf).(m)) evals)
        else
          Array.of_list
            (List.map
               (fun (e : Evaluator.evaluation) ->
                 Objective.penalized_fom_value e.perf spec ~cl_f:spec.Spec.cl_f)
               evals)
      in
      (name, y))
    model_names

(* Only finite observations may reach a GP: a single NaN target corrupts
   the whole Cholesky factorization, silently.  The evaluator already
   guarantees finite perf records, so this is the last line of defense. *)
let trainable ~spec (e : Evaluator.evaluation) =
  Into_circuit.Perf.is_finite e.perf
  && Float.is_finite (Objective.penalized_fom_value e.perf spec ~cl_f:spec.Spec.cl_f)

let fit_metric_models ~dict ~spec evals =
  let evals = List.filter (trainable ~spec) evals in
  if List.length evals < 2 then []
  else
    let graphs =
      Array.of_list
        (List.map (fun (e : Evaluator.evaluation) -> Into_graph.Circuit_graph.build e.topology) evals)
    in
    let targets = model_targets ~spec evals in
    List.combine (List.map fst targets)
      (Wl_gp.fit_many ~dict ~graphs
         (List.map (fun (_, y) -> (Wl_gp.default_search, y)) targets))

type state = {
  cfg : config;
  rng : Rng.t;
  spec : Spec.t;
  dict : Wl.dict;
  visited : (int, unit) Hashtbl.t;
  mutable evals : Evaluator.evaluation list;  (** chronological *)
  mutable steps : step list;  (** reverse chronological *)
  mutable total_sims : int;
  mutable rejections : int;
  mutable best : (Evaluator.evaluation * float) option;
  mutable hyper : (string * (int * float * float)) list;  (** per-model (h, noise, signal) *)
}

let record_step st ~iteration ~evaluation ~rejection ~failure ~n_sims =
  st.total_sims <- st.total_sims + n_sims;
  (match evaluation with
  | Some (e : Evaluator.evaluation) ->
    st.evals <- st.evals @ [ e ];
    if e.feasible then begin
      match st.best with
      | Some (_, f) when f >= e.fom -> ()
      | Some _ | None -> st.best <- Some (e, e.fom)
    end
  | None -> ());
  st.steps <-
    {
      iteration;
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
    record_step st ~iteration ~evaluation:(Some e) ~rejection:[] ~failure:None
      ~n_sims:e.n_sims
  | Evaluator.Rejected diags ->
    st.rejections <- st.rejections + 1;
    record_step st ~iteration ~evaluation:None ~rejection:diags ~failure:None ~n_sims:0
  | Evaluator.Failed reason ->
    let n_sims = Evaluator.sims_of_failed_evaluation ~sizing_config:st.cfg.sizing in
    record_step st ~iteration ~evaluation:None ~rejection:[] ~failure:(Some reason)
      ~n_sims

(* The task seed is drawn from the run's stream before the evaluation is
   scheduled, so the stream advances identically whether the outcome is
   computed here, on another domain, or replayed from the cache. *)
let task_of st topo =
  Hashtbl.replace st.visited (Topology.to_index topo) ();
  Evaluator.task ~spec:st.spec ~sizing_config:st.cfg.sizing
    ~seed:(Evaluator.fresh_seed st.rng) topo

let evaluate_topology st ~iteration topo =
  record_outcome st ~iteration (st.cfg.runner.Evaluator.run_one (task_of st topo))

let fit_models st ~full_search =
  let evals = List.filter (trainable ~spec:st.spec) st.evals in
  let graphs =
    Array.of_list
      (List.map (fun (e : Evaluator.evaluation) -> Into_graph.Circuit_graph.build e.topology) evals)
  in
  let full = { Wl_gp.default_search with h_candidates = st.cfg.h_candidates } in
  let search name =
    if full_search then full
    else
      match List.assoc_opt name st.hyper with
      | Some (h, noise, signal) -> Wl_gp.fixed ~h ~noise ~signal
      | None -> full
  in
  let targets = model_targets ~spec:st.spec evals in
  let models =
    Wl_gp.fit_many ~dict:st.dict ~graphs
      (List.map (fun (name, y) -> (search name, y)) targets)
  in
  List.map2
    (fun (name, _) model ->
      st.hyper <-
        (name, (Wl_gp.h model, Gp.noise (Wl_gp.gp model), Gp.signal (Wl_gp.gp model)))
        :: List.remove_assoc name st.hyper;
      (name, model))
    targets models

(* Current best topologies used as mutation seeds: feasible designs ranked
   by FoM, padded with low-violation infeasible ones. *)
let best_seeds st =
  let feasible, infeasible =
    List.partition (fun (e : Evaluator.evaluation) -> e.feasible) st.evals
  in
  let by_fom =
    List.sort
      (fun (a : Evaluator.evaluation) (b : Evaluator.evaluation) -> compare b.fom a.fom)
      feasible
  in
  let by_violation =
    List.sort
      (fun (a : Evaluator.evaluation) (b : Evaluator.evaluation) ->
        compare
          (Into_circuit.Perf.violation a.perf st.spec)
          (Into_circuit.Perf.violation b.perf st.spec))
      infeasible
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  List.map
    (fun (e : Evaluator.evaluation) -> e.topology)
    (take st.cfg.n_best_seeds (by_fom @ by_violation))

(* Only the models the acquisition reads are predicted (the FoM model only
   once a feasible best exists), so the candidate's WL pass goes no deeper
   than their largest h and registers no id a model never looks at. *)
let acquisition st models best_tfom topo =
  let g = Into_graph.Circuit_graph.build topo in
  let n_metrics = List.length Objective.metrics in
  let read =
    List.filteri (fun i _ -> i < n_metrics || Option.is_some best_tfom) model_names
  in
  let preds = Array.of_list (Wl_gp.predict_many (List.map (fun n -> List.assoc n models) read) g) in
  Acquisition.constrained_wei ~w:st.cfg.wei_w ~bounds:(Objective.bounds st.spec) ~best:best_tfom
    (fun m -> Some preds.(m))

let bo_iteration st ~iteration =
  let candidates =
    Candidates.generate ~rng:st.rng ~strategy:st.cfg.strategy ~pool:st.cfg.pool
      ~best:(best_seeds st)
      ~visited:(fun t -> Hashtbl.mem st.visited (Topology.to_index t))
  in
  match candidates with
  | [] -> ()
  | first :: _ ->
    if List.length (List.filter (trainable ~spec:st.spec) st.evals) < 2 then
      evaluate_topology st ~iteration first
    else begin
      let full_search = iteration mod st.cfg.refit_every = 1 || st.hyper = [] in
      let models = fit_models st ~full_search in
      let best_tfom =
        Option.map
          (fun ((e : Evaluator.evaluation), _) ->
            Objective.penalized_fom_value e.perf st.spec ~cl_f:st.spec.Spec.cl_f)
          st.best
      in
      let scored =
        List.map (fun t -> (t, acquisition st models best_tfom t)) candidates
      in
      let chosen, _ =
        List.fold_left
          (fun (bt, ba) (t, a) -> if a > ba then (t, a) else (bt, ba))
          (first, Float.neg_infinity) scored
      in
      evaluate_topology st ~iteration chosen
    end

let run ?config ~rng ~spec () =
  let cfg = match config with Some c -> c | None -> default_config Candidates.Mixed in
  let st =
    {
      cfg;
      rng;
      spec;
      dict = Wl.create_dict ();
      visited = Hashtbl.create 256;
      evals = [];
      steps = [];
      total_sims = 0;
      rejections = 0;
      best = None;
      hyper = [];
    }
  in
  (* Line 1 of Algorithm 1: random initial dataset.  The initial topologies
     are drawn (and their task seeds fixed) up front, so the independent
     evaluations can run as one batch — in parallel under a pooled runner,
     with results recorded in draw order either way. *)
  let init_tasks = ref [] in
  let init = ref 0 in
  let guard = ref 0 in
  while !init < cfg.n_init && !guard < 100 * cfg.n_init do
    incr guard;
    let t = Topology.random st.rng in
    if not (Hashtbl.mem st.visited (Topology.to_index t)) then begin
      incr init;
      init_tasks := task_of st t :: !init_tasks
    end
  done;
  let init_outcomes =
    cfg.runner.Evaluator.run_batch (Array.of_list (List.rev !init_tasks))
  in
  Array.iter (record_outcome st ~iteration:0) init_outcomes;
  for iteration = 1 to cfg.iterations do
    bo_iteration st ~iteration
  done;
  let models = fit_metric_models ~dict:st.dict ~spec st.evals in
  {
    steps = List.rev st.steps;
    best = Option.map fst st.best;
    models;
    dict = st.dict;
    total_sims = st.total_sims;
    rejections = st.rejections;
  }
