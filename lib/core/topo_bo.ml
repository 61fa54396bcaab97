module Rng = Into_util.Rng
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

type step = Search.step = {
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

let model_targets ~spec (evals : Evaluator.evaluation list) =
  let vectors = List.map (fun (e : Evaluator.evaluation) -> Objective.targets e.perf spec) evals in
  List.mapi
    (fun m name -> (name, Array.of_list (List.map (fun v -> v.(m)) vectors)))
    Objective.target_names

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
  search : Search.t;
  mutable hyper : (string * (int * float * float)) list;  (** per-model (h, noise, signal) *)
}

let fit_models st ~full_search =
  let evals = List.filter (trainable ~spec:st.spec) (Search.evaluations st.search) in
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
    List.partition (fun (e : Evaluator.evaluation) -> e.feasible) (Search.evaluations st.search)
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
    List.filteri (fun i _ -> i < n_metrics || Option.is_some best_tfom) Objective.target_names
  in
  let preds = Array.of_list (Wl_gp.predict_many (List.map (fun n -> List.assoc n models) read) g) in
  Acquisition.constrained_wei ~w:st.cfg.wei_w ~bounds:(Objective.bounds st.spec) ~best:best_tfom
    (fun m -> Some preds.(m))

let bo_iteration st ~iteration =
  let candidates =
    Candidates.generate ~rng:st.rng ~strategy:st.cfg.strategy ~pool:st.cfg.pool
      ~best:(best_seeds st)
      ~visited:(Search.visited st.search)
  in
  match candidates with
  | [] -> ()
  | first :: _ ->
    let trainable_evals = List.filter (trainable ~spec:st.spec) (Search.evaluations st.search) in
    if List.length trainable_evals < 2 then ignore (Search.evaluate st.search ~iteration first)
    else begin
      let full_search = iteration mod st.cfg.refit_every = 1 || st.hyper = [] in
      let models = fit_models st ~full_search in
      let best_tfom =
        Option.map
          (fun (e : Evaluator.evaluation) ->
            Objective.penalized_fom_value e.perf st.spec ~cl_f:st.spec.Spec.cl_f)
          (Search.best st.search)
      in
      let scored =
        List.map (fun t -> (t, acquisition st models best_tfom t)) candidates
      in
      let chosen, _ =
        List.fold_left
          (fun (bt, ba) (t, a) -> if a > ba then (t, a) else (bt, ba))
          (first, Float.neg_infinity) scored
      in
      ignore (Search.evaluate st.search ~iteration chosen)
    end

let run ?config ~rng ~spec () =
  let cfg = match config with Some c -> c | None -> default_config Candidates.Mixed in
  let search = Search.create ~rng ~spec ~sizing:cfg.sizing ~runner:cfg.runner in
  let st = { cfg; rng; spec; dict = Wl.create_dict (); search; hyper = [] } in
  (* Line 1 of Algorithm 1: random initial dataset, evaluated as one batch. *)
  ignore (Search.initial search cfg.n_init);
  for iteration = 1 to cfg.iterations do
    bo_iteration st ~iteration
  done;
  let trace = Search.trace search in
  {
    steps = trace.Search.steps;
    best = trace.Search.best;
    models = fit_metric_models ~dict:st.dict ~spec (Search.evaluations search);
    dict = st.dict;
    total_sims = trace.Search.total_sims;
    rejections = trace.Search.rejections;
  }
