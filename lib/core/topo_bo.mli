(** WL-kernel Bayesian optimization over the topology space — Algorithm 1.

    Each iteration: generate a candidate pool (mutation + random sampling,
    minus visited topologies), score it with the wEI acquisition backed by
    one WL-GP per performance metric plus one for the FoM, evaluate the
    winner with the inner sizing BO, and update the surrogates.  The final
    surrogate models are returned for the interpretability analyses. *)

type config = {
  n_init : int;  (** random initial topologies (paper: 10) *)
  iterations : int;  (** BO iterations (paper: 50) *)
  pool : int;  (** candidate pool size (paper: 200) *)
  strategy : Candidates.strategy;
  wei_w : float;
  n_best_seeds : int;  (** current-best topologies fed to mutation *)
  refit_every : int;  (** hyperparameter re-selection period *)
  h_candidates : int list;
      (** WL iteration counts the MLE may select from (ablation knob;
          default [0; 1; 2; 3]) *)
  sizing : Sizing.config;
  runner : Evaluator.runner;
      (** executes the evaluation tasks (default {!Evaluator.serial_runner};
          [Into_runtime.Exec.runner] adds caching and domain parallelism).
          Results are independent of the runner: every task carries its own
          seed, drawn from the run's stream at scheduling time. *)
}

val default_config : Candidates.strategy -> config

type step = Search.step = {
  iteration : int;
  evaluation : Evaluator.evaluation option;
  rejection : Into_analysis.Diagnostic.t list;
  failure : Fail.t option;
  cumulative_sims : int;
  best_fom_so_far : float option;
}
(** One evaluated task of the search (see {!Search.step}). *)

type result = {
  steps : step list;  (** chronological *)
  best : Evaluator.evaluation option;  (** best feasible evaluation *)
  models : (string * Into_gp.Wl_gp.t) list;
      (** final surrogates: ["gain"; "gbw"; "pm"; "power"; "fom"] (missing
          when fewer than two topologies were evaluated) *)
  dict : Into_graph.Wl.dict;
  total_sims : int;
  rejections : int;  (** candidates rejected by the static gate *)
}

val run : ?config:config -> rng:Into_util.Rng.t -> spec:Into_circuit.Spec.t -> unit -> result

val fit_metric_models :
  dict:Into_graph.Wl.dict ->
  spec:Into_circuit.Spec.t ->
  Evaluator.evaluation list ->
  (string * Into_gp.Wl_gp.t) list
(** Train the five surrogates on an arbitrary evaluation set (full
    hyperparameter search).  Used by {!run}, by the refinement experiment
    and by tests. *)
