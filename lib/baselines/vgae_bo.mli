(** VGAE-BO baseline [16]: Bayesian optimization in a continuous graph
    embedding (see {!Embedding} for the encoder substitution).

    The loop mirrors Algorithm 1 — same initial design, iteration count,
    candidate pool, wEI acquisition and inner sizing BO — but the surrogate
    is an RBF GP over latent vectors instead of a WL-kernel GP over graphs,
    which is precisely the comparison the paper draws. *)

type config = {
  n_init : int;
  iterations : int;
  pool : int;  (** acquisition candidates per iteration (paper: 200) *)
  wei_w : float;
  refit_every : int;
  sizing : Into_core.Sizing.config;
  runner : Into_core.Evaluator.runner;
      (** executes evaluation tasks; results are runner-independent (each
          task carries its own seed) *)
}

val default_config : config

val run :
  ?config:config ->
  rng:Into_util.Rng.t ->
  spec:Into_circuit.Spec.t ->
  unit ->
  Into_core.Search.trace
(** The trace has the same shape as every other method's: budget, best
    design and rejections are kept by {!Into_core.Search}. *)
