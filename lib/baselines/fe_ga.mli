(** FE-GA baseline: genetic algorithm over the topology genotype, standing
    in for the feature-embedding GA of [14] (see DESIGN.md, substitutions).

    Steady-state GA: a fixed-size population of sized topologies; each
    iteration tournament-selects two parents, applies per-slot uniform
    crossover and mutation, sizes the offspring with the same inner BO as
    every other method, and replaces the worst individual.  The one-hot
    feature embedding is used to avoid re-evaluating already visited
    genotypes.  Fitness is FoM for feasible designs and the negated
    constraint violation otherwise. *)

type config = {
  population : int;  (** initial random individuals (paper: 10) *)
  iterations : int;  (** offspring evaluations (paper: 50) *)
  tournament : int;  (** tournament size *)
  mutation_probability : float;  (** per-slot *)
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

val crossover :
  Into_util.Rng.t ->
  Into_circuit.Topology.t ->
  Into_circuit.Topology.t ->
  Into_circuit.Topology.t
(** Per-slot uniform crossover (exposed for testing). *)
