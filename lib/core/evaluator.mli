(** Topology evaluation: size a candidate topology with the inner BO and
    report the resulting performance as the topology's observation.

    Every candidate first passes the static verification gate
    ([Into_analysis]): the topology is audited against the rule set and a
    probe netlist (default sizing, the spec's load) is linted for
    structural singularities, dangling transconductors and malformed
    element values.  A candidate with Error-severity diagnostics is
    rejected {e before any simulation or LU factorization is attempted} —
    it costs no simulation budget and never pollutes the surrogate models.

    The reported metrics belong to the best sizing found: the highest-FoM
    feasible point when one exists, otherwise the minimum-violation point.
    [n_sims] counts every circuit simulation spent, which is the cost unit
    of all experiment tables. *)

type evaluation = {
  topology : Into_circuit.Topology.t;
  sizing : float array;  (** physical parameter values of the chosen point *)
  perf : Into_circuit.Perf.t;
  feasible : bool;
  fom : float;
  n_sims : int;  (** simulations spent sizing this topology *)
}

type outcome =
  | Evaluated of evaluation
  | Rejected of Into_analysis.Diagnostic.t list
      (** static gate fired; the Error-severity diagnostics, no simulation
          budget spent *)
  | Failed of Fail.t
      (** every sizing attempt failed to simulate; budget spent.  The
          payload is the dominant failure class of the sizing loop
          ([Fail.Timeout] when the deadline expired, otherwise the
          most-frequent class with ties resolved first-seen), surfaced by
          [Design_report], the retry supervisor and the campaign tables. *)

val static_diagnostics :
  spec:Into_circuit.Spec.t -> Into_circuit.Topology.t -> Into_analysis.Diagnostic.t list
(** All diagnostics (any severity) of the gate's checks for one topology:
    rule-set audit plus probe-netlist lint at the schema's default sizing
    with the spec's load capacitance. *)

val evaluate_gated :
  ?sizing_config:Sizing.config ->
  rng:Into_util.Rng.t ->
  spec:Into_circuit.Spec.t ->
  Into_circuit.Topology.t ->
  outcome

val sims_of_outcome : sizing_config:Sizing.config -> outcome -> int
(** Simulation budget spent producing one outcome: [n_sims] when evaluated,
    every planned sizing attempt ([n_init + n_iter]) when [Failed], zero
    when [Rejected]. *)

(** {2 The evaluation task boundary}

    A {!task} is a self-contained, schedulable unit of evaluation work: it
    carries its own seed, so running it never touches the caller's random
    stream.  This is what makes topology evaluations safe to execute out of
    order, on another domain, or to replay from a persistent cache
    ([Into_runtime]) — the outcome is a pure function of the task. *)

type task = {
  task_topology : Into_circuit.Topology.t;
  task_spec : Into_circuit.Spec.t;
  task_sizing : Sizing.config;
  task_seed : int;  (** seeds a private [Rng.t] for the sizing loop *)
}

val task :
  spec:Into_circuit.Spec.t ->
  sizing_config:Sizing.config ->
  seed:int ->
  Into_circuit.Topology.t ->
  task

val fresh_seed : Into_util.Rng.t -> int
(** One bounded draw from the caller's stream, used as a task seed.  The
    draw happens whether or not the task is later served from a cache, so
    the caller's stream advances identically either way. *)

val run_task : task -> outcome
(** [evaluate_gated] on the task's own freshly created generator. *)

type runner = {
  run_one : task -> outcome;
  run_batch : task array -> outcome array;  (** order-preserving *)
}
(** How an optimizer executes its evaluation tasks.  The default
    {!serial_runner} computes in place; [Into_runtime.Exec.runner] swaps in
    a cache-backed, domain-parallel implementation without the optimizer
    noticing. *)

val serial_runner : runner
