(** The bookkeeping every topology search shares: INTO-OA ({!Topo_bo}),
    FE-GA and VGAE-BO differ only in how they pick the next topology.

    A search owns the visited set, schedules each evaluation as an
    {!Evaluator.task} whose seed is drawn from the run's stream at
    scheduling time, charges the simulation budget with
    {!Evaluator.sims_of_outcome}, counts static-gate rejections, tracks the
    best feasible design (the first one found wins a tie) and records one
    {!step} per evaluated task.  Keeping this policy in one place is what
    makes the methods comparable at the same budget. *)

type step = {
  iteration : int;  (** 0 during initialization, then 1..T *)
  evaluation : Evaluator.evaluation option;  (** [None]: dead topology *)
  rejection : Into_analysis.Diagnostic.t list;
      (** non-empty iff the static verification gate rejected the candidate
          (then [evaluation = None] and the step cost no simulations) *)
  failure : Fail.t option;
      (** why every sizing attempt failed, when the evaluator reported
          [Failed] (then [evaluation = None] but the budget was spent) *)
  cumulative_sims : int;
  best_fom_so_far : float option;  (** best feasible FoM after this step *)
}

type trace = {
  steps : step list;  (** chronological *)
  best : Evaluator.evaluation option;  (** best feasible evaluation *)
  total_sims : int;
  rejections : int;  (** candidates rejected by the static gate *)
}

type t

val create :
  rng:Into_util.Rng.t ->
  spec:Into_circuit.Spec.t ->
  sizing:Sizing.config ->
  runner:Evaluator.runner ->
  t
(** [rng] is the run's stream: it draws the initial topologies and every
    task seed, and the search policy keeps drawing from it too. *)

val visited : t -> Into_circuit.Topology.t -> bool
(** Whether the topology was already scheduled for evaluation. *)

val initial : t -> int -> Evaluator.evaluation list
(** [initial t n] draws up to [n] distinct unvisited random topologies
    (giving up after [100 * n] draws), evaluates them as one batch through
    [runner.run_batch] — in parallel under a pooled runner — and records
    the outcomes at iteration 0 in draw order.  Returns the successful
    evaluations in draw order. *)

val evaluate : t -> iteration:int -> Into_circuit.Topology.t -> Evaluator.evaluation option
(** Schedule one topology through [runner.run_one] and record its outcome;
    [Some] when it was evaluated. *)

val evaluations : t -> Evaluator.evaluation list
(** Every successful evaluation so far, chronological. *)

val best : t -> Evaluator.evaluation option
(** The best feasible evaluation so far. *)

val trace : t -> trace
