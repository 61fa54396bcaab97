(** The Section IV-A optimization campaign: every method on every spec for
    several seeded runs, with the aggregations behind Fig. 5, Table II and
    Table III. *)

type run = {
  method_id : Methods.id;
  spec : Into_circuit.Spec.t;
  run_index : int;
  trace : Methods.trace;
  elapsed_s : float;  (** wall clock of this run; restored runs keep the
                          elapsed time of their original execution *)
}

type t = run list

val run_key :
  seed:int ->
  method_id:Methods.id ->
  spec_name:string ->
  run_index:int ->
  scale:Methods.scale ->
  string
(** Checkpoint-journal key of one grid cell.  Includes a fingerprint of
    every scale field except [runs], so a resumed campaign never replays a
    run recorded under different settings, while growing [runs] still
    reuses the runs already journalled. *)

val execute :
  ?progress:(Into_runtime.Progress.event -> unit) ->
  ?runtime:Into_runtime.Exec.t ->
  ?methods:Methods.id list ->
  ?specs:Into_circuit.Spec.t list ->
  scale:Methods.scale ->
  seed:int ->
  unit ->
  t
(** Runs are seeded as [hash (seed, method, spec, run_index)], so any subset
    reproduces the corresponding full-campaign results.

    [runtime] (default: serial, no cache, no checkpoint) supplies the worker
    pool, outcome cache and checkpoint journal; runs execute [Exec.jobs]-way
    parallel across the (spec, method, run) grid with per-run rng streams,
    so results are identical at any job count.  [progress] receives
    structured events (see [Into_runtime.Progress]); delivery is serialized.
    Grid cells found in the runtime's checkpoint journal are restored
    without executing and reported as [Run_restored]. *)

val runs_of : t -> Methods.id -> Into_circuit.Spec.t -> run list

type row = {
  method_name : string;
  success_rate : int * int;  (** successes, runs *)
  final_fom : float option;  (** mean over successful runs *)
  sims_to_ref : float option;  (** mean #sims to the reference FoM *)
  speedup : float option;  (** slowest method's sims / this method's sims *)
}

val reference_fom : t -> Into_circuit.Spec.t -> float option
(** The dashed line of Fig. 5: the worst successful method's mean final
    FoM, i.e. a level every method is asked to reach. *)

val table2 : t -> Into_circuit.Spec.t -> row list
(** Table II block for one spec (methods in canonical order). *)

val best_evaluation :
  t -> Methods.id -> Into_circuit.Spec.t -> Into_core.Evaluator.evaluation option
(** Highest-FoM feasible design across all runs — the Table III entry. *)

val total_rejections : t -> Methods.id -> int
(** Candidates the static verification gate rejected across every spec and
    run of one method (surfaced by [Report.lint_summary]). *)

val total_candidates : t -> Methods.id -> int
(** Candidate evaluations attempted (steps recorded) across every spec and
    run of one method. *)

val total_failures : t -> Methods.id -> int
(** Candidates that passed the static gate but whose every sizing attempt
    failed behavioral simulation, across every spec and run of one
    method. *)

val failure_reasons : t -> (string * int) list
(** Distinct simulation-failure reasons ([Fail.to_string] forms, payloads
    included) across the whole campaign with their occurrence counts, in
    first-seen order. *)

val failure_classes : t -> (string * int) list
(** Failure counts grouped by [Fail.class_name], in canonical class order,
    zero-count classes omitted.  Derived from the traces — so restored and
    freshly computed campaigns report identically, unlike the engine's
    live ledger. *)

val fig5_series :
  t -> Into_circuit.Spec.t -> grid_step:int -> (string * (int * float * int) list) list
(** Mean optimization curve per method (see {!Curves.mean_curve}). *)
