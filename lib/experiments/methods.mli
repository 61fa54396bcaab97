(** The five topology-optimization methods compared in Section IV-A, behind
    one interface: FE-GA, VGAE-BO, INTO-OA-r (random candidates only),
    INTO-OA-m (mutation only) and full INTO-OA. *)

type id = Fe_ga | Vgae_bo | Into_oa_r | Into_oa_m | Into_oa

val all : id list
(** In the row order of Table II. *)

val name : id -> string

type scale = {
  runs : int;  (** repetitions per (method, spec) *)
  n_init : int;  (** initial topologies *)
  iterations : int;  (** search iterations *)
  pool : int;  (** candidate pool / acquisition samples *)
  sizing_init : int;
  sizing_iters : int;
}

val paper_scale : scale
(** 10 runs, 10 init, 50 iterations, pool 200, sizing 10+30 — the setup of
    the paper. *)

val smoke_scale : scale
(** 2 runs, 4 init, 6 iterations, pool 24, sizing 4+6 — small enough for a
    CI smoke pass of the whole campaign. *)

val scale_of_env : unit -> (scale, string) result
(** [paper_scale] overridden by the [INTO_OA_RUNS], [INTO_OA_ITERS],
    [INTO_OA_POOL], [INTO_OA_SIZING_ITERS] environment variables;
    [INTO_OA_FULL=1] forces the paper scale. Defaults to a reduced
    3-run / 25-iteration setting so a full regeneration finishes quickly.
    An empty variable counts as unset; any other value that is not a
    positive integer is an [Error] naming the variable. *)

type trace = Into_core.Search.trace = {
  steps : Into_core.Topo_bo.step list;
  best : Into_core.Evaluator.evaluation option;
  total_sims : int;
  rejections : int;  (** candidates the static verification gate rejected *)
}
(** The one trace shape every method reports (see {!Into_core.Search}). *)

val scale_of_name : string -> (scale, string) result
(** ["smoke"], ["paper"]/["full"], or ["env"]/["default"] (the
    {!scale_of_env} setting, with its errors); an [Error] for anything
    else. *)

val run :
  ?runner:Into_core.Evaluator.runner ->
  id ->
  scale:scale ->
  rng:Into_util.Rng.t ->
  spec:Into_circuit.Spec.t ->
  trace
(** [runner] (default [Evaluator.serial_runner]) executes every candidate
    evaluation of the method — inject [Into_runtime.Exec.runner] for cached
    and/or parallel evaluation; results are identical either way. *)
