(** Surrogate-space transforms shared by the sizing BO and the topology BO.

    GBW, power and FoM span many decades, so their surrogates model log10
    values; gain is already logarithmic (dB) and phase margin is linear.
    All transforms are strictly monotone, so constraint thresholds transfer
    directly to the transformed space. *)

type metric = { name : string; extract : Into_circuit.Perf.t -> float }

val metrics : metric list
(** The four constrained metrics in canonical order: gain (dB), log10 GBW,
    PM (deg), log10 power. *)

val bounds : Into_circuit.Spec.t -> (float * [ `Min | `Max ]) list
(** Transformed constraint bounds, parallel to {!metrics}. *)

val metric_values : Into_circuit.Perf.t -> float array
(** Transformed metric vector, parallel to {!metrics}. *)

val fom_value : Into_circuit.Perf.t -> cl_f:float -> float
(** Transformed objective: [log10 (max FoM 1e-6)]. *)

val penalized_fom_value :
  Into_circuit.Perf.t -> Into_circuit.Spec.t -> cl_f:float -> float
(** The surrogate target for the objective GPs:
    [fom_value - 2 * violation].  Infeasible designs often show spectacular
    raw FoM (huge GBW with no phase margin), which would teach the
    objective surrogate to chase infeasible regions; the penalty keeps the
    target continuous at the feasibility boundary while ranking feasible
    designs purely by FoM. *)

val target_names : string list
(** The five surrogate targets: the {!metrics} names, then ["fom"]. *)

val targets : Into_circuit.Perf.t -> Into_circuit.Spec.t -> float array
(** The five surrogate targets of one design, parallel to {!target_names}:
    {!metric_values}, then {!penalized_fom_value} at the spec's load. *)

val feasible : Into_circuit.Perf.t -> Into_circuit.Spec.t -> bool
(** Same as {!Into_circuit.Perf.satisfies} (untransformed). *)
