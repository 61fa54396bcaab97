(** Circuit performance records, the figure of merit and spec checking.

    FoM = GBW [MHz] * CL [pF] / Power [mW]  (Eq. 6). *)

type t = {
  gain_db : float;
  gbw_hz : float;
  pm_deg : float;
  power_w : float;
}

val is_finite : t -> bool
(** All four metrics are finite (no NaN, no infinity).  Non-finite records
    must never reach a surrogate model or a best-so-far comparison: NaN
    wins every [>=] guard silently. *)

val fom : t -> cl_f:float -> float
(** [Float.neg_infinity] (strictly worse than any real design, and safe in
    comparisons, unlike NaN) when GBW or power is non-finite. *)

val satisfies : t -> Spec.t -> bool
(** All four Table-I constraints hold; always false for a record that
    fails {!is_finite}. *)

val violation : t -> Spec.t -> float
(** Sum of normalized constraint violations; 0 iff {!satisfies}. *)

val metrics : (string * (t -> float) * (Spec.t -> float * [ `Min | `Max ])) list
(** The four constrained metrics as (name, extractor, spec-bound) triples, in
    a canonical order (Gain dB, GBW Hz, PM deg, Power W).  Used to build one
    surrogate model per metric. *)

val stability_checked_pm : Netlist.t -> float -> float
(** Guard a Bode-derived phase margin with the exact pencil eigenvalues:
    circuits that are open-loop unstable (internal compensation loops can
    oscillate, making the AC sweep meaningless) or unity-feedback unstable
    are forced to a margin of at most -90 degrees. *)

val evaluate_checked :
  ?process:Process.t ->
  Topology.t ->
  sizing:float array ->
  cl_f:float ->
  (t, [ `Singular | `Non_finite of string ]) result
(** Full evaluation: expand the netlist, run the AC analysis with the
    eigenvalue stability guard, attach static power.  Failures come back
    typed instead of raising or collapsing into an option: [`Singular] for
    a numerically singular system (from any solver layer),
    [`Non_finite field] when a NaN/inf leaked into the named metric.  An
    eigensolver that fails to converge cannot escape: the stability guard
    reads it as unstable.  A returned [Ok] record always passes
    {!is_finite}. *)

val to_string : t -> cl_f:float -> string
