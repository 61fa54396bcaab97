(** Comparison of two sets of benchmark result records. *)

type better = Lower | Higher

type verdict =
  | Improved  (** better by more than the base's own quartile spread *)
  | Same
  | Regressed  (** worse by more than the bound *)
  | Unresolved  (** spread wider than the bound, and the runs overlap *)
  | Unbounded  (** per-layer metric: no bound to judge against *)

val verdict_name : verdict -> string

val verdict :
  better:better -> bound:float option -> base:float list -> cand:float list -> verdict
(** Judges the candidate's median against the base's.  The spread is the
    wider of the two sets' quartile distances, as a share of the median;
    when it exceeds [bound] the verdict is [Unresolved] unless every
    candidate run beats every base run. *)

type metric = { name : string; unit_ : string; better : better; bound : float option }

val metrics_of_bench : Json.t -> metric list
(** The [end_to_end] metrics (with their bounds) followed by the
    [per_layer] ones of a parsed [BENCHMARK.json]. *)

type mismatch = { workload : string; seed : int; unit_id : int; base : string; cand : string }

val digest_mismatches : base:Json.t list -> cand:Json.t list -> mismatch list
(** Units run on both sides, keyed by workload, seed and unit id (the
    records' [unit_digests]), whose trace digests differ: the candidate
    changed the optimizer's results. *)

val render : bench:Json.t -> base:Json.t list -> cand:Json.t list -> string
(** For every workload and metric present in either record set: both
    medians with quartiles and sample counts, the ratio new/base, and the
    verdict; then per workload how many (seed, unit) pairs both sides ran
    and every one whose digests differ. *)
