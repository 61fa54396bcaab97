(** Typed failure taxonomy for behavior-level evaluation.

    Every way an evaluation can fail is classified into one of these
    constructors, threaded from the circuit solver ([Lu.Singular]) and
    non-finite metric leaks through [Sizing] and [Evaluator] up to the
    runtime supervisor and the campaign reports.
    Classifying failures — instead of collapsing them into a string or a
    silent [None] — is what lets the retry policy distinguish a task worth
    re-seeding from one worth re-running unchanged, and lets reports show
    {e what kind} of degradation a campaign absorbed. *)

type t =
  | Singular  (** a solve hit a numerically singular system *)
  | Non_finite of string
      (** a NaN/inf leaked into the named metric or target *)
  | Timeout  (** the per-task deadline expired before any usable result *)
  | Worker_crash  (** the evaluation raised an unexpected exception *)
  | Cache_corrupt  (** a persistent cache entry failed validation *)
  | Other of string  (** anything else, with a human-readable reason *)

val class_name : t -> string
(** Canonical payload-free class label: ["singular"], ["non-finite"],
    ["timeout"], ["worker-crash"], ["cache-corrupt"], ["other"].  Ledger
    keys and report rows group by this. *)

val all_class_names : string list
(** The six class labels in canonical (declaration) order. *)

val class_index : t -> int
(** Position of the class in {!all_class_names} (dense, 0-based) — lets a
    ledger hold one atomic counter per class. *)

val to_string : t -> string
(** Human-readable form: the class name, plus the payload when the
    constructor carries one (e.g. ["non-finite (gbw_hz)"]). *)

val environmental : t -> bool
(** Environmental classes ([Timeout], [Worker_crash], [Cache_corrupt]) are
    transient: the computation itself is presumed sound, so a retry re-runs
    the {e same} task after an exponential backoff.  Numerical classes
    ([Singular], [Non_finite], [Other]) are deterministic functions of the
    task seed: a retry only makes sense with a derived seed, and backs off
    not at all. *)
