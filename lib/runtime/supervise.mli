(** Per-task supervision: deadlines, a bounded class-aware retry policy,
    and a failure ledger.

    The supervisor wraps one task computation.  When the outcome is
    [Failed f], the retry discipline depends on {!Into_core.Fail.environmental}:

    - {e Environmental} classes (timeout, worker crash, cache corruption)
      are presumed transient — the same task is re-run unchanged after an
      exponential backoff, so a successful retry recovers the {e exact}
      fault-free result (the task seed is untouched).
    - {e Numerical} classes (singular, non-finite, other)
      are deterministic in the task seed — the retry derives a fresh seed
      with {!attempt_seed} and skips the backoff.

    Both derivations are pure functions of (task seed, attempt), so a
    supervised run is exactly as reproducible as an unsupervised one. *)

type policy = {
  max_retries : int;  (** additional attempts after the first failure *)
  deadline_s : float option;
      (** default per-task sizing deadline, applied only when the task
          itself carries none (cooperative; see [Sizing.config]) *)
  backoff_s : float;
      (** base sleep before an environmental retry; attempt [k] sleeps
          [backoff_s * 2^k].  Zero disables sleeping. *)
}

val default_policy : policy
(** 2 retries, no deadline, 2 ms base backoff. *)

(** Atomic per-class counters shared by all worker domains. *)
module Ledger : sig
  type t

  val create : unit -> t

  val count_failure : t -> Into_core.Fail.t -> unit
  val count_retry : t -> Into_core.Fail.t -> unit
  val count_recovered : t -> unit
  val count_gave_up : t -> unit

  val failures : t -> (string * int) list
  (** Failed attempts per class name, every class listed (zeros included),
      canonical order. *)

  val retries : t -> (string * int) list

  val failures_of : t -> string -> int
  (** Count for one class name.  @raise Not_found on an unknown name. *)

  val retries_of : t -> string -> int
  val total_failures : t -> int
  val total_retries : t -> int

  val recovered : t -> int
  (** Tasks that succeeded on a retry after at least one failure. *)

  val gave_up : t -> int
  (** Tasks whose final attempt still failed. *)

  type row = { class_name : string; n_failures : int; n_retries : int }

  val snapshot : t -> row list
  (** Only the classes with activity, canonical order. *)
end

val attempt_seed : task_seed:int -> attempt:int -> int
(** Derived seed for numerical-class retry [attempt] (1-based) of a task:
    a SplitMix hash of the pair, nonnegative. *)

val run :
  ?faultin:Faultin.t ->
  ?ledger:Ledger.t ->
  policy:policy ->
  key:string ->
  compute:(Into_core.Evaluator.task -> Into_core.Evaluator.outcome) ->
  Into_core.Evaluator.task ->
  Into_core.Evaluator.outcome
(** Supervised evaluation of one task.  [key] is the task's cache key —
    the fault-injection site identifier.  Any exception escaping [compute]
    (including {!Faultin.Injected_crash}) is classified as
    [Fail.Worker_crash].  When [faultin] is set, evaluation-level faults
    ([Crash], [Delay], [Singular_solve], [Nan_perf]) may fire per attempt,
    {e before} the real computation — injected faults cost no simulation
    time and are deterministic per (seed, site, key, attempt). *)
