(** Gaussian-process regression over a precomputed kernel (Eqs. 3-4).

    The module is agnostic to where the kernel comes from: the topology
    surrogate feeds WL gram matrices, the sizing surrogate feeds RBF gram
    matrices.  Targets are standardized internally; the covariance is
    [signal * K + noise * I] with jitter-protected Cholesky.

    A fit is two steps.  The {!prior} factors the covariance and depends
    only on the inputs and the hyperparameters; {!condition} standardizes
    one target vector against it.  Several targets observed at the same
    inputs (the per-metric surrogates of both BO loops) therefore share one
    factorization, and {!fit} is the one-target case. *)

type prior
(** The factored covariance [signal * K + noise * I] of one training set. *)

val prior : gram:Into_linalg.Mat.t -> signal:float -> noise:float -> prior
(** @raise Invalid_argument on a non-square or empty gram or a
    non-positive hyperparameter.
    @raise Into_linalg.Cholesky.Not_positive_definite when even the
    jittered covariance cannot be factored. *)

type t

val condition : prior -> y:float array -> t
(** The posterior of targets [y] under a prior.
    @raise Invalid_argument on empty data or a length mismatch. *)

val fit : gram:Into_linalg.Mat.t -> y:float array -> signal:float -> noise:float -> t
(** [condition (prior ~gram ~signal ~noise) ~y].
    @raise Invalid_argument on a dimension mismatch or empty data. *)

val prior_of : t -> prior

val n_observations : t -> int

val log_marginal_likelihood : t -> float
(** Of the standardized targets; the model-selection criterion. *)

val predict : t -> k_star:float array -> k_self:float -> float * float
(** [(mean, variance)] in the original target units given raw kernel values
    [k_star] against the training set and the query's self-kernel
    [k_self]. Variance is clamped to be non-negative.  Equal to
    [posterior t (query (prior_of t) ~k_star ~k_self)]. *)

type query
(** The target-independent half of a prediction at one input: the scaled
    kernel row and the standardized predictive variance. *)

val query : prior -> k_star:float array -> k_self:float -> query
(** One triangular solve; shared by every model conditioned on the prior.
    @raise Invalid_argument when [k_star] does not match the training set. *)

val posterior : t -> query -> float * float
(** [(mean, variance)] in the model's target units. *)

val alpha : t -> float array
(** [(signal*K + noise*I)^-1 y_standardized] — the representer weights; the
    posterior mean is [signal * k_star . alpha] (standardized).  Used by the
    analytic WL-feature gradient (Eq. 5). *)

val y_mean : t -> float
val y_std : t -> float
val signal : t -> float
val noise : t -> float
