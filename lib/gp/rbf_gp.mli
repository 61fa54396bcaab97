(** The independent RBF-GP surrogates of a continuous BO loop: one model
    per target (the constrained metrics and the objective), all observed at
    the same normalized points, with unit signal variance.

    Work that does not depend on the target is done once per
    hyperparameter setting and shared: the gram matrix per lengthscale,
    the Cholesky factor per (lengthscale, noise), and at a query point the
    kernel row per lengthscale and the predictive variance per
    (lengthscale, noise).  Results are bit-identical to fitting and
    predicting each model on its own with {!Gp.fit} and {!Gp.predict}. *)

type t

val select :
  lengthscales:float list ->
  noises:float list ->
  current:(float * float) array ->
  float array array ->
  float array array ->
  (float * float) array
(** [select ~lengthscales ~noises ~current xs ys] picks, for every target
    [ys.(m)], the (lengthscale, noise) of maximum marginal likelihood over
    the grid (lengthscale-major, first maximum kept), or keeps
    [current.(m)] when the covariance could not be factored at any grid
    point. *)

val fit : float array array -> float array array -> hyper:(float * float) array -> t
(** [fit xs ys ~hyper]: model [m] is conditioned on [ys.(m)] with the
    (lengthscale, noise) [hyper.(m)], or is absent when that covariance
    cannot be factored. *)

val predictor : t -> float array -> int -> (float * float) option
(** [predictor t u] answers [m] with model [m]'s posterior mean and
    variance at [u] ([None] for an absent model), sharing kernel rows and
    variances between the models queried through it. *)
