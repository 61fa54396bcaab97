(** Acquisition functions for constrained Bayesian optimization.

    The weighted expected improvement (wEI) of [1] combines the expected
    improvement of the objective with the probability that every constraint
    GP predicts a feasible value:
    [wEI = EI^w * (prod_i PF_i)^(1-w)].  Before any feasible observation
    exists the EI factor is dropped and the acquisition reduces to the
    feasibility probability, steering the search into the feasible region
    first. *)

val expected_improvement : mean:float -> std:float -> best:float -> float
(** EI for maximization: [E max(0, f - best)] under N(mean, std^2).
    Zero std collapses to [max 0 (mean - best)]. *)

val probability_above : mean:float -> std:float -> bound:float -> float
(** [P(f > bound)]. *)

val probability_feasible :
  mean:float -> std:float -> bound:float -> sense:[ `Min | `Max ] -> float
(** [`Min] means the metric must exceed the bound (e.g. gain), [`Max] means
    it must stay below (e.g. power). *)

val weighted_ei : w:float -> ei:float -> feasibility:float list -> float
(** [EI^w * (prod feasibility)^(1-w)] with [w] in [0, 1]. *)

val feasibility_only : float list -> float
(** Product of feasibility probabilities. *)

val constrained_wei :
  w:float ->
  bounds:(float * [ `Min | `Max ]) list ->
  best:float option ->
  (int -> (float * float) option) ->
  float
(** The wEI of one candidate from its surrogate predictions: [predict m]
    is the [(mean, variance)] of constraint model [m] (one per bound, in
    order) and [predict (List.length bounds)] that of the objective, which
    is only asked for once a feasible [best] exists.  A missing model
    ([None]) counts as certainly feasible, or drops the EI factor. *)
