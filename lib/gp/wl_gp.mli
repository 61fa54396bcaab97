(** The WL-kernel Gaussian process over circuit graphs (Section III-B).

    One [Wl_gp.t] models one performance metric.  The WL iteration count
    [h], the noise level and the signal variance are selected by maximum
    marginal likelihood, as the paper prescribes ("h ... can be determined
    through maximum likelihood estimation in WL-GP").  The kernel is the
    normalized WL kernel, so [k(G, G) = 1].

    The analytic gradient of the posterior mean with respect to the WL
    feature counts (Eq. 5) is exposed for the interpretability layer.

    The per-metric surrogates of a BO loop all observe the same graphs, so
    {!fit_many} extracts features and builds the gram once per h and
    factors once per (h, noise, signal) for all of them; {!predict_many}
    likewise shares the WL pass, kernel row and variance across models.
    Both give bit-identical results to fitting and predicting the models
    one by one, and register dictionary ids in the same order. *)

type t

val default_h_candidates : int list
(** [0; 1; 2; 3]. *)

type search = {
  h_candidates : int list;
  noise_candidates : float list;
  signal_candidates : float list;
}
(** The hyperparameter grid searched by maximum marginal likelihood. *)

val default_search : search
(** h in {!default_h_candidates}, noise in
    [1e-4; 1e-3; 1e-2; 1e-1; 0.3; 1.0], signal in [0.5; 1.0; 2.0]. *)

val fixed : h:int -> noise:float -> signal:float -> search
(** A one-point grid: refit with known hyperparameters. *)

val fit_many :
  dict:Into_graph.Wl.dict ->
  graphs:Into_graph.Labeled_graph.t array ->
  (search * float array) list ->
  t list
(** One model per [(search, y)] target, each equal to
    [fit ~h_candidates ~noise_candidates ~signal_candidates ~dict ~graphs ~y ()]
    with its own grid.  Every target is validated before any work starts.
    @raise Invalid_argument as {!fit}. *)

val fit :
  ?h_candidates:int list ->
  ?noise_candidates:float list ->
  ?signal_candidates:float list ->
  dict:Into_graph.Wl.dict ->
  graphs:Into_graph.Labeled_graph.t array ->
  y:float array ->
  unit ->
  t
(** @raise Invalid_argument on empty data, mismatched lengths, or a
    non-finite training target (the diagnostic names the first offending
    index — a NaN would otherwise corrupt the factorization silently). *)

val h : t -> int
val log_marginal_likelihood : t -> float
val gp : t -> Gp.t

val predict : t -> Into_graph.Labeled_graph.t -> float * float
(** Posterior mean and variance (Eqs. 3-4) for a new graph. *)

val predict_many : t list -> Into_graph.Labeled_graph.t -> (float * float) list
(** [List.map (fun m -> predict m g) models], sharing the work that models
    from one {!fit_many} call have in common. *)

val feature_gradient : t -> Into_graph.Labeled_graph.t -> feature_id:int -> float
(** Expected derivative of the posterior mean w.r.t. the count of feature
    [feature_id] at the query graph (Eq. 5), in original target units and
    accounting for the kernel normalization. *)

val present_feature_gradients : t -> Into_graph.Labeled_graph.t -> (int * float) list
(** Gradient for every feature present in the query graph, sorted by id. *)

val features_of : t -> Into_graph.Labeled_graph.t -> Into_graph.Wl.features
(** Feature vector of a graph under the model's dictionary and selected h. *)

val dict : t -> Into_graph.Wl.dict
