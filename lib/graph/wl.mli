(** Weisfeiler-Lehman feature extraction (Section III-B, Fig. 4).

    Iteration 0 counts node labels; every further iteration relabels each
    node with a compressed symbol for (own label, sorted neighbor labels)
    and adds the new counts.  The feature vector after [h] iterations is the
    concatenation of the counts of all iterations [0..h].

    A {!dict} interns label patterns into dense integer feature ids shared
    by all graphs of an optimization run, so feature vectors from different
    graphs are directly comparable; ids also map back to a human-readable
    description of the circuit structure they stand for, which is what makes
    the GP gradient interpretable. *)

type dict

val create_dict : unit -> dict
val dict_size : dict -> int

val describe : dict -> int -> string
(** Human-readable pattern, e.g. ["RCs(v1(..), vout(..))"]: the subtree of
    circuit structure the feature counts. *)

val feature_iteration : dict -> int -> int
(** The WL iteration a feature id was born at (0 = plain node label). *)

type features
(** Sparse non-negative count vector over feature ids. *)

val extract : dict -> h:int -> Labeled_graph.t -> features
(** Feature vector of a graph with [h] WL iterations ([h >= 0]).  Equal to
    [features_at (pass dict g) ~h]. *)

type pass
(** The WL relabelling of one graph, deepened on demand.  Querying a pass
    at several [h] relabels the graph once, and registers new ids in the
    dictionary in exactly the order independent {!extract} calls at those
    [h] (in the same order) would. *)

val pass : dict -> Labeled_graph.t -> pass
(** A pass that has not relabelled anything yet (no id is registered). *)

val features_at : pass -> h:int -> features
(** [extract dict ~h g], computing only the iterations not yet done. *)

val node_feature_ids : dict -> h:int -> Labeled_graph.t -> int array array
(** [ids.(k).(v)] is the feature id assigned to graph node [v] at iteration
    [k] (for [k] in [0..h]); row [k] has one entry per node.  Feature
    [ids.(k).(v)] is exactly the structure rooted at [v] with radius [k]. *)

val count : features -> int -> int
(** Multiplicity of a feature id (0 when absent). *)

val to_list : features -> (int * int) list
(** Sorted (feature id, count) pairs with positive counts. *)

val iter : (int -> int -> unit) -> features -> unit
(** [iter f feats] calls [f id count] for every present feature, by
    increasing id. *)

val dot : features -> features -> float
(** Inner product of count vectors — the raw WL kernel value (Eq. 2). *)

val norm : features -> float
(** [sqrt (dot f f)]. *)
