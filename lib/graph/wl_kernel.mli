(** The WL graph kernel (Eq. 2) and gram-matrix helpers.

    [k_wl(G, G') = <phi(G), phi(G')>]; the normalized variant divides by
    [sqrt(k(G,G) k(G',G'))] so that [k(G,G) = 1], which keeps GP signal
    variance interpretable across h values. *)

val kernel : Wl.features -> Wl.features -> float
val normalized : Wl.features -> Wl.features -> float

val gram : ?normalize:bool -> Wl.features array -> Into_linalg.Mat.t
(** Symmetric gram matrix of a feature set (default [normalize = true]). *)

val cross : ?normalize:bool -> Wl.features array -> Wl.features -> float array
(** Kernel values of one query graph against a feature set. *)

type index
(** A feature set prepared for repeated {!cross} queries: an inverted index
    from feature id to the rows holding it, plus the rows' norms. *)

val index : Wl.features array -> index

val cross_indexed : index -> Wl.features -> float array
(** [cross_indexed (index feats) q] is [cross feats q] (normalized), bit
    for bit, touching only the rows that share a feature with [q]. *)
