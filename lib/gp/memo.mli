(** Memoization over the handful of distinct keys one fit or one query
    meets (h values, hyperparameter pairs), compared structurally. *)

val find_or_add : ('k * 'v) list ref -> 'k -> (unit -> 'v) -> 'v
(** The value recorded under the key, or [compute ()], recorded first. *)
