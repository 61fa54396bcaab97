(** Dense complex LU factorization with partial pivoting: the one pivoted LU
    of the simulator.  AC and noise analysis stamp [Y(jw)] into a workspace
    and factor it once per frequency; pole extraction and the transient
    integrator factor real matrices with zero imaginary parts.  Entries are
    stored unboxed as split real/imaginary float arrays. *)

exception Singular

type t
(** An [n x n] complex matrix, and after {!factor} its LU factors. *)

val create : int -> t
(** Zero matrix. *)

val of_real : Mat.t -> t

val clear : t -> unit
(** Reset every entry to zero, so the workspace can be stamped again. *)

val add : t -> int -> int -> float -> float -> unit
(** [add t i j re im] accumulates [re + j im] into entry [(i, j)]: the
    stamping primitive. *)

val factor : t -> unit
(** Factor in place, pivoting on the largest modulus in each column.
    @raise Singular when a pivot's modulus is below [1e-300]. *)

val solve : t -> float array -> float array -> unit
(** [solve t re im] overwrites the right-hand side [re + j im] with the
    solution of [A x = b], for a factored [t]. *)
