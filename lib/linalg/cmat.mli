(** Dense complex matrices: the input and workspace of the eigenvalue
    solver ({!Eig}).  Linear systems are solved by {!Lu}. *)

type t

val create : int -> int -> t
(** Zero matrix. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Complex.t
val set : t -> int -> int -> Complex.t -> unit
val copy : t -> t
