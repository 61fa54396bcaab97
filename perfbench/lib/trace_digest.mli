(** Digest of an optimization trace: per step, the iteration, the chosen
    topology index, its simulations and its FoM at [%.17g] (or the failure
    class, or the static-gate codes), and the cumulative simulation count.
    Two executions that did the same arithmetic give the same digest. *)

val lines : label:string -> Into_core.Topo_bo.step list -> string
(** The canonical text the digest is taken over, [label] first. *)

val of_steps : label:string -> Into_core.Topo_bo.step list -> string
(** Hex MD5 of {!lines}. *)

val combine : string list -> string
(** Order-sensitive digest of digests. *)
