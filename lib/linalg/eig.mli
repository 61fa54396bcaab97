(** Eigenvalues of small dense complex matrices.

    Householder reduction to upper Hessenberg form followed by the shifted
    (Wilkinson) QR iteration with deflation.  Only eigenvalues are
    computed; the intended use is pole/zero extraction from circuit pencils
    of dimension <= ~20, where dense O(n^3) iterations are ideal. *)

exception No_convergence

val eigenvalues : ?max_sweeps:int -> Cmat.t -> Complex.t array
(** Eigenvalues of a square complex matrix, in deflation order.
    @raise Invalid_argument on a non-square input.
    @raise No_convergence when a sub-diagonal fails to deflate within
    [max_sweeps] (default 40) iterations per eigenvalue. *)
