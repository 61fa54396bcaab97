(** Order statistics for benchmark samples. *)

val quantile : float -> float list -> float
(** [quantile q xs], [q] in [0, 1], interpolating between closest ranks;
    NaN for an empty list. *)

val median : float list -> float

val quartiles : float list -> float * float * float
(** First quartile, median and third quartile exactly as Python's
    [statistics.quantiles(xs, n=4)] computes them (the "exclusive"
    method).  A single sample is its own three quartiles. *)

val spread : float list -> float
(** Distance between the first and third quartile as a share of the
    median's magnitude; NaN when the median is 0. *)

val tail_ladder : float list
(** Percentiles the tail rule may report, highest first:
    99.9, 99, 95, 90, 75, 50. *)

type tail = {
  percentile : float;
  value : float;  (** nearest-rank sample at [percentile] *)
  samples : int;
  beyond : int;  (** samples ranked above [value] *)
}

val tail : float list -> tail option
(** The highest {!tail_ladder} percentile that leaves at least ten samples
    beyond it; [None] with fewer than 11 samples. *)
