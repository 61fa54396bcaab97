(** AC small-signal analysis: open-loop gain, gain-bandwidth product and
    phase margin from a log-frequency sweep of the MNA transfer function
    ({!Linear_system.factor_at}).

    Phase is unwrapped along the sweep starting from its low-frequency value
    (approximately 0 degrees when the DC gain is positive, +/-180 when an odd
    number of inversions survives to DC, in which case unity negative
    feedback would be positive feedback and the phase margin comes out
    non-positive).  The unity-gain frequency is located by bisection inside
    the last downward |A| = 1 crossing of the sweep. *)

type t = {
  gain_db : float;  (** open-loop gain magnitude at the lowest frequency *)
  gbw_hz : float;  (** unity-gain frequency; 0 when |A| never reaches 1 *)
  pm_deg : float;
      (** [180 - max |phase|] over the band where |A| >= 1 (including the
          unity crossing itself); 0 when there is no crossing.  This is the
          smallest distance of the unwrapped open-loop phase to the Nyquist
          critical lines at +/-180 degrees while the gain is above unity:
          it equals the textbook crossing margin for monotone-phase designs
          and correctly penalizes conditionally stable resonances and
          sign-flipping feedforward responses. *)
}

val f_min : float
(** Lowest sweep frequency (serves as "DC"). *)

val f_max : float
(** Highest sweep frequency. *)

val analyze : Netlist.t -> t option
(** [None] when the admittance matrix is singular somewhere along the
    sweep. *)

val bode : Netlist.t -> freqs:float array -> (float * float * float) array
(** [(freq, magnitude_db, unwrapped_phase_deg)] triples for custom sweeps
    (used by the examples to print Bode plots).
    @raise Into_linalg.Lu.Singular on a singular system. *)
