(** Small-signal thermal noise analysis.

    Every passive one-port contributes a noise current of power spectral
    density [4 k T Re(Y(jw))] (the Nyquist theorem, which handles plain
    resistors and R-C series branches uniformly); every transconductor
    contributes channel noise [4 k T gamma gm] at its output, with
    [gamma = 2/3].  Per frequency, each source's current is propagated to
    the output through the silenced network and summed in power; the
    input-referred density divides by the signal transfer [|H(jw)|^2].

    Noise is not part of the paper's figure of merit; the module extends
    the characterization suite (and exposes one more classic trade-off:
    small input transconductances buy power at the cost of noise). *)

type result = {
  output_rms_v : float;  (** integrated output noise over the band *)
  input_spot_nv : float option;
      (** input-referred density at the geometric band center, nV/sqrt(Hz);
          [None] when the signal gain at the band center is zero (nothing to
          refer the noise to — previously this divided by zero into NaN) *)
  n_sources : int;
}

val temperature_k : float
(** 300 K. *)

val analyze :
  ?f_lo:float -> ?f_hi:float -> ?points_per_decade:int -> Netlist.t -> result
(** Band defaults to [1 Hz, 100 MHz] with 6 points per decade.
    @raise Into_linalg.Lu.Singular when the network is singular in the band. *)
