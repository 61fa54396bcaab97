(** The one linearization of a netlist: every analysis turns a circuit into
    matrices here, and solves them with the one LU ({!Into_linalg.Lu}).

    {!build} classifies the netlist's nodes once and serves two views of
    the same circuit:

    - the descriptor pencil [(G + sC) x = (b_g + s b_c) u] with constant
      real matrices, for exact pole/zero extraction ({!Poles_zeros}) and
      time-domain integration ({!Transient}).  Every rational element is
      expanded by adding internal states: a series R-C branch becomes an
      explicit internal node between its resistor and capacitor, and a
      transconductor's single-pole roll-off [gm/(1 + s/w)] becomes an
      auxiliary low-pass state [x + (s/w) x = v_ctrl] whose output drives
      the ideal VCCS;
    - the frequency-domain stamps for {!Ac} and {!Noise}: modified nodal
      analysis on the netlist's own unknowns, with the rational elements
      stamped as admittances [jwC/(1 + jwRC)] and [gm/(1 + jf/pole)] into a
      workspace reused across a sweep.

    Both views have the same transfer function at every frequency, which
    the test suite checks. *)

type stamps
(** The frequency-domain view: each primitive with the matrix entries its
    admittance lands on. *)

type t = {
  g : Into_linalg.Mat.t;  (** conductance matrix *)
  c : Into_linalg.Mat.t;  (** capacitance matrix *)
  b_g : Into_linalg.Vec.t;  (** resistive input coupling: multiplies [v_in] *)
  b_c : Into_linalg.Vec.t;  (** capacitive input coupling: multiplies [s v_in] *)
  n : int;  (** number of unknowns (3 circuit + internal + auxiliary) *)
  output : int;  (** index of [vout] *)
  stamps : stamps;
}

val build : Netlist.t -> t

val closed_loop : t -> Into_linalg.Mat.t * Into_linalg.Mat.t
(** [(G, C)] of the amplifier in unity negative feedback ([u = vin - vout]):
    the input coupling folded onto the output column.  The input vectors
    are unchanged. *)

val element_admittance : Netlist.prim -> freq_hz:float -> Complex.t
(** Admittance of a passive two-terminal at a frequency (used by the
    Nyquist-theorem noise model).
    @raise Invalid_argument on a controlled source. *)

type ac
(** A frequency-domain workspace: [Y(jw)] on the netlist's unknowns, its
    LU factors and the unit-[vin] right-hand side. *)

val ac : t -> ac

val factor_at : ac -> freq_hz:float -> unit
(** Stamp [Y(jw)] and the input vector at a frequency and factor [Y].
    @raise Into_linalg.Lu.Singular when [Y] is numerically singular. *)

val vout : ac -> Complex.t
(** [vout / vin] at the last factored frequency. *)

val injected_vout : ac -> into:Netlist.node -> out_of:Netlist.node -> Complex.t
(** [vout] at the last factored frequency with the input source silenced
    and a unit AC current pushed into [into] and pulled from [out_of] — the
    per-source transfer the noise analysis superposes. *)
