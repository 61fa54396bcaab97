type result = {
  output_rms_v : float;
  input_spot_nv : float option;
  n_sources : int;
}

let temperature_k = 300.0
let boltzmann = 1.380649e-23
let gamma_channel = 2.0 /. 3.0

type source = {
  into : Netlist.node;
  out_of : Netlist.node;
  psd : float -> float;  (** current PSD (A^2/Hz) at a frequency *)
}

let sources netlist =
  List.filter_map
    (fun prim ->
      match prim with
      | Netlist.Conductance (a, b, _) | Netlist.Capacitance (a, b, _)
      | Netlist.Series_rc (a, b, _, _) ->
        let psd f =
          let y = Linear_system.element_admittance prim ~freq_hz:f in
          4.0 *. boltzmann *. temperature_k *. Float.max y.Complex.re 0.0
        in
        Some { into = a; out_of = b; psd }
      | Netlist.Vccs { out; gm; _ } ->
        let psd _ = 4.0 *. boltzmann *. temperature_k *. gamma_channel *. Float.abs gm in
        Some { into = out; out_of = Netlist.Gnd; psd })
    netlist.Netlist.prims

(* Output noise PSD (V^2/Hz) at one frequency by superposition: one
   factorization, one solve per source. *)
let output_psd ws srcs f =
  Linear_system.factor_at ws ~freq_hz:f;
  List.fold_left
    (fun acc s ->
      let h2 = Complex.norm2 (Linear_system.injected_vout ws ~into:s.into ~out_of:s.out_of) in
      acc +. (s.psd f *. h2))
    0.0 srcs

let analyze ?(f_lo = 1.0) ?(f_hi = 1e8) ?(points_per_decade = 6) netlist =
  if f_lo <= 0.0 || f_hi <= f_lo then invalid_arg "Noise.analyze: bad band";
  let srcs = sources netlist in
  let ws = Linear_system.ac (Linear_system.build netlist) in
  let decades = log10 (f_hi /. f_lo) in
  let n = max 2 (int_of_float (Float.round (decades *. float_of_int points_per_decade)) + 1) in
  let freqs =
    Array.init n (fun i -> f_lo *. ((f_hi /. f_lo) ** (float_of_int i /. float_of_int (n - 1))))
  in
  let psds = Array.map (fun f -> output_psd ws srcs f) freqs in
  (* Trapezoid on the (linear) frequency axis. *)
  let integral = ref 0.0 in
  for i = 0 to n - 2 do
    integral := !integral +. (0.5 *. (psds.(i) +. psds.(i + 1)) *. (freqs.(i + 1) -. freqs.(i)))
  done;
  let f_center = sqrt (f_lo *. f_hi) in
  Linear_system.factor_at ws ~freq_hz:f_center;
  let gain2 = Complex.norm2 (Linear_system.vout ws) in
  (* A dead signal path has no input-referred noise — dividing by a zero
     gain would manufacture a NaN (or inf), not a density. *)
  let input_spot =
    if gain2 <= 0.0 then None
    else Some (sqrt (output_psd ws srcs f_center /. gain2) *. 1e9)
  in
  {
    output_rms_v = sqrt (Float.max !integral 0.0);
    input_spot_nv = input_spot;
    n_sources = List.length srcs;
  }
