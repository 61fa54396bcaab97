(* Tests for the characterization suite: descriptor-form linearization,
   pole/zero extraction, transient integration, noise analysis, Monte-Carlo
   yield and SPICE export. *)

module Topology = Into_circuit.Topology
module Params = Into_circuit.Params
module Netlist = Into_circuit.Netlist
module Linear_system = Into_circuit.Linear_system
module Poles_zeros = Into_circuit.Poles_zeros
module Transient = Into_circuit.Transient
module Noise = Into_circuit.Noise
module Montecarlo = Into_circuit.Montecarlo
module Spice_export = Into_circuit.Spice_export
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Rng = Into_util.Rng
module Mat = Into_linalg.Mat
module Lu = Into_linalg.Lu

let check_close tol = Alcotest.(check (float tol))

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let default_sized topo =
  let schema = Params.schema topo in
  Params.denormalize schema (Params.default_point schema)

let nmc_netlist () =
  let topo = Topology.nmc () in
  Netlist.build topo ~sizing:(default_sized topo) ~cl_f:10e-12

(* A well-behaved feasible design for the dynamic analyses: sized NMC. *)
let sized_feasible =
  lazy
    (let topo = Topology.nmc () in
     let rng = Rng.create ~seed:5 in
     match Into_core.Sizing.best (Into_core.Sizing.optimize ~rng ~spec:Spec.s1 topo) with
     | Some o -> (topo, o.Into_core.Sizing.sizing)
     | None -> Alcotest.fail "reference sizing failed")

(* --- Linear_system --- *)

(* [vout/vin] of the frequency-domain stamps (modified nodal analysis). *)
let transfer nl ~freq_hz =
  let ws = Linear_system.ac (Linear_system.build nl) in
  Linear_system.factor_at ws ~freq_hz;
  Linear_system.vout ws

(* [vout/vin] of the descriptor pencil: [(G + jwC) x = b_g + jw b_c],
   solved with the same LU. *)
let descriptor_transfer sys ~freq_hz =
  let w = 2.0 *. Float.pi *. freq_hz in
  let n = sys.Linear_system.n in
  let y = Lu.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Lu.add y i j (Mat.get sys.Linear_system.g i j) (w *. Mat.get sys.Linear_system.c i j)
    done
  done;
  Lu.factor y;
  let re = Array.copy sys.Linear_system.b_g in
  let im = Array.map (fun b -> w *. b) sys.Linear_system.b_c in
  Lu.solve y re im;
  { Complex.re = re.(sys.Linear_system.output); im = im.(sys.Linear_system.output) }

let prop_linearization_matches_mna =
  QCheck.Test.make ~name:"descriptor transfer = MNA transfer" ~count:40
    QCheck.(pair (int_range 0 (Topology.space_size - 1)) small_int)
    (fun (idx, seed) ->
      let topo = Topology.of_index idx in
      let schema = Params.schema topo in
      let rng = Rng.create ~seed in
      let sizing = Params.denormalize schema (Params.random_point rng schema) in
      let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
      let sys = Linear_system.build nl in
      List.for_all
        (fun f ->
          match (transfer nl ~freq_hz:f, descriptor_transfer sys ~freq_hz:f) with
          | a, b ->
            Complex.norm (Complex.sub a b) <= 1e-6 *. (Complex.norm a +. 1e-9)
          | exception Lu.Singular -> true)
        [ 1.0; 1e3; 1e6; 1e9 ])

(* A fixed slice of the design space — every 306th topology index, at its
   default sizing and at one seeded random sizing — pinned by the digest of
   %h renderings of the evaluation metrics (or failure class), the poles
   and zeros, and the noise figures.  The value was recorded when the AC
   sweep and the noise analysis stamped their own admittance matrices and
   solved them with a separate complex LU, and pole extraction used a real
   LU; one linearization and one LU must reproduce every bit. *)
let pinned_line idx sizing =
  let h = Printf.sprintf "%h" in
  let cxs zs = String.concat ";" (List.map (fun z -> h z.Complex.re ^ "," ^ h z.Complex.im) zs) in
  let topo = Topology.of_index idx in
  let perf =
    match Perf.evaluate_checked topo ~sizing ~cl_f:10e-12 with
    | Ok p -> String.concat "," (List.map h [ p.Perf.gain_db; p.gbw_hz; p.pm_deg; p.power_w ])
    | Error `Singular -> "singular"
    | Error (`Non_finite field) -> "non-finite " ^ field
  in
  let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
  let pz =
    match Poles_zeros.analyze nl with
    | r -> cxs r.Poles_zeros.poles_hz ^ " / " ^ cxs r.Poles_zeros.zeros_hz
    | exception Into_linalg.Eig.No_convergence -> "no-convergence"
  in
  let noise =
    match Noise.analyze nl with
    | r ->
      Printf.sprintf "%s %s %d" (h r.Noise.output_rms_v)
        (match r.Noise.input_spot_nv with None -> "-" | Some v -> h v)
        r.Noise.n_sources
    | exception Lu.Singular -> "singular"
  in
  Printf.sprintf "%d|%s|%s|%s\n" idx perf pz noise

let pinned_slice () =
  let stride = 306 in
  List.concat_map
    (fun k ->
      let idx = k * stride in
      let schema = Params.schema (Topology.of_index idx) in
      let rng = Rng.create ~seed:idx in
      [
        pinned_line idx (Params.denormalize schema (Params.default_point schema));
        pinned_line idx (Params.denormalize schema (Params.random_point rng schema));
      ])
    (List.init (((Topology.space_size - 1) / stride) + 1) Fun.id)

let test_pinned_slice () =
  let lines = pinned_slice () in
  Alcotest.(check int) "points" 202 (List.length lines);
  Alcotest.(check string) "digest" "895bb6ec3c63a364ae666455091bf371"
    (Digest.to_hex (Digest.string (String.concat "" lines)))

let test_linearization_size () =
  let sys = Linear_system.build (nmc_netlist ()) in
  (* 3 circuit nodes + 3 transconductor states + 1 series-RC node. *)
  Alcotest.(check int) "unknown count" 7 sys.Linear_system.n;
  Alcotest.(check int) "output is vout" 2 sys.Linear_system.output

(* --- Poles_zeros --- *)

let test_single_pole () =
  let nl =
    {
      Netlist.prims =
        [
          Netlist.Conductance (Netlist.N 0, Netlist.Gnd, 1.0);
          Netlist.Conductance (Netlist.N 1, Netlist.Gnd, 1.0);
          Netlist.Vccs { ctrl = Netlist.Vin; out = Netlist.N 2; gm = -1e-3; pole_hz = infinity };
          Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1e-5);
          Netlist.Capacitance (Netlist.N 2, Netlist.Gnd, 1e-8);
        ];
      n_unknowns = 3;
      power_w = 0.0;
      gms = [];
    }
  in
  let pz = Poles_zeros.analyze nl in
  Alcotest.(check int) "one finite pole" 1 (List.length pz.Poles_zeros.poles_hz);
  (match pz.Poles_zeros.poles_hz with
  | [ p ] ->
    check_close 0.1 "pole at -1/(2 pi R C)" (-1.0 /. (2.0 *. Float.pi *. 1e5 *. 1e-8)) p.Complex.re;
    check_close 1e-6 "real pole" 0.0 p.Complex.im
  | _ -> Alcotest.fail "unexpected pole count");
  Alcotest.(check int) "no finite zeros" 0 (List.length pz.Poles_zeros.zeros_hz);
  Alcotest.(check bool) "stable" true (Poles_zeros.is_stable pz)

let test_dominant_pole_ordering () =
  let pz = Poles_zeros.analyze (nmc_netlist ()) in
  match pz.Poles_zeros.poles_hz with
  | p1 :: p2 :: _ ->
    Alcotest.(check bool) "sorted by magnitude" true (Complex.norm p1 <= Complex.norm p2);
    (match Poles_zeros.dominant_pole_hz pz with
    | Some d -> check_close 1e-9 "dominant matches head" (Complex.norm p1) d
    | None -> Alcotest.fail "dominant pole missing")
  | _ -> Alcotest.fail "expected several poles"

let test_feasible_design_truly_stable () =
  (* The stability gate inside Perf.evaluate_checked means every feasible
     design is open- and closed-loop stable; cross-check on the reference
     design. *)
  let topo, sizing = Lazy.force sized_feasible in
  let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
  Alcotest.(check bool) "open-loop stable" true
    (List.for_all (fun p -> p.Complex.re < 0.0) (Poles_zeros.open_loop_poles nl));
  Alcotest.(check bool) "closed-loop stable" true
    (List.for_all (fun p -> p.Complex.re < 0.0) (Poles_zeros.closed_loop_poles nl))

let test_stability_gate () =
  (* Cross-coupled transconductors stronger than their losses form a latch
     with a real RHP pole; the evaluator's stability gate must force a hard
     negative phase margin regardless of what the Bode sweep says. *)
  let cross a b =
    Netlist.Vccs { ctrl = a; out = b; gm = 1e-3; pole_hz = infinity }
  in
  let nl =
    {
      Netlist.prims =
        [
          Netlist.Vccs { ctrl = Netlist.Vin; out = Netlist.N 2; gm = -1e-4; pole_hz = infinity };
          Netlist.Conductance (Netlist.N 0, Netlist.Gnd, 1e-5);
          Netlist.Conductance (Netlist.N 1, Netlist.Gnd, 1.0);
          Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1e-5);
          Netlist.Capacitance (Netlist.N 0, Netlist.Gnd, 1e-12);
          Netlist.Capacitance (Netlist.N 2, Netlist.Gnd, 1e-12);
          cross (Netlist.N 2) (Netlist.N 0);
          cross (Netlist.N 0) (Netlist.N 2);
        ];
      n_unknowns = 3;
      power_w = 0.0;
      gms = [];
    }
  in
  Alcotest.(check bool) "latch has an RHP pole" true
    (List.exists (fun p -> p.Complex.re > 0.0) (Poles_zeros.open_loop_poles nl));
  check_close 1e-9 "gate forces pm <= -90" (-90.0) (Perf.stability_checked_pm nl 75.0)

(* --- Transient --- *)

let test_step_settles_to_unity () =
  let topo, sizing = Lazy.force sized_feasible in
  let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
  let w = Transient.step_response nl in
  (match w.Transient.final_value with
  | None -> Alcotest.fail "closed-loop DC target missing"
  | Some fv -> check_close 0.01 "closed-loop DC target is ~1" 1.0 fv);
  match Transient.measure w with
  | None -> Alcotest.fail "settling metrics missing"
  | Some m ->
    Alcotest.(check bool) "settles" true m.Transient.settled;
    Alcotest.(check bool) "bounded overshoot" true (m.Transient.overshoot_pct < 60.0)

let test_open_loop_step_dc_gain () =
  let topo, sizing = Lazy.force sized_feasible in
  let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
  let w = Transient.step_response ~closed_loop:false ~t_end:1e-3 ~points:100 nl in
  (* Open-loop DC target equals the low-frequency gain. *)
  let gain = Complex.norm (transfer nl ~freq_hz:1e-3) in
  match w.Transient.final_value with
  | None -> Alcotest.fail "open-loop DC target missing"
  | Some fv ->
    check_close (0.05 *. gain) "open-loop target is the DC gain" gain (Float.abs fv)

let test_transient_validation () =
  match Transient.step_response ~points:1 (nmc_netlist ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "single-point waveform accepted"

let test_measure_synthetic () =
  let w =
    {
      Transient.time_s = [| 0.0; 1.0; 2.0; 3.0 |];
      vout = [| 0.0; 1.3; 0.95; 1.0 |];
      final_value = Some 1.0;
    }
  in
  match Transient.measure w with
  | None -> Alcotest.fail "metrics missing for a waveform with a DC target"
  | Some m ->
    check_close 1e-9 "overshoot 30%" 30.0 m.Transient.overshoot_pct;
    Alcotest.(check bool) "settles at the third sample" true
      (m.Transient.settling_time_s = Some 3.0)

(* --- Noise --- *)

let test_noise_positive_and_scaling () =
  let topo, sizing = Lazy.force sized_feasible in
  let nl = Netlist.build topo ~sizing ~cl_f:10e-12 in
  let r = Noise.analyze nl in
  Alcotest.(check bool) "positive output noise" true (r.Noise.output_rms_v > 0.0);
  Alcotest.(check bool) "positive input-referred" true
    (match r.Noise.input_spot_nv with Some v -> v > 0.0 | None -> false);
  Alcotest.(check bool) "counts every element" true (r.Noise.n_sources >= 7)

let test_noise_band_validation () =
  match Noise.analyze ~f_lo:10.0 ~f_hi:1.0 (nmc_netlist ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inverted band accepted"

let test_noise_grows_with_band () =
  let nl = nmc_netlist () in
  let narrow = Noise.analyze ~f_lo:1.0 ~f_hi:1e4 nl in
  let wide = Noise.analyze ~f_lo:1.0 ~f_hi:1e6 nl in
  Alcotest.(check bool) "wider band, more integrated noise" true
    (wide.Noise.output_rms_v >= narrow.Noise.output_rms_v)

(* --- Montecarlo --- *)

let test_montecarlo_yield () =
  let topo, sizing = Lazy.force sized_feasible in
  let rng = Rng.create ~seed:9 in
  let r = Montecarlo.run ~trials:40 ~sigma:0.02 ~rng ~spec:Spec.s1 topo ~sizing in
  Alcotest.(check int) "trials recorded" 40 r.Montecarlo.trials;
  Alcotest.(check bool) "yield consistent" true
    (Float.abs (r.Montecarlo.yield -. (float_of_int r.Montecarlo.passes /. 40.0)) < 1e-9);
  Alcotest.(check bool) "zero spread should pass often" true (r.Montecarlo.passes > 0)

let test_montecarlo_zero_sigma () =
  let topo, sizing = Lazy.force sized_feasible in
  let rng = Rng.create ~seed:10 in
  let r = Montecarlo.run ~trials:5 ~sigma:1e-12 ~rng ~spec:Spec.s1 topo ~sizing in
  Alcotest.(check int) "nominal design passes every trial" 5 r.Montecarlo.passes

let test_montecarlo_validation () =
  let topo, sizing = Lazy.force sized_feasible in
  match Montecarlo.run ~trials:0 ~rng:(Rng.create ~seed:1) ~spec:Spec.s1 topo ~sizing with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero trials accepted"

(* --- Spice_export --- *)

let test_spice_deck_structure () =
  let topo = Topology.nmc () in
  let deck = Spice_export.behavioral topo ~sizing:(default_sized topo) ~cl_f:10e-12 in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) ("deck contains " ^ fragment) true (string_contains deck fragment))
    [ "vin vin 0 dc 0 ac 1"; ".ac dec"; ".end"; "g1 "; "r_s1"; "c_s1" ];
  (* Three transconductors -> g1..g3. *)
  Alcotest.(check bool) "third VCCS present" true (string_contains deck "g3 ")

let test_spice_deck_element_count () =
  let topo = Topology.nmc () in
  let nl = Netlist.build topo ~sizing:(default_sized topo) ~cl_f:10e-12 in
  let deck = Spice_export.behavioral topo ~sizing:(default_sized topo) ~cl_f:10e-12 in
  let lines = String.split_on_char '\n' deck in
  let element_lines =
    List.filter
      (fun l ->
        String.length l > 0
        && (match l.[0] with 'r' | 'c' | 'g' -> true | _ -> false))
      lines
  in
  (* Each prim maps to one element except series-RC, which expands to two. *)
  let series =
    List.length
      (List.filter (function Netlist.Series_rc _ -> true | _ -> false) nl.Netlist.prims)
  in
  Alcotest.(check int) "element count"
    (List.length nl.Netlist.prims + series)
    (List.length element_lines)

let () =
  Alcotest.run "into_analysis"
    [
      ( "linear_system",
        [
          Alcotest.test_case "unknown count" `Quick test_linearization_size;
          QCheck_alcotest.to_alcotest prop_linearization_matches_mna;
          Alcotest.test_case "pinned AC, pole/zero and noise digest" `Quick test_pinned_slice;
        ] );
      ( "poles_zeros",
        [
          Alcotest.test_case "single pole" `Quick test_single_pole;
          Alcotest.test_case "dominant ordering" `Quick test_dominant_pole_ordering;
          Alcotest.test_case "feasible implies stable" `Quick test_feasible_design_truly_stable;
          Alcotest.test_case "stability gate on a latch" `Quick test_stability_gate;
        ] );
      ( "transient",
        [
          Alcotest.test_case "closed-loop step settles" `Quick test_step_settles_to_unity;
          Alcotest.test_case "open-loop DC target" `Quick test_open_loop_step_dc_gain;
          Alcotest.test_case "validation" `Quick test_transient_validation;
          Alcotest.test_case "synthetic metrics" `Quick test_measure_synthetic;
        ] );
      ( "noise",
        [
          Alcotest.test_case "positive and counted" `Quick test_noise_positive_and_scaling;
          Alcotest.test_case "band validation" `Quick test_noise_band_validation;
          Alcotest.test_case "band monotonicity" `Quick test_noise_grows_with_band;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "yield bookkeeping" `Quick test_montecarlo_yield;
          Alcotest.test_case "zero sigma" `Quick test_montecarlo_zero_sigma;
          Alcotest.test_case "validation" `Quick test_montecarlo_validation;
        ] );
      ( "spice_export",
        [
          Alcotest.test_case "deck structure" `Quick test_spice_deck_structure;
          Alcotest.test_case "element count" `Quick test_spice_deck_element_count;
        ] );
    ]
