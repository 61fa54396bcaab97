(* Full characterization of a synthesized design with the extended analysis
   suite: exact poles/zeros from the circuit pencil, unity-feedback
   stability, step response (ASCII plot), thermal noise and Monte-Carlo
   yield — plus a SPICE deck to cross-check the design externally.

   Run with: dune exec examples/characterize.exe *)

module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Spec = Into_circuit.Spec
module Perf = Into_circuit.Perf
module Netlist = Into_circuit.Netlist

let () =
  let spec = Spec.s1 in
  (* A three-stage design with feedforward + Miller compensation. *)
  let topo =
    Topology.make ~vin_v2:Subcircuit.No_conn
      ~vin_vout:(Subcircuit.Gm (Subcircuit.Minus, Subcircuit.Forward))
      ~v1_vout:(Subcircuit.Passive (Subcircuit.Rc Subcircuit.Series))
      ~v1_gnd:Subcircuit.No_conn ~v2_gnd:Subcircuit.No_conn
  in
  Printf.printf "Design: %s\nSpec:   %s\n\n" (Topology.to_string topo) (Spec.to_string spec);

  let rng = Into_util.Rng.create ~seed:34 in
  let sizing =
    match Into_core.Sizing.best (Into_core.Sizing.optimize ~rng ~spec topo) with
    | Some o -> o.Into_core.Sizing.sizing
    | None -> failwith "sizing failed"
  in
  (match Perf.evaluate_checked topo ~sizing ~cl_f:spec.Spec.cl_f with
  | Ok p ->
    Printf.printf "Sized:  %s  (meets %s: %b)\n\n" (Perf.to_string p ~cl_f:spec.Spec.cl_f)
      spec.Spec.name (Perf.satisfies p spec)
  | Error _ -> ());

  let netlist = Netlist.build topo ~sizing ~cl_f:spec.Spec.cl_f in

  (* Exact poles and zeros from the (G, C) pencil. *)
  let pz = Into_circuit.Poles_zeros.analyze netlist in
  print_endline (Into_circuit.Poles_zeros.describe pz);
  Printf.printf "open-loop stable: %b\n" (Into_circuit.Poles_zeros.is_stable pz);
  let closed = Into_circuit.Poles_zeros.closed_loop_poles netlist in
  Printf.printf "unity-feedback stable: %b\n\n"
    (List.for_all (fun p -> p.Complex.re < 0.0) closed);

  (* Closed-loop step response. *)
  let w = Into_circuit.Transient.step_response netlist in
  let pts =
    Array.to_list (Array.mapi (fun i t -> (t, w.Into_circuit.Transient.vout.(i))) w.Into_circuit.Transient.time_s)
  in
  print_endline "Closed-loop unit step response:";
  print_string
    (Into_util.Ascii_plot.plot ~height:14 ~x_label:"t (s)" ~y_label:"vout"
       [ ("step", pts) ]);
  (match Into_circuit.Transient.measure w with
  | None -> print_endline "no DC operating point: settling metrics unavailable\n"
  | Some m ->
    Printf.printf "overshoot %.1f%%  settling %s\n\n" m.Into_circuit.Transient.overshoot_pct
      (match m.Into_circuit.Transient.settling_time_s with
      | Some t -> Printf.sprintf "%.3g s" t
      | None -> "(never)"));

  (* Noise and Monte-Carlo yield. *)
  let nz = Into_circuit.Noise.analyze netlist in
  Printf.printf "Noise: %.3g Vrms output, %s input-referred (%d sources)\n"
    nz.Into_circuit.Noise.output_rms_v
    (match nz.Into_circuit.Noise.input_spot_nv with
    | Some v -> Printf.sprintf "%.1f nV/sqrt(Hz)" v
    | None -> "n/a")
    nz.Into_circuit.Noise.n_sources;
  let mc =
    Into_circuit.Montecarlo.run ~rng:(Into_util.Rng.create ~seed:32) ~spec topo ~sizing
  in
  Printf.printf "Monte-Carlo (5%% component spread, %d trials): yield %.0f%%, worst PM %.1f deg\n\n"
    mc.Into_circuit.Montecarlo.trials
    (100.0 *. mc.Into_circuit.Montecarlo.yield)
    mc.Into_circuit.Montecarlo.worst_pm_deg;

  (* SPICE deck for external cross-checking. *)
  print_endline "SPICE deck (first lines):";
  let deck = Into_circuit.Spice_export.behavioral topo ~sizing ~cl_f:spec.Spec.cl_f in
  List.iteri
    (fun i line -> if i < 12 then print_endline ("  " ^ line))
    (String.split_on_char '\n' deck)
