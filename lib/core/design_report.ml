module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec

let metric_line models topo name =
  match List.assoc_opt name models with
  | None -> Printf.sprintf "  %-5s (no surrogate)" name
  | Some model ->
    let grads = Attribution.slot_gradients model topo in
    Printf.sprintf "  %-5s %s" name
      (String.concat "  "
         (List.map
            (fun (r : Attribution.slot_report) ->
              Printf.sprintf "%s[%s]=%+.3f"
                (Topology.slot_name r.Attribution.slot)
                (Subcircuit.to_string r.Attribution.subcircuit)
                r.Attribution.gradient)
            grads))

let sensitivity_section topo ~sizing ~cl_f =
  let deltas = Sensitivity.analyze topo ~sizing ~cl_f in
  if deltas = [] then "  (no variable subcircuit to remove)"
  else
    String.concat "\n"
      (List.map
         (fun (d : Sensitivity.delta) ->
           let fmt f u =
             match f d with Some v -> Printf.sprintf "%+.3g%s" v u | None -> "fails"
           in
           Printf.sprintf "  without %s[%s]: dGBW=%s dPM=%s dGain=%s"
             (Topology.slot_name d.Sensitivity.slot)
             (Subcircuit.to_string d.Sensitivity.removed)
             (fmt (fun x -> Option.map (fun v -> v /. 1e6) (Sensitivity.d_gbw_hz x)) "MHz")
             (fmt Sensitivity.d_pm_deg "deg")
             (fmt Sensitivity.d_gain_db "dB"))
         deltas)

let outcome_summary ~cl_f = function
  | Evaluator.Evaluated (e : Evaluator.evaluation) ->
    Printf.sprintf "evaluated: %s  feasible=%b  (%d simulations)"
      (Perf.to_string e.perf ~cl_f) e.feasible e.n_sims
  | Evaluator.Rejected diags ->
    "rejected by the static verification gate:\n"
    ^ String.concat "\n"
        (List.map
           (fun d -> "  " ^ Into_analysis.Diagnostic.to_string d)
           (Into_analysis.Diagnostic.by_severity diags))
  | Evaluator.Failed f -> "failed: " ^ Fail.to_string f

let render ~models ~spec ~sizing topo =
  let cl_f = spec.Spec.cl_f in
  let perf =
    match Perf.evaluate_checked topo ~sizing ~cl_f with
    | Ok p -> p
    | Error _ -> invalid_arg "Design_report.render: design does not simulate"
  in
  let netlist = Into_circuit.Netlist.build topo ~sizing ~cl_f in
  let pz = Into_circuit.Poles_zeros.analyze netlist in
  let top_structures =
    match List.assoc_opt "fom" models with
    | None -> "  (no FoM surrogate)"
    | Some model ->
      String.concat "\n"
        (List.map
           (fun (desc, g) -> Printf.sprintf "  %+.4f  %s" g desc)
           (Attribution.top_features model topo ~n:5))
  in
  String.concat "\n"
    [
      "=== design report ===";
      "topology: " ^ Topology.to_string topo;
      "spec:     " ^ Spec.to_string spec;
      Printf.sprintf "measured: %s  (meets spec: %b)" (Perf.to_string perf ~cl_f)
        (Perf.satisfies perf spec);
      "";
      "slot gradients (d metric / d structure count, WL-GP Eq. 5):";
      String.concat "\n"
        (List.map (metric_line models topo) [ "gain"; "gbw"; "pm"; "power" ]);
      "";
      "most FoM-critical structures:";
      top_structures;
      "";
      "pole/zero constellation:";
      Into_circuit.Poles_zeros.describe pz;
      Printf.sprintf "open-loop stable: %b" (Into_circuit.Poles_zeros.is_stable pz);
      "";
      "remove-and-resimulate sensitivity:";
      sensitivity_section topo ~sizing ~cl_f;
    ]
