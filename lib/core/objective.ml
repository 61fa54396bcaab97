module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec

type metric = { name : string; extract : Perf.t -> float }

let log10_floor floor x = log10 (Float.max x floor)

let metrics =
  [
    { name = "gain"; extract = (fun p -> p.Perf.gain_db) };
    { name = "gbw"; extract = (fun p -> log10_floor 1.0 p.Perf.gbw_hz) };
    { name = "pm"; extract = (fun p -> p.Perf.pm_deg) };
    { name = "power"; extract = (fun p -> log10_floor 1e-12 p.Perf.power_w) };
  ]

let bounds spec =
  [
    (spec.Spec.min_gain_db, `Min);
    (log10 spec.Spec.min_gbw_hz, `Min);
    (spec.Spec.min_pm_deg, `Min);
    (log10 spec.Spec.max_power_w, `Max);
  ]

let metric_values perf = Array.of_list (List.map (fun m -> m.extract perf) metrics)

let fom_value perf ~cl_f = log10_floor 1e-6 (Perf.fom perf ~cl_f)

let penalized_fom_value perf spec ~cl_f =
  fom_value perf ~cl_f -. (2.0 *. Perf.violation perf spec)

let target_names = List.map (fun m -> m.name) metrics @ [ "fom" ]

let targets perf spec =
  Array.append (metric_values perf) [| penalized_fom_value perf spec ~cl_f:spec.Spec.cl_f |]

let feasible = Perf.satisfies
