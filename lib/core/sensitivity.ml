module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Params = Into_circuit.Params
module Perf = Into_circuit.Perf

type delta = {
  slot : Topology.slot;
  removed : Subcircuit.t;
  before : Perf.t;
  after : Perf.t option;
}

let diff f d = Option.map (fun after -> f after -. f d.before) d.after
let d_gain_db d = diff (fun p -> p.Perf.gain_db) d
let d_gbw_hz d = diff (fun p -> p.Perf.gbw_hz) d
let d_pm_deg d = diff (fun p -> p.Perf.pm_deg) d
let d_power_w d = diff (fun p -> p.Perf.power_w) d

let remove_slot topo ~sizing slot =
  if Subcircuit.equal (Topology.get topo slot) Subcircuit.No_conn then None
  else
    let reduced = Topology.set topo slot Subcircuit.No_conn in
    let from_schema = Params.schema topo in
    let to_schema = Params.schema reduced in
    let sizing' =
      Sizing_transfer.transfer ~from_schema ~from_sizing:sizing ~to_schema
    in
    Some (reduced, sizing')

let analyze topo ~sizing ~cl_f =
  let before =
    match Perf.evaluate_checked topo ~sizing ~cl_f with
    | Ok p -> p
    | Error _ -> invalid_arg "Sensitivity.analyze: baseline simulation failed"
  in
  List.filter_map
    (fun slot ->
      match remove_slot topo ~sizing slot with
      | None -> None
      | Some (reduced, sizing') ->
        Some
          {
            slot;
            removed = Topology.get topo slot;
            before;
            after = Result.to_option (Perf.evaluate_checked reduced ~sizing:sizing' ~cl_f);
          })
    Topology.slots
