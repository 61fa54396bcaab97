module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Params = Into_circuit.Params
module Netlist = Into_circuit.Netlist
module Diagnostic = Into_analysis.Diagnostic

type evaluation = {
  topology : Into_circuit.Topology.t;
  sizing : float array;
  perf : Perf.t;
  feasible : bool;
  fom : float;
  n_sims : int;
}

type outcome =
  | Evaluated of evaluation
  | Rejected of Diagnostic.t list
  | Failed of Fail.t

let static_diagnostics ~spec topo =
  let topo_diags = Into_analysis.Topology_lint.check topo in
  let netlist_diags =
    match
      let schema = Params.schema topo in
      let sizing = Params.denormalize schema (Params.default_point schema) in
      Netlist.build topo ~sizing ~cl_f:spec.Spec.cl_f
    with
    | nl -> Into_analysis.Netlist_lint.check nl
    | exception exn ->
      [ Diagnostic.make Diagnostic.Build_failure
          (Printf.sprintf "netlist expansion raised %s" (Printexc.to_string exn)) ]
  in
  topo_diags @ netlist_diags

let evaluate_gated ?(sizing_config = Sizing.default_config) ~rng ~spec topo =
  match Diagnostic.errors (static_diagnostics ~spec topo) with
  | _ :: _ as errors -> Rejected errors
  | [] -> (
    let result = Sizing.optimize ~config:sizing_config ~rng ~spec topo in
    match Sizing.best result with
    | None ->
      (* Classify the all-attempts-failed outcome.  A deadline expiry wins
         outright (the run was cut short, whatever the simulations did);
         otherwise the strictly dominant failure class from the sizing loop,
         with ties resolved to the first class seen. *)
      let dominant =
        if result.Sizing.timed_out then Fail.Timeout
        else
          match result.Sizing.failures with
          | [] ->
            Fail.Other
              (Printf.sprintf
                 "all %d sizing attempts (%d init + %d BO) failed behavioral simulation"
                 (sizing_config.Sizing.n_init + sizing_config.Sizing.n_iter)
                 sizing_config.Sizing.n_init sizing_config.Sizing.n_iter)
          | (f0, n0) :: rest ->
            fst
              (List.fold_left
                 (fun (best, best_n) (f, n) ->
                   if n > best_n then (f, n) else (best, best_n))
                 (f0, n0) rest)
      in
      Failed dominant
    | Some o ->
      Evaluated
        {
          topology = topo;
          sizing = o.Sizing.sizing;
          perf = o.Sizing.perf;
          feasible = Perf.satisfies o.Sizing.perf spec;
          fom = Perf.fom o.Sizing.perf ~cl_f:spec.Spec.cl_f;
          n_sims = result.Sizing.n_sims;
        })

let sims_of_outcome ~sizing_config = function
  | Evaluated e -> e.n_sims
  | Rejected _ -> 0
  | Failed _ -> sizing_config.Sizing.n_init + sizing_config.Sizing.n_iter

type task = {
  task_topology : Into_circuit.Topology.t;
  task_spec : Spec.t;
  task_sizing : Sizing.config;
  task_seed : int;
}

let task ~spec ~sizing_config ~seed topo =
  { task_topology = topo; task_spec = spec; task_sizing = sizing_config; task_seed = seed }

let fresh_seed rng = Into_util.Rng.int rng max_int

let run_task t =
  let rng = Into_util.Rng.create ~seed:t.task_seed in
  evaluate_gated ~sizing_config:t.task_sizing ~rng ~spec:t.task_spec t.task_topology

type runner = {
  run_one : task -> outcome;
  run_batch : task array -> outcome array;
}

let serial_runner = { run_one = run_task; run_batch = Array.map run_task }
