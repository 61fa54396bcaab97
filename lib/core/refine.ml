module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Params = Into_circuit.Params
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Wl_gp = Into_gp.Wl_gp

type move = {
  slot : Topology.slot;
  from_sub : Subcircuit.t;
  to_sub : Subcircuit.t;
  predicted_metric : float;
  achieved : Perf.t option;
}

type outcome = {
  original_perf : Perf.t;
  critical_metric : string option;
  refined : (Topology.t * float array * Perf.t) option;
  moves : move list;
  n_sims : int;
}

(* Transformed shortfall of each metric; positive means violated. *)
let shortfalls perf spec =
  let values = Objective.metric_values perf in
  List.mapi
    (fun i (m : Objective.metric) ->
      let bound, sense = List.nth (Objective.bounds spec) i in
      let gap =
        match sense with `Min -> bound -. values.(i) | `Max -> values.(i) -. bound
      in
      (m.name, sense, gap))
    Objective.metrics

let critical_of perf spec =
  let violated = List.filter (fun (_, _, gap) -> gap > 0.0) (shortfalls perf spec) in
  match violated with
  | [] -> None
  | first :: rest ->
    Some
      (List.fold_left
         (fun ((_, _, gb) as b) ((_, _, g) as c) -> if g > gb then c else b)
         first rest)

(* Goodness orientation: larger is better for `Min-bounded metrics, smaller
   is better for `Max-bounded ones. *)
let orient sense v = match sense with `Min -> v | `Max -> -.v

let worst_slot model topo sense =
  let reports = Attribution.slot_gradients model topo in
  let score slot =
    match
      List.find_opt (fun (r : Attribution.slot_report) -> r.slot = slot) reports
    with
    | Some r -> orient sense r.gradient
    | None -> 0.0 (* unconnected slot: no structure to blame *)
  in
  fst
    (List.fold_left
       (fun ((_, gb) as b) slot ->
         let g = score slot in
         if g < gb then (slot, g) else b)
       (Topology.V1_vout, infinity) Topology.slots)

(* Candidate moves, best first: alternatives for the worst slot are ranked
   ahead (the paper's primary procedure); if they run out, replacements in
   the remaining slots follow, everything ordered by the surrogate's
   prediction of the critical metric for the modified topology. *)
let ranked_moves model topo worst sense =
  let moves_for slot =
    let current = Topology.get topo slot in
    let options =
      List.filter
        (fun sub -> not (Subcircuit.equal sub current))
        (Array.to_list (Topology.allowed slot))
    in
    let scored =
      List.map
        (fun sub ->
          let candidate = Topology.set topo slot sub in
          let g = Into_graph.Circuit_graph.build candidate in
          let mean, _ = Wl_gp.predict model g in
          (slot, sub, mean, orient sense mean))
        options
    in
    List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) scored
  in
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  let primary, overflow =
    let ranked = moves_for worst in
    (take 3 ranked, List.filteri (fun i _ -> i >= 3) ranked)
  in
  let others =
    overflow
    @ List.concat_map moves_for (List.filter (fun s -> s <> worst) Topology.slots)
  in
  primary @ List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) others

let refine ?(max_moves = 5) ?(sizing_config = Sizing.default_config) ~models ~rng ~spec
    ~sizing topology =
  let cl_f = spec.Spec.cl_f in
  let n_sims = ref 1 in
  let original_perf =
    match Perf.evaluate_checked topology ~sizing ~cl_f with
    | Ok p -> p
    | Error _ -> invalid_arg "Refine.refine: original design does not simulate"
  in
  match critical_of original_perf spec with
  | None ->
    {
      original_perf;
      critical_metric = None;
      refined = Some (topology, sizing, original_perf);
      moves = [];
      n_sims = !n_sims;
    }
  | Some (metric_name, sense, _) ->
    let model =
      match List.assoc_opt metric_name models with
      | Some m -> m
      | None -> invalid_arg ("Refine.refine: missing surrogate for " ^ metric_name)
    in
    let worst = worst_slot model topology sense in
    let alternatives = ranked_moves model topology worst sense in
    let from_schema = Params.schema topology in
    let rec attempt moves budget = function
      | [] -> (List.rev moves, None)
      | _ when budget = 0 -> (List.rev moves, None)
      | (slot, sub, predicted, _) :: rest ->
        let candidate = Topology.set topology slot sub in
        let to_schema = Params.schema candidate in
        let start_phys =
          Sizing_transfer.transfer ~from_schema ~from_sizing:sizing ~to_schema
        in
        (* "The modified circuit part is resized": every parameter of the
           edited slot is free, the rest of the trusted design is frozen. *)
        let free =
          List.sort_uniq compare
            (Params.slot_param_indices to_schema slot
            @ Sizing_transfer.new_dims ~from_schema ~to_schema)
        in
        let sized =
          if free = [] then begin
            incr n_sims;
            match Perf.evaluate_checked candidate ~sizing:start_phys ~cl_f with
            | Ok p -> Some (start_phys, p)
            | Error _ -> None
          end
          else begin
            let result =
              Sizing.optimize ~config:sizing_config
                ~start:(Params.normalize to_schema start_phys)
                ~free_dims:free ~rng ~spec candidate
            in
            n_sims := !n_sims + result.Sizing.n_sims;
            Option.map
              (fun (o : Sizing.outcome) -> (o.Sizing.sizing, o.Sizing.perf))
              (Sizing.best result)
          end
        in
        let achieved = Option.map snd sized in
        let move =
          { slot; from_sub = Topology.get topology slot; to_sub = sub;
            predicted_metric = predicted; achieved }
        in
        (match sized with
        | Some (s, p) when Perf.satisfies p spec ->
          (List.rev (move :: moves), Some (candidate, s, p))
        | Some _ | None -> attempt (move :: moves) (budget - 1) rest)
    in
    let moves, refined = attempt [] max_moves alternatives in
    {
      original_perf;
      critical_metric = Some metric_name;
      refined;
      moves;
      n_sims = !n_sims;
    }
