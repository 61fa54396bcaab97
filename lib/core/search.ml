module Topology = Into_circuit.Topology

type step = {
  iteration : int;
  evaluation : Evaluator.evaluation option;
  rejection : Into_analysis.Diagnostic.t list;
  failure : Fail.t option;
  cumulative_sims : int;
  best_fom_so_far : float option;
}

type trace = {
  steps : step list;
  best : Evaluator.evaluation option;
  total_sims : int;
  rejections : int;
}

type t = {
  rng : Into_util.Rng.t;
  spec : Into_circuit.Spec.t;
  sizing : Sizing.config;
  runner : Evaluator.runner;
  visited : (int, unit) Hashtbl.t;
  mutable evaluations : Evaluator.evaluation list;  (** chronological *)
  mutable steps : step list;  (** reverse chronological *)
  mutable total_sims : int;
  mutable rejections : int;
  mutable best : Evaluator.evaluation option;
}

let create ~rng ~spec ~sizing ~runner =
  {
    rng;
    spec;
    sizing;
    runner;
    visited = Hashtbl.create 256;
    evaluations = [];
    steps = [];
    total_sims = 0;
    rejections = 0;
    best = None;
  }

let visited t topo = Hashtbl.mem t.visited (Topology.to_index topo)

(* The task seed is drawn from the run's stream before the evaluation is
   scheduled, so the stream advances identically whether the outcome is
   computed here, on another domain, or replayed from the cache. *)
let task_of t topo =
  Hashtbl.replace t.visited (Topology.to_index topo) ();
  Evaluator.task ~spec:t.spec ~sizing_config:t.sizing ~seed:(Evaluator.fresh_seed t.rng) topo

let record t ~iteration outcome =
  t.total_sims <- t.total_sims + Evaluator.sims_of_outcome ~sizing_config:t.sizing outcome;
  let evaluation, rejection, failure =
    match outcome with
    | Evaluator.Evaluated e ->
      t.evaluations <- t.evaluations @ [ e ];
      (if e.feasible then
         match t.best with
         | Some b when b.fom >= e.fom -> ()
         | Some _ | None -> t.best <- Some e);
      (Some e, [], None)
    | Evaluator.Rejected diags ->
      t.rejections <- t.rejections + 1;
      (None, diags, None)
    | Evaluator.Failed reason -> (None, [], Some reason)
  in
  t.steps <-
    {
      iteration;
      evaluation;
      rejection;
      failure;
      cumulative_sims = t.total_sims;
      best_fom_so_far = Option.map (fun (b : Evaluator.evaluation) -> b.fom) t.best;
    }
    :: t.steps;
  evaluation

let initial t n =
  let tasks = ref [] in
  let added = ref 0 in
  let guard = ref 0 in
  while !added < n && !guard < 100 * n do
    incr guard;
    let topo = Topology.random t.rng in
    if not (visited t topo) then begin
      incr added;
      tasks := task_of t topo :: !tasks
    end
  done;
  let outcomes = t.runner.Evaluator.run_batch (Array.of_list (List.rev !tasks)) in
  List.rev
    (Array.fold_left
       (fun acc outcome ->
         match record t ~iteration:0 outcome with Some e -> e :: acc | None -> acc)
       [] outcomes)

let evaluate t ~iteration topo = record t ~iteration (t.runner.Evaluator.run_one (task_of t topo))
let evaluations t = t.evaluations
let best t = t.best

let trace t =
  { steps = List.rev t.steps; best = t.best; total_sims = t.total_sims; rejections = t.rejections }
