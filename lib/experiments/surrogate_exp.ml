module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Evaluator = Into_core.Evaluator
module Objective = Into_core.Objective
module Wl_gp = Into_gp.Wl_gp
module Gp = Into_gp.Gp
module Rbf = Into_gp.Rbf

type model_score = {
  metric : string;
  wl_spearman : float;
  embedding_spearman : float;
}

type report = {
  n_train : int;
  n_test : int;
  scores : model_score list;
  sims_spent : int;
}

let target spec (e : Evaluator.evaluation) m = (Objective.targets e.Evaluator.perf spec).(m)

(* Distinct random topologies, each sized with the standard inner BO. *)
let sample ~progress ~rng ~spec ~sizing_config n sims =
  let seen = Hashtbl.create (4 * n) in
  let rec draw acc k =
    if k = 0 then List.rev acc
    else begin
      let t = Topology.random rng in
      if Hashtbl.mem seen (Topology.to_index t) then draw acc k
      else begin
        Hashtbl.replace seen (Topology.to_index t) ();
        progress (Printf.sprintf "sizing sample %d" (n - k + 1));
        let outcome = Evaluator.evaluate_gated ~sizing_config ~rng ~spec t in
        sims := !sims + Evaluator.sims_of_outcome ~sizing_config outcome;
        match outcome with
        | Evaluator.Evaluated e -> draw (e :: acc) (k - 1)
        | Evaluator.Rejected _ | Evaluator.Failed _ -> draw acc k
      end
    end
  in
  draw [] n

let embedding_predictions train test m spec =
  let xs = Array.of_list (List.map (fun e -> Into_baselines.Embedding.embed e.Evaluator.topology) train) in
  let y = Array.of_list (List.map (fun e -> target spec e m) train) in
  let fit l noise =
    match Gp.fit ~gram:(Rbf.gram ~lengthscale:l xs) ~y ~signal:1.0 ~noise with
    | gp -> Some (gp, Gp.log_marginal_likelihood gp, l)
    | exception Into_linalg.Cholesky.Not_positive_definite -> None
  in
  let best =
    List.fold_left
      (fun acc (l, noise) ->
        match (acc, fit l noise) with
        | None, c -> c
        | Some (_, bl, _), (Some (_, lml, _) as c) when lml > bl -> c
        | acc, _ -> acc)
      None
      [ (0.5, 1e-2); (1.0, 1e-2); (2.0, 1e-2); (4.0, 1e-2); (1.0, 1e-1); (2.0, 1e-1) ]
  in
  match best with
  | None -> List.map (fun _ -> 0.0) test
  | Some (gp, _, l) ->
    List.map
      (fun e ->
        let q = Into_baselines.Embedding.embed e.Evaluator.topology in
        fst (Gp.predict gp ~k_star:(Rbf.cross ~lengthscale:l xs q) ~k_self:1.0))
      test

let wl_predictions train test m spec =
  let dict = Into_graph.Wl.create_dict () in
  let graphs =
    Array.of_list (List.map (fun e -> Into_graph.Circuit_graph.build e.Evaluator.topology) train)
  in
  let y = Array.of_list (List.map (fun e -> target spec e m) train) in
  let model = Wl_gp.fit ~dict ~graphs ~y () in
  List.map
    (fun e -> fst (Wl_gp.predict model (Into_graph.Circuit_graph.build e.Evaluator.topology)))
    test

let run ?(n_train = 40) ?(n_test = 20) ?(progress = fun _ -> ()) ~spec ~sizing_config
    ~seed () =
  let rng = Into_util.Rng.create ~seed in
  let sims = ref 0 in
  let pool = sample ~progress ~rng ~spec ~sizing_config (n_train + n_test) sims in
  let rec split k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> split (k - 1) (x :: acc) rest
  in
  let train, test = split n_train [] pool in
  let scores =
    List.mapi
      (fun m name ->
        let truth = Array.of_list (List.map (fun e -> target spec e m) test) in
        let wl = Array.of_list (wl_predictions train test m spec) in
        let emb = Array.of_list (embedding_predictions train test m spec) in
        {
          metric = name;
          wl_spearman = Into_util.Stats.spearman wl truth;
          embedding_spearman = Into_util.Stats.spearman emb truth;
        })
      Objective.target_names
  in
  { n_train = List.length train; n_test = List.length test; scores; sims_spent = !sims }

let render spec r =
  let rows =
    List.map
      (fun s ->
        [
          s.metric;
          Printf.sprintf "%.3f" s.wl_spearman;
          Printf.sprintf "%.3f" s.embedding_spearman;
        ])
      r.scores
  in
  Printf.sprintf
    "Surrogate quality on %s: held-out Spearman rank correlation\n\
     (train %d, test %d sized topologies; %d simulations)\n%s"
    spec.Spec.name r.n_train r.n_test r.sims_spent
    (Into_util.Table.render
       ~header:[ "Metric"; "WL-GP"; "embedding GP (VGAE sub.)" ]
       rows)
