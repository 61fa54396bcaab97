module Rng = Into_util.Rng
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Perf = Into_circuit.Perf
module Evaluator = Into_core.Evaluator
module Search = Into_core.Search

type config = {
  population : int;
  iterations : int;
  tournament : int;
  mutation_probability : float;
  sizing : Into_core.Sizing.config;
  runner : Evaluator.runner;
}

let default_config =
  {
    population = 10;
    iterations = 50;
    tournament = 3;
    mutation_probability = 0.2;
    sizing = Into_core.Sizing.default_config;
    runner = Evaluator.serial_runner;
  }

let crossover rng a b =
  List.fold_left
    (fun child slot ->
      let donor = if Rng.bool rng then a else b in
      Topology.set child slot (Topology.get donor slot))
    a Topology.slots

type state = {
  cfg : config;
  rng : Rng.t;
  spec : Spec.t;
  search : Search.t;
  mutable population : Evaluator.evaluation list;
}

let fitness st (e : Evaluator.evaluation) =
  if e.feasible then e.fom else -.Perf.violation e.perf st.spec

let tournament_select st =
  let pop = Array.of_list st.population in
  let pick () = pop.(Rng.int st.rng (Array.length pop)) in
  let rec go best n =
    if n = 0 then best
    else
      let c = pick () in
      go (if fitness st c > fitness st best then c else best) (n - 1)
  in
  go (pick ()) (st.cfg.tournament - 1)

(* Offspring: uniform crossover then per-slot mutation, retried a few times
   to find an unvisited genotype; falls back to a random topology. *)
let offspring st =
  let make () =
    let a = (tournament_select st).Evaluator.topology in
    let b = (tournament_select st).Evaluator.topology in
    let child = crossover st.rng a b in
    List.fold_left
      (fun acc slot ->
        if Rng.float st.rng < st.cfg.mutation_probability then
          let types = Topology.allowed slot in
          Topology.set acc slot (Rng.choice st.rng types)
        else acc)
      child Topology.slots
  in
  let rec search attempts =
    if attempts = 0 then
      let rec random_unvisited n =
        let t = Topology.random st.rng in
        if n = 0 || not (Search.visited st.search t) then t
        else random_unvisited (n - 1)
      in
      random_unvisited 50
    else
      let c = make () in
      if Search.visited st.search c then search (attempts - 1) else c
  in
  search 20

let replace_worst st e =
  match
    List.sort (fun a b -> compare (fitness st a) (fitness st b)) st.population
  with
  | [] -> st.population <- [ e ]
  | worst :: rest ->
    if List.length st.population < st.cfg.population then
      st.population <- e :: st.population
    else if fitness st e > fitness st worst then st.population <- e :: rest
    else ()

let run ?(config = default_config) ~rng ~spec () =
  let search = Search.create ~rng ~spec ~sizing:config.sizing ~runner:config.runner in
  (* Newest individual first, the order [replace_worst] keeps. *)
  let population = List.rev (Search.initial search config.population) in
  let st = { cfg = config; rng; spec; search; population } in
  for iteration = 1 to config.iterations do
    if st.population = [] then ignore (Search.evaluate search ~iteration (Topology.random st.rng))
    else
      let child = offspring st in
      match Search.evaluate search ~iteration child with
      | Some e -> replace_worst st e
      | None -> ()
  done;
  Search.trace search
