module Topo_bo = Into_core.Topo_bo
module Sizing = Into_core.Sizing
module Candidates = Into_core.Candidates

type id = Fe_ga | Vgae_bo | Into_oa_r | Into_oa_m | Into_oa

let all = [ Fe_ga; Vgae_bo; Into_oa_r; Into_oa_m; Into_oa ]

let name = function
  | Fe_ga -> "FE-GA"
  | Vgae_bo -> "VGAE-BO"
  | Into_oa_r -> "INTO-OA-r"
  | Into_oa_m -> "INTO-OA-m"
  | Into_oa -> "INTO-OA"

type scale = {
  runs : int;
  n_init : int;
  iterations : int;
  pool : int;
  sizing_init : int;
  sizing_iters : int;
}

let paper_scale =
  { runs = 10; n_init = 10; iterations = 50; pool = 200; sizing_init = 10; sizing_iters = 30 }

(* An empty value counts as unset, so [putenv key ""] clears an override. *)
let env_int key default =
  match Sys.getenv_opt key with
  | None | Some "" -> Ok default
  | Some s -> (
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ | None -> Error (Printf.sprintf "%s=%S: expected a positive integer" key s))

let smoke_scale =
  { runs = 2; n_init = 4; iterations = 6; pool = 24; sizing_init = 4; sizing_iters = 6 }

let scale_of_env () =
  if Sys.getenv_opt "INTO_OA_FULL" = Some "1" then Ok paper_scale
  else
    let ( let* ) = Result.bind in
    let* runs = env_int "INTO_OA_RUNS" 3 in
    let* iterations = env_int "INTO_OA_ITERS" 25 in
    let* pool = env_int "INTO_OA_POOL" 100 in
    let* sizing_iters = env_int "INTO_OA_SIZING_ITERS" 30 in
    Ok { runs; n_init = 10; iterations; pool; sizing_init = 10; sizing_iters }

let scale_of_name = function
  | "smoke" -> Ok smoke_scale
  | "paper" | "full" -> Ok paper_scale
  | "env" | "default" -> scale_of_env ()
  | name -> Error (Printf.sprintf "unknown scale %S (expected smoke, paper or env)" name)

type trace = Into_core.Search.trace = {
  steps : Topo_bo.step list;
  best : Into_core.Evaluator.evaluation option;
  total_sims : int;
  rejections : int;
}

let sizing_config scale =
  { Sizing.default_config with Sizing.n_init = scale.sizing_init; n_iter = scale.sizing_iters }

let bo_config scale strategy runner =
  {
    (Topo_bo.default_config strategy) with
    Topo_bo.n_init = scale.n_init;
    iterations = scale.iterations;
    pool = scale.pool;
    sizing = sizing_config scale;
    runner;
  }

let run ?(runner = Into_core.Evaluator.serial_runner) id ~scale ~rng ~spec =
  match id with
  | Fe_ga ->
    let config =
      {
        Into_baselines.Fe_ga.default_config with
        Into_baselines.Fe_ga.population = scale.n_init;
        iterations = scale.iterations;
        sizing = sizing_config scale;
        runner;
      }
    in
    Into_baselines.Fe_ga.run ~config ~rng ~spec ()
  | Vgae_bo ->
    let config =
      {
        Into_baselines.Vgae_bo.default_config with
        Into_baselines.Vgae_bo.n_init = scale.n_init;
        iterations = scale.iterations;
        pool = scale.pool;
        sizing = sizing_config scale;
        runner;
      }
    in
    Into_baselines.Vgae_bo.run ~config ~rng ~spec ()
  | Into_oa_r | Into_oa_m | Into_oa ->
    let strategy =
      match id with
      | Into_oa_r -> Candidates.Random_only
      | Into_oa_m -> Candidates.Mutation_only
      | Fe_ga | Vgae_bo | Into_oa -> Candidates.Mixed
    in
    let r = Topo_bo.run ~config:(bo_config scale strategy runner) ~rng ~spec () in
    {
      steps = r.Topo_bo.steps;
      best = r.Topo_bo.best;
      total_sims = r.Topo_bo.total_sims;
      rejections = r.Topo_bo.rejections;
    }
