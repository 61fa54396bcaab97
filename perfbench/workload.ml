(* The three workloads and the execution of one unit of each.

   A unit is one closed-loop piece of work: the next unit starts when the
   previous one returns.  Every unit draws its inputs (spec and random
   stream) from the run's seed and its own index, so the same seed gives the
   same units, and a unit repeated gives the same trace digest. *)

module Spec = Into_circuit.Spec
module Rng = Into_util.Rng
module Evaluator = Into_core.Evaluator
module Topo_bo = Into_core.Topo_bo
module Sizing = Into_core.Sizing
module Methods = Into_experiments.Methods
module Campaign = Into_experiments.Campaign
module Exec = Into_runtime.Exec
module Cache = Into_runtime.Cache
module Checkpoint = Into_runtime.Checkpoint

let now = Unix.gettimeofday

type topo_params = {
  specs : Spec.t list;  (** unit [k] optimizes [specs.(k mod length)] *)
  n_init : int;
  iterations : int;
  pool : int;
  sizing_init : int;
  sizing_iters : int;
}

type kind = Topo of topo_params | Campaign_grid

type t = { name : string; kind : kind }

(* perfbench/README.md gives the reason for each parameter. *)
let sizing =
  {
    name = "sizing";
    kind =
      Topo
        {
          specs = Spec.all;
          n_init = 5;
          iterations = 10;
          pool = 50;
          sizing_init = 10;
          sizing_iters = 30;
        };
  }

let topology =
  {
    name = "topology";
    kind =
      Topo
        {
          specs = [ Spec.s1; Spec.s4 ];
          n_init = 10;
          iterations = 30;
          pool = 200;
          sizing_init = 4;
          sizing_iters = 6;
        };
  }

let campaign = { name = "campaign"; kind = Campaign_grid }

(* Worker domains of the campaign engine; the other workloads are serial. *)
let campaign_jobs = 2

let all = [ sizing; topology; campaign ]

let find name = List.find_opt (fun w -> String.equal w.name name) all

let campaign_scale = Methods.smoke_scale

let unit_seed ~seed k = Hashtbl.hash ("perfbench-unit", seed, k)

let sizing_config ~init ~iters =
  { Sizing.default_config with Sizing.n_init = init; n_iter = iters }

let topo_config p runner =
  {
    (Topo_bo.default_config Into_core.Candidates.Mixed) with
    Topo_bo.n_init = p.n_init;
    iterations = p.iterations;
    pool = p.pool;
    sizing = sizing_config ~init:p.sizing_init ~iters:p.sizing_iters;
    runner;
  }

let spec_of_unit p k = List.nth p.specs (k mod List.length p.specs)

(* --- task timing at the runner boundary --- *)

type span = {
  task : Evaluator.task;
  outcome : Evaluator.outcome;
  start : float;
  stop : float;
  parent : int;  (** unit id *)
}

type recorder = {
  keep_spans : bool;
  speed : Speed.t;
  mutable task_ms : float list;  (** gate-passing tasks only *)
  mutable spans : span list;  (** newest first; traced passes only *)
  mutable on_submit : unit -> unit;
}

let recorder ~keep_spans =
  { keep_spans; speed = Speed.create (); task_ms = []; spans = []; on_submit = ignore }

(* Rejected tasks cost a static check and no simulation; their near-zero
   times would split the latency distribution in two and put the median
   on whichever side the rejection share of a seed favours. *)
let gated = function Evaluator.Rejected _ -> false | Evaluator.Evaluated _ | Evaluator.Failed _ -> true

(* The serial runner's batch is [Array.map run_one], so timing each element
   in turn keeps the arithmetic and the order of work unchanged. *)
let timed_runner r ~parent (inner : Evaluator.runner) =
  let one task =
    r.on_submit ();
    let start = now () in
    let outcome = inner.Evaluator.run_one task in
    let stop = now () in
    if gated outcome then r.task_ms <- ((stop -. start) *. 1e3) :: r.task_ms;
    if r.keep_spans then r.spans <- { task; outcome; start; stop; parent } :: r.spans;
    outcome
  in
  { Evaluator.run_one = one; run_batch = Array.map one }

(* --- units --- *)

type opt_run = {
  label : string;
  spec : Spec.t;
  steps : Topo_bo.step list;
  best_fom : float option;  (** best feasible FoM *)
  total_sims : int;
  elapsed_s : float;
}

type campaign_detail = {
  cold_s : float;
  warm_s : float;
  hits : int;  (** cache finds over both passes *)
  lookups : int;
}

type unit_result = {
  unit_id : int;
  wall_s : float;
  runs : opt_run list;  (** the optimization runs the unit made, in order *)
  digest : string;
  minor_words : float;
  major_collections : int;
  campaign : campaign_detail option;
  errors : string list;  (** correctness checks that failed inside the unit *)
}

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.major_collections)

let run_digest r = Perfbench_core.Trace_digest.of_steps ~label:r.label r.steps

let digest_runs runs = Perfbench_core.Trace_digest.combine (List.map run_digest runs)

let best_fom (best : Evaluator.evaluation option) =
  Option.map (fun (e : Evaluator.evaluation) -> e.fom) best

let topo_unit p ~seed ~unit_id ~recorder =
  let spec = spec_of_unit p unit_id in
  let runner = timed_runner recorder ~parent:unit_id Evaluator.serial_runner in
  let rng = Rng.create ~seed:(unit_seed ~seed unit_id) in
  let minor0, major0 = gc_counts () in
  let start = now () in
  let r = Topo_bo.run ~config:(topo_config p runner) ~rng ~spec () in
  let wall_s = now () -. start in
  let minor1, major1 = gc_counts () in
  let run =
    {
      label = Printf.sprintf "%s/INTO-OA/unit %d" spec.Spec.name unit_id;
      spec;
      steps = r.Topo_bo.steps;
      best_fom = best_fom r.Topo_bo.best;
      total_sims = r.Topo_bo.total_sims;
      elapsed_s = wall_s;
    }
  in
  {
    unit_id;
    wall_s;
    runs = [ run ];
    digest = digest_runs [ run ];
    minor_words = minor1 -. minor0;
    major_collections = major1 - major0;
    campaign = None;
    errors = [];
  }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let campaign_runs (t : Campaign.t) =
  List.map
    (fun (r : Campaign.run) ->
      {
        label =
          Printf.sprintf "%s/%s/run %d" r.Campaign.spec.Spec.name
            (Methods.name r.Campaign.method_id) r.Campaign.run_index;
        spec = r.Campaign.spec;
        steps = r.Campaign.trace.Methods.steps;
        best_fom = best_fom r.Campaign.trace.Methods.best;
        total_sims = r.Campaign.trace.Methods.total_sims;
        elapsed_s = r.Campaign.elapsed_s;
      })
    t

(* One pass of the smoke grid on a fresh engine over the cache at [dir].
   The checkpoint journal is started fresh, so a second pass over the same
   directory is served by the outcome cache, not by the journal. *)
let campaign_pass ~dir ~seed ~progress =
  let start = now () in
  let cache = Cache.create ~dir in
  let checkpoint = Checkpoint.start ~path:(Filename.concat dir "campaign.ckpt") ~fresh:true in
  let runtime = Exec.create ~jobs:campaign_jobs ~cache ~checkpoint () in
  let t = Campaign.execute ~progress ~runtime ~scale:campaign_scale ~seed () in
  let wall = now () -. start in
  Checkpoint.close checkpoint;
  (campaign_runs t, wall, cache, runtime)

let campaign_unit ~tmp ~seed ~unit_id ~progress =
  let dir = Filename.concat tmp (Printf.sprintf "unit-%d" unit_id) in
  rm_rf dir;
  let seed = unit_seed ~seed unit_id in
  let minor0, major0 = gc_counts () in
  let cold_runs, cold_s, cold_cache, _ = campaign_pass ~dir ~seed ~progress in
  let warm_runs, warm_s, warm_cache, warm_engine = campaign_pass ~dir ~seed ~progress in
  let minor1, major1 = gc_counts () in
  rm_rf dir;
  let digest = digest_runs cold_runs in
  let warm_hits = Cache.hits warm_cache and warm_computed = Exec.computed warm_engine in
  let cold_stores = Cache.stores cold_cache in
  let lookups c = Cache.hits c + Cache.misses c in
  let errors =
    (if String.equal digest (digest_runs warm_runs) then []
     else [ Printf.sprintf "campaign unit %d: warm digest differs from cold" unit_id ])
    @
    if warm_computed = 0 && warm_hits = cold_stores && warm_hits > 0 then []
    else
      [
        Printf.sprintf "campaign unit %d: warm pass computed %d, hit %d of %d stored" unit_id
          warm_computed warm_hits cold_stores;
      ]
  in
  {
    unit_id;
    wall_s = cold_s +. warm_s;
    runs = cold_runs;
    digest;
    minor_words = minor1 -. minor0;
    major_collections = major1 - major0;
    campaign =
      Some
        {
          cold_s;
          warm_s;
          hits = Cache.hits cold_cache + warm_hits;
          lookups = lookups cold_cache + lookups warm_cache;
        };
    errors;
  }

let run_unit w ~tmp ~seed ~unit_id ~recorder ~progress =
  match w.kind with
  | Topo p -> topo_unit p ~seed ~unit_id ~recorder
  | Campaign_grid -> campaign_unit ~tmp ~seed ~unit_id ~progress
