(* Per-layer replays for the traced run.

   Each replay times calls to one layer's public functions on inputs drawn
   from the tasks the traced pass recorded: their topologies, specs, sizing
   configurations and outcomes.  A timing is the median over at least three
   batches, and batches repeat until [min_batch_s] of work has been timed. *)

module Spec = Into_circuit.Spec
module Topology = Into_circuit.Topology
module Params = Into_circuit.Params
module Perf = Into_circuit.Perf
module Netlist = Into_circuit.Netlist
module Rng = Into_util.Rng
module Evaluator = Into_core.Evaluator
module Objective = Into_core.Objective
module Acquisition = Into_core.Acquisition
module Candidates = Into_core.Candidates
module Gp = Into_gp.Gp
module Rbf = Into_gp.Rbf
module Wl_gp = Into_gp.Wl_gp
module Wl = Into_graph.Wl
module Circuit_graph = Into_graph.Circuit_graph
module Cache = Into_runtime.Cache
module Exec = Into_runtime.Exec
module Pool = Into_runtime.Pool
module Checkpoint = Into_runtime.Checkpoint
module Stat = Perfbench_core.Stat

let now = Unix.gettimeofday

type metric = { name : string; unit_ : string; value : float }

let m name unit_ value = { name; unit_; value }

let min_batch_s = 0.04

(* [batch ()] does one batch of work and returns how many calls it made;
   the result is seconds per call. *)
let per_call batch =
  let samples = ref [] and spent = ref 0.0 and reps = ref 0 in
  while !reps < 3 || !spent < min_batch_s do
    let start = now () in
    let calls = batch () in
    let dt = now () -. start in
    samples := (dt /. float_of_int (max 1 calls)) :: !samples;
    spent := !spent +. dt;
    incr reps
  done;
  Stat.median !samples

let each xs f () =
  Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
  Array.length xs

let take n xs = Array.sub xs 0 (min n (Array.length xs))

let distinct_by key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    xs

type inputs = {
  seed : int;
  tmp : string;
  spans : Workload.span list;  (** chronological *)
  evaluations : (Spec.t * Evaluator.evaluation) list;  (** from the unit traces *)
}

let rng_of inputs salt = Rng.create ~seed:(Hashtbl.hash ("perfbench-replay", inputs.seed, salt))

let gated_spans inputs =
  List.filter (fun (s : Workload.span) -> Workload.gated s.Workload.outcome) inputs.spans

(* --- circuit: netlist build, AC sweep, pole check, whole evaluation --- *)

let circuit inputs =
  let rng = rng_of inputs "circuit" in
  let topos =
    distinct_by
      (fun (s : Workload.span) -> Topology.to_index s.Workload.task.Evaluator.task_topology)
      inputs.spans
  in
  let points =
    Array.of_list
      (List.map
         (fun (s : Workload.span) ->
           let topo = s.Workload.task.Evaluator.task_topology in
           let schema = Params.schema topo in
           let sizing = Params.denormalize schema (Params.random_point rng schema) in
           (topo, sizing, s.Workload.task.Evaluator.task_spec.Spec.cl_f))
         topos)
  in
  let points = take 32 points in
  let build (topo, sizing, cl_f) = Netlist.build topo ~sizing ~cl_f in
  let netlists = Array.map build points in
  let quietly f x = try ignore (Sys.opaque_identity (f x)) with _ -> () in
  let evaluate (topo, sizing, cl_f) = Perf.evaluate_checked topo ~sizing ~cl_f in
  let failures =
    Array.fold_left (fun acc p -> match evaluate p with Ok _ -> acc | Error _ -> acc + 1) 0 points
  in
  [
      m "circuit.netlist_build_us" "us" (1e6 *. per_call (each points build));
      m "circuit.ac_analyze_us" "us" (1e6 *. per_call (each netlists (quietly Into_circuit.Ac.analyze)));
      m "circuit.pole_check_us" "us"
        (1e6 *. per_call (each netlists (quietly (fun nl -> Perf.stability_checked_pm nl 60.0))));
      m "circuit.evaluate_us" "us" (1e6 *. per_call (each points evaluate));
      m "circuit.fail_share" "share"
        (float_of_int failures /. float_of_int (max 1 (Array.length points)));
    ]

(* --- analysis: the static gate --- *)

let analysis inputs ~reject_share =
  let tasks =
    Array.of_list
      (List.map
         (fun (s : Workload.span) -> s.Workload.task)
         (distinct_by
            (fun (s : Workload.span) -> Topology.to_index s.Workload.task.Evaluator.task_topology)
            inputs.spans))
  in
  let gate (t : Evaluator.task) =
    Evaluator.static_diagnostics ~spec:t.Evaluator.task_spec t.Evaluator.task_topology
  in
  [
    m "analysis.gate_us" "us" (1e6 *. per_call (each (take 32 tasks) gate));
    m "analysis.reject_share" "share" reject_share;
  ]

(* --- sizing: the inner BO, its GPs and its acquisition --- *)

(* Sizing's private hyperparameter grid, mirrored: 4 lengthscales scaled by
   sqrt d, 2 noise levels, one RBF-GP per metric plus one for the FoM. *)
let lengthscales d = List.map (fun l -> l *. sqrt (float_of_int (max d 1))) [ 0.1; 0.25; 0.5; 1.0 ]
let noises = [ 1e-4; 1e-2 ]
let n_candidates = 60

let fit_or_none ~gram ~y ~noise =
  try Some (Gp.fit ~gram ~y ~signal:1.0 ~noise) with Into_linalg.Cholesky.Not_positive_definite -> None

(* [n] sized points of [topo] that simulate, with the five surrogate targets
   the sizing loop trains on. *)
let training_set rng ~spec topo n =
  let schema = Params.schema topo in
  let xs = ref [] and ys = ref [] and tries = ref 0 in
  while List.length !xs < n && !tries < 20 * n do
    incr tries;
    let u = Params.random_point rng schema in
    match
      Perf.evaluate_checked topo ~sizing:(Params.denormalize schema u) ~cl_f:spec.Spec.cl_f
    with
    | Ok perf ->
      xs := u :: !xs;
      ys :=
        Array.append (Objective.metric_values perf)
          [| Objective.penalized_fom_value perf spec ~cl_f:spec.Spec.cl_f |]
        :: !ys
    | Error _ -> ()
  done;
  let xs = Array.of_list !xs and ys = Array.of_list !ys in
  let targets = Array.init 5 (fun j -> Array.map (fun y -> y.(j)) ys) in
  (xs, targets)

let gp_at rng ~spec topo n =
  let d = Params.dim (Params.schema topo) in
  let xs, targets = training_set rng ~spec topo n in
  let suffix = Printf.sprintf ".n%d" n in
  let l = 0.5 *. sqrt (float_of_int d) in
  let gram = Rbf.gram ~lengthscale:l xs in
  let cands = Array.init n_candidates (fun _ -> Array.init d (fun _ -> Rng.float rng)) in
  let models =
    Array.map (fun y -> fit_or_none ~gram ~y ~noise:1e-2) targets
  in
  let k_stars = Array.map (fun u -> Rbf.cross ~lengthscale:l xs u) cands in
  let predict_batch () =
    match models.(0) with
    | None -> 0
    | Some gp -> each k_stars (fun k_star -> Gp.predict gp ~k_star ~k_self:1.0) ()
  in
  let hyper_grid () =
    Array.iter
      (fun y ->
        List.iter
          (fun l ->
            let gram = Rbf.gram ~lengthscale:l xs in
            List.iter
              (fun noise ->
                Option.iter
                  (fun gp -> ignore (Sys.opaque_identity (Gp.log_marginal_likelihood gp)))
                  (fit_or_none ~gram ~y ~noise))
              noises)
          (lengthscales d))
      targets;
    1
  in
  let bounds = Objective.bounds spec in
  let best = Array.fold_left Float.max Float.neg_infinity targets.(4) in
  let acq_step () =
    Array.iter
      (fun u ->
        let pred j =
          Option.map
            (fun gp -> Gp.predict gp ~k_star:(Rbf.cross ~lengthscale:l xs u) ~k_self:1.0)
            models.(j)
        in
        let feas =
          List.mapi
            (fun j (bound, sense) ->
              match pred j with
              | None -> 1.0
              | Some (mean, var) ->
                Acquisition.probability_feasible ~mean ~std:(sqrt var) ~bound ~sense)
            bounds
        in
        let a =
          match pred 4 with
          | None -> Acquisition.feasibility_only feas
          | Some (mean, var) ->
            let ei = Acquisition.expected_improvement ~mean ~std:(sqrt var) ~best in
            Acquisition.weighted_ei ~w:0.5 ~ei ~feasibility:feas
        in
        ignore (Sys.opaque_identity a))
      cands;
    1
  in
  [
    m ("gp.rbf_gram_us" ^ suffix) "us" (1e6 *. per_call (fun () -> ignore (Rbf.gram ~lengthscale:l xs); 1));
    m ("gp.fit_us" ^ suffix) "us"
      (1e6 *. per_call (fun () -> ignore (fit_or_none ~gram ~y:targets.(0) ~noise:1e-2); 1));
    m ("gp.predict_us" ^ suffix) "us" (1e6 *. per_call predict_batch);
    m ("sizing.hyper_grid_ms" ^ suffix) "ms" (1e3 *. per_call hyper_grid);
    m ("sizing.acq_step_ms" ^ suffix) "ms" (1e3 *. per_call acq_step);
  ]

(* The surrogate's share of a sizing run is what remains after its
   simulations, each priced at the cost of simulating that same topology at
   random sizings. *)
let sizing inputs =
  let tasks =
    take 3
      (Array.of_list
         (List.map
            (fun (s : Workload.span) -> s.Workload.task)
            (distinct_by
               (fun (s : Workload.span) ->
                 Topology.to_index s.Workload.task.Evaluator.task_topology)
               (gated_spans inputs))))
  in
  let sim_rng = rng_of inputs "sizing" in
  let timed =
    Array.map
      (fun (t : Evaluator.task) ->
        let topo = t.Evaluator.task_topology and spec = t.Evaluator.task_spec in
        let start = now () in
        let r =
          Into_core.Sizing.optimize ~config:t.Evaluator.task_sizing
            ~rng:(Rng.create ~seed:t.Evaluator.task_seed) ~spec topo
        in
        let optimize_s = now () -. start in
        let schema = Params.schema topo in
        let points =
          Array.init 8 (fun _ -> Params.denormalize schema (Params.random_point sim_rng schema))
        in
        let sim_s =
          per_call (each points (fun sizing -> Perf.evaluate_checked topo ~sizing ~cl_f:spec.Spec.cl_f))
        in
        (optimize_s, float_of_int r.Into_core.Sizing.n_sims *. sim_s))
      tasks
  in
  let optimize_s = Array.fold_left (fun a (s, _) -> a +. s) 0.0 timed in
  let simulating_s = Array.fold_left (fun a (_, s) -> a +. s) 0.0 timed in
  let rng = rng_of inputs "gp" in
  let gp_metrics =
    if Array.length tasks = 0 then []
    else
      let t = tasks.(0) in
      List.concat_map
        (fun n -> gp_at rng ~spec:t.Evaluator.task_spec t.Evaluator.task_topology n)
        [ 10; 40 ]
  in
  m "sizing.optimize_ms" "ms" (1e3 *. Stat.median (Array.to_list (Array.map fst timed)))
  :: m "sizing.surrogate_share" "share" (1.0 -. (simulating_s /. Float.max optimize_s 1e-9))
  :: gp_metrics

(* --- topo_bo: WL graphs, the WL-GP grid, candidate scoring --- *)

let topo_bo inputs ~outer_share =
  let rng = rng_of inputs "topo" in
  let spec = match inputs.evaluations with (s, _) :: _ -> s | [] -> Spec.s1 in
  (* Training topologies: the evaluated designs, topped up with random
     designs simulated at their default sizing when a run saw fewer than
     60 distinct ones. *)
  let evaluated =
    List.map
      (fun (_, (e : Evaluator.evaluation)) -> (e.topology, e.perf))
      (distinct_by
         (fun (_, (e : Evaluator.evaluation)) -> Topology.to_index e.topology)
         inputs.evaluations)
  in
  let seen = Hashtbl.create 128 in
  List.iter (fun (t, _) -> Hashtbl.replace seen (Topology.to_index t) ()) evaluated;
  let extra = ref [] and tries = ref 0 in
  while List.length evaluated + List.length !extra < 60 && !tries < 2000 do
    incr tries;
    let t = Topology.random rng in
    if not (Hashtbl.mem seen (Topology.to_index t)) then begin
      let schema = Params.schema t in
      match
        Perf.evaluate_checked t
          ~sizing:(Params.denormalize schema (Params.default_point schema))
          ~cl_f:spec.Spec.cl_f
      with
      | Ok perf ->
        Hashtbl.replace seen (Topology.to_index t) ();
        extra := (t, perf) :: !extra
      | Error _ -> ()
    end
  done;
  let train = take 60 (Array.of_list (evaluated @ List.rev !extra)) in
  let graphs = Array.map (fun (t, _) -> Circuit_graph.build t) train in
  let targets =
    Array.init 5 (fun j ->
        Array.map
          (fun (_, perf) ->
            if j < 4 then (Objective.metric_values perf).(j)
            else Objective.penalized_fom_value perf spec ~cl_f:spec.Spec.cl_f)
          train)
  in
  let dict = Wl.create_dict () in
  let full n = Wl_gp.fit ~dict ~graphs:(take n graphs) ~y:(take n targets.(4)) () in
  let fixed_like model y =
    let gp = Wl_gp.gp model in
    Wl_gp.fit ~h_candidates:[ Wl_gp.h model ] ~noise_candidates:[ Gp.noise gp ]
      ~signal_candidates:[ Gp.signal gp ] ~dict ~graphs ~y ()
  in
  let models = Array.map (fun y -> Wl_gp.fit ~dict ~graphs ~y ()) targets in
  let model60 = models.(4) in
  let best = take 5 (Array.map fst train) in
  let visited t = Hashtbl.mem seen (Topology.to_index t) in
  let generate () =
    Candidates.generate ~rng ~strategy:Candidates.Mixed ~pool:200 ~best:(Array.to_list best)
      ~visited
  in
  let pool = Array.of_list (generate ()) in
  let bounds = Objective.bounds spec in
  let best_tfom = Array.fold_left Float.max Float.neg_infinity targets.(4) in
  let score t =
    let g = Circuit_graph.build t in
    let feas =
      List.mapi
        (fun j (bound, sense) ->
          let mean, var = Wl_gp.predict models.(j) g in
          Acquisition.probability_feasible ~mean ~std:(sqrt var) ~bound ~sense)
        bounds
    in
    let mean, var = Wl_gp.predict models.(4) g in
    let ei = Acquisition.expected_improvement ~mean ~std:(sqrt var) ~best:best_tfom in
    Acquisition.weighted_ei ~w:0.5 ~ei ~feasibility:feas
  in
  let topos = Array.map fst train in
  [
    m "topo_bo.outer_share" "share" outer_share;
    m "graph.circuit_graph_us" "us" (1e6 *. per_call (each topos Circuit_graph.build));
    m "graph.wl_extract_us" "us" (1e6 *. per_call (each graphs (Wl.extract dict ~h:3)));
    m "wl_gp.fit_full_ms.n20" "ms" (1e3 *. per_call (fun () -> ignore (full 20); 1));
    m "wl_gp.fit_full_ms.n60" "ms" (1e3 *. per_call (fun () -> ignore (full 60); 1));
    m "wl_gp.fit_fixed_ms.n60" "ms"
      (1e3 *. per_call (fun () -> ignore (fixed_like model60 targets.(4)); 1));
    m "wl_gp.predict_us" "us" (1e6 *. per_call (each graphs (Wl_gp.predict model60)));
    m "topo_bo.score_pool_ms" "ms" (1e3 *. per_call (fun () -> each pool score () |> ignore; 1));
    m "candidates.generate_us" "us" (1e6 *. per_call (fun () -> ignore (generate ()); 1));
  ]

(* --- runtime: cache, engine, pool, checkpoint --- *)

let runtime inputs ~payload =
  let spans = take 16 (Array.of_list (gated_spans inputs)) in
  let dir = Filename.concat inputs.tmp "replay-cache" in
  Workload.rm_rf dir;
  let cache = Cache.create ~dir in
  let keyed =
    Array.map
      (fun (s : Workload.span) -> (Cache.key_of_task s.Workload.task, s.Workload.outcome))
      spans
  in
  let store_s = per_call (each keyed (fun (key, o) -> Cache.store cache ~key o)) in
  let hit_s = per_call (each keyed (fun (key, _) -> Cache.find cache ~key)) in
  let absent =
    Array.map
      (fun (s : Workload.span) ->
        let t = s.Workload.task in
        Cache.key_of_task { t with Evaluator.task_seed = t.Evaluator.task_seed + 1 })
      spans
  in
  let miss_s = per_call (each absent (fun key -> Cache.find cache ~key)) in
  let engine = Exec.create ~jobs:1 ~cache () in
  let tasks = Array.map (fun (s : Workload.span) -> s.Workload.task) spans in
  let exec_s = per_call (each tasks (Exec.evaluate engine)) in
  let items = Array.init 16 Fun.id in
  let pool_s = per_call (fun () -> ignore (Pool.map ~jobs:Workload.campaign_jobs Fun.id items); 1) in
  let journal = Checkpoint.start ~path:(Filename.concat inputs.tmp "replay.ckpt") ~fresh:true in
  let counter = ref 0 in
  let append_s =
    per_call (fun () ->
        for _ = 1 to 16 do
          incr counter;
          Checkpoint.append journal ~key:(string_of_int !counter) ~payload
        done;
        16)
  in
  Checkpoint.close journal;
  Workload.rm_rf dir;
  [
    m "cache.find_hit_us" "us" (1e6 *. hit_s);
    m "cache.find_miss_us" "us" (1e6 *. miss_s);
    m "cache.store_us" "us" (1e6 *. store_s);
    m "exec.hit_overhead_us" "us" (1e6 *. exec_s);
    m "pool.map_overhead_us" "us" (1e6 *. pool_s);
    m "checkpoint.append_us" "us" (1e6 *. append_s);
  ]
