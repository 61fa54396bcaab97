(* Tests for Into_baselines: the FE-GA genetic baseline and the VGAE-BO
   embedding baseline. *)

module Fe_ga = Into_baselines.Fe_ga
module Embedding = Into_baselines.Embedding
module Vgae_bo = Into_baselines.Vgae_bo
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Spec = Into_circuit.Spec
module Sizing = Into_core.Sizing
module Topo_bo = Into_core.Topo_bo
module Evaluator = Into_core.Evaluator
module Search = Into_core.Search
module Rng = Into_util.Rng

let small_sizing = { Sizing.default_config with Sizing.n_init = 5; n_iter = 5; n_candidates = 20 }

(* --- crossover --- *)

let prop_crossover_inherits_slots =
  QCheck.Test.make ~name:"crossover takes every slot from a parent" ~count:200
    QCheck.(triple small_int (int_range 0 (Topology.space_size - 1)) (int_range 0 (Topology.space_size - 1)))
    (fun (seed, ia, ib) ->
      let rng = Rng.create ~seed in
      let a = Topology.of_index ia and b = Topology.of_index ib in
      let child = Fe_ga.crossover rng a b in
      List.for_all
        (fun slot ->
          let c = Topology.get child slot in
          Subcircuit.equal c (Topology.get a slot) || Subcircuit.equal c (Topology.get b slot))
        Topology.slots)

let test_crossover_identical_parents () =
  let rng = Rng.create ~seed:1 in
  let a = Topology.nmc () in
  Alcotest.(check bool) "clone of identical parents" true
    (Topology.equal (Fe_ga.crossover rng a a) a)

(* --- FE-GA --- *)

let test_fe_ga_run () =
  let rng = Rng.create ~seed:11 in
  let config =
    { Fe_ga.default_config with Fe_ga.population = 4; iterations = 6; sizing = small_sizing }
  in
  let r = Fe_ga.run ~config ~rng ~spec:Spec.s1 () in
  Alcotest.(check int) "one step per evaluation" 10 (List.length r.Search.steps);
  Alcotest.(check int) "sims accounted" (10 * 10) r.Search.total_sims;
  (* The trace never revisits a topology. *)
  let idxs =
    List.filter_map
      (fun (s : Topo_bo.step) ->
        Option.map
          (fun (e : Evaluator.evaluation) -> Topology.to_index e.Evaluator.topology)
          s.Topo_bo.evaluation)
      r.Search.steps
  in
  Alcotest.(check int) "no revisits" (List.length idxs)
    (List.length (List.sort_uniq compare idxs));
  match r.Search.best with
  | None -> ()
  | Some e -> Alcotest.(check bool) "best is feasible" true e.Evaluator.feasible

(* --- Embedding --- *)

let test_embedding_dims () =
  Alcotest.(check int) "one-hot dimension 49" 49 Embedding.one_hot_dim;
  Alcotest.(check int) "latent dimension" 8 Embedding.dim;
  Alcotest.(check int) "embed length" Embedding.dim
    (Array.length (Embedding.embed (Topology.nmc ())))

let prop_one_hot_is_indicator =
  QCheck.Test.make ~name:"one-hot has exactly one 1 per slot" ~count:200
    QCheck.(int_range 0 (Topology.space_size - 1))
    (fun idx ->
      let v = Embedding.one_hot (Topology.of_index idx) in
      Array.length v = Embedding.one_hot_dim
      && Float.abs (Array.fold_left ( +. ) 0.0 v -. 5.0) < 1e-12
      && Array.for_all (fun x -> x = 0.0 || x = 1.0) v)

let test_embedding_deterministic () =
  let t = Topology.nmc () in
  Alcotest.(check (array (float 1e-15))) "same embedding across calls"
    (Embedding.embed t) (Embedding.embed t)

let prop_embedding_mostly_injective =
  QCheck.Test.make ~name:"different topologies embed differently" ~count:100
    QCheck.(pair (int_range 0 (Topology.space_size - 1)) (int_range 0 (Topology.space_size - 1)))
    (fun (ia, ib) ->
      QCheck.assume (ia <> ib);
      let ea = Embedding.embed (Topology.of_index ia) in
      let eb = Embedding.embed (Topology.of_index ib) in
      Array.exists2 (fun a b -> Float.abs (a -. b) > 1e-9) ea eb)

(* --- VGAE-BO --- *)

let test_vgae_bo_run () =
  let rng = Rng.create ~seed:21 in
  let config =
    {
      Vgae_bo.default_config with
      Vgae_bo.n_init = 3;
      iterations = 5;
      pool = 30;
      sizing = small_sizing;
    }
  in
  let r = Vgae_bo.run ~config ~rng ~spec:Spec.s1 () in
  Alcotest.(check int) "one step per evaluation" 8 (List.length r.Search.steps);
  Alcotest.(check int) "sims accounted" (8 * 10) r.Search.total_sims;
  let sims =
    List.map (fun (s : Topo_bo.step) -> s.Topo_bo.cumulative_sims) r.Search.steps
  in
  Alcotest.(check bool) "monotone budget" true (List.sort compare sims = sims)

(* --- Pinned fixed-seed runs ---

   Every step of a small run (chosen topology, simulations, FoM, sizing at
   %.17g, cumulative budget, best-so-far), recorded before the search
   bookkeeping moved into [Into_core.Search]: the move must change none of
   it.  On S-4, seed 6 finds its first feasible design during the search
   (both acquisition branches run), seed 4 already in the initial batch and
   improves on it later. *)
let pinned_step_line (s : Topo_bo.step) =
  let g = Printf.sprintf "%.17g" in
  let what =
    match (s.Topo_bo.evaluation, s.Topo_bo.failure, s.Topo_bo.rejection) with
    | Some (e : Evaluator.evaluation), _, _ ->
      Printf.sprintf "E %d %d %s %b %s" (Topology.to_index e.topology) e.n_sims (g e.fom)
        e.feasible
        (String.concat "," (Array.to_list (Array.map g e.sizing)))
    | None, Some f, _ -> "F " ^ Into_core.Fail.to_string f
    | None, None, diags -> Printf.sprintf "R %d" (List.length diags)
  in
  Printf.sprintf "%d|%s|%d|%s\n" s.Topo_bo.iteration what s.Topo_bo.cumulative_sims
    (match s.Topo_bo.best_fom_so_far with None -> "-" | Some f -> g f)

let pin_sizing = { Sizing.default_config with Sizing.n_init = 6; n_iter = 10 }

let check_pin ~digest ~best (r : Search.trace) =
  Alcotest.(check int) "steps" 18 (List.length r.Search.steps);
  Alcotest.(check int) "total sims" (18 * 16) r.Search.total_sims;
  Alcotest.(check string) "steps digest" digest
    (Digest.to_hex (Digest.string (String.concat "" (List.map pinned_step_line r.Search.steps))));
  Alcotest.(check string) "best" best
    (match r.Search.best with
    | None -> "-"
    | Some e -> Printf.sprintf "%d %.17g" (Topology.to_index e.Evaluator.topology) e.Evaluator.fom)

let fe_ga_pin seed =
  Fe_ga.run
    ~config:
      { Fe_ga.default_config with Fe_ga.population = 6; iterations = 12; sizing = pin_sizing }
    ~rng:(Rng.create ~seed) ~spec:(Spec.find "S-4") ()

let vgae_bo_pin seed =
  Vgae_bo.run
    ~config:
      {
        Vgae_bo.default_config with
        Vgae_bo.n_init = 6;
        iterations = 12;
        pool = 30;
        sizing = pin_sizing;
      }
    ~rng:(Rng.create ~seed) ~spec:(Spec.find "S-4") ()

let test_fe_ga_pinned_run () =
  check_pin ~digest:"27d2bd95097f91086ca507d89ebcfb3b" ~best:"27621 2486.839767892182"
    (fe_ga_pin 6);
  check_pin ~digest:"79850229c33ed729ebf57897f1acea64" ~best:"1354 633.33372765724971"
    (fe_ga_pin 4)

let test_vgae_bo_pinned_run () =
  check_pin ~digest:"6ed4c61719d0181c84b82d1021b4c993" ~best:"6366 504.97167332959566"
    (vgae_bo_pin 6);
  check_pin ~digest:"fe6920a174522c00a0ca4742f485867c" ~best:"19480 817.0835542597323"
    (vgae_bo_pin 4)

let () =
  Alcotest.run "into_baselines"
    [
      ( "crossover",
        [
          Alcotest.test_case "identical parents" `Quick test_crossover_identical_parents;
          QCheck_alcotest.to_alcotest prop_crossover_inherits_slots;
        ] );
      ( "fe_ga",
        [
          Alcotest.test_case "run bookkeeping" `Quick test_fe_ga_run;
          Alcotest.test_case "pinned fixed-seed run" `Quick test_fe_ga_pinned_run;
        ] );
      ( "embedding",
        [
          Alcotest.test_case "dimensions" `Quick test_embedding_dims;
          Alcotest.test_case "deterministic" `Quick test_embedding_deterministic;
          QCheck_alcotest.to_alcotest prop_one_hot_is_indicator;
          QCheck_alcotest.to_alcotest prop_embedding_mostly_injective;
        ] );
      ( "vgae_bo",
        [
          Alcotest.test_case "run bookkeeping" `Quick test_vgae_bo_run;
          Alcotest.test_case "pinned fixed-seed run" `Quick test_vgae_bo_pinned_run;
        ] );
    ]
