(* Tests for Into_gp: generic GP regression, the RBF kernel and the
   WL-kernel GP over circuit graphs with its analytic feature gradient. *)

module Gp = Into_gp.Gp
module Rbf = Into_gp.Rbf
module Wl_gp = Into_gp.Wl_gp
module Mat = Into_linalg.Mat
module Wl = Into_graph.Wl
module Circuit_graph = Into_graph.Circuit_graph
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Rng = Into_util.Rng
module Rbf_gp = Into_gp.Rbf_gp
module Cholesky = Into_linalg.Cholesky

let check_close tol = Alcotest.(check (float tol))

(* --- Rbf --- *)

let test_rbf_bounds () =
  let a = [| 0.1; 0.2 |] and b = [| 0.9; 0.8 |] in
  check_close 1e-12 "self kernel" 1.0 (Rbf.kernel ~lengthscale:0.5 a a);
  let k = Rbf.kernel ~lengthscale:0.5 a b in
  Alcotest.(check bool) "in (0,1)" true (k > 0.0 && k < 1.0);
  Alcotest.(check bool) "shorter lengthscale decays faster" true
    (Rbf.kernel ~lengthscale:0.1 a b < k)

let test_rbf_gram () =
  let xs = [| [| 0.0 |]; [| 1.0 |]; [| 2.0 |] |] in
  let g = Rbf.gram ~lengthscale:1.0 xs in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric g);
  check_close 1e-12 "unit diagonal" 1.0 (Mat.get g 1 1);
  check_close 1e-12 "cross matches kernel" (Rbf.kernel ~lengthscale:1.0 xs.(0) xs.(2))
    (Mat.get g 0 2)

let test_rbf_invalid () =
  match Rbf.kernel ~lengthscale:0.0 [| 1.0 |] [| 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero lengthscale accepted"

(* --- Gp --- *)

let fit_1d xs ys ~noise =
  let pts = Array.map (fun x -> [| x |]) xs in
  let gram = Rbf.gram ~lengthscale:0.5 pts in
  (Gp.fit ~gram ~y:ys ~signal:1.0 ~noise, pts)

let test_gp_interpolates () =
  let xs = [| 0.0; 0.5; 1.0; 1.5 |] in
  let ys = Array.map (fun x -> sin x) xs in
  let gp, pts = fit_1d xs ys ~noise:1e-8 in
  Array.iteri
    (fun i x ->
      let k_star = Rbf.cross ~lengthscale:0.5 pts [| x |] in
      let mean, var = Gp.predict gp ~k_star ~k_self:1.0 in
      check_close 1e-3 "mean interpolates" ys.(i) mean;
      Alcotest.(check bool) "small variance at data" true (var < 1e-4))
    xs

let test_gp_reverts_to_prior () =
  let xs = [| 0.0; 0.1 |] in
  let ys = [| 5.0; 5.2 |] in
  let gp, pts = fit_1d xs ys ~noise:1e-6 in
  let k_star = Rbf.cross ~lengthscale:0.5 pts [| 100.0 |] in
  let mean, var = Gp.predict gp ~k_star ~k_self:1.0 in
  (* Far away: mean reverts to the data mean, variance to the signal. *)
  check_close 1e-6 "prior mean" (Gp.y_mean gp) mean;
  Alcotest.(check bool) "large variance far away" true (var > 0.5 *. Gp.y_std gp ** 2.0)

let test_gp_lml_prefers_fitting_noise () =
  (* Noisy targets: a model with matching noise has a higher marginal
     likelihood than a near-interpolating one. *)
  let rng = Rng.create ~seed:21 in
  let xs = Array.init 20 (fun i -> float_of_int i /. 19.0) in
  let ys = Array.map (fun x -> x +. (0.5 *. Rng.gaussian rng)) xs in
  let noisy, _ = fit_1d xs ys ~noise:0.25 in
  let interp, _ = fit_1d xs ys ~noise:1e-8 in
  Alcotest.(check bool) "noise model wins" true
    (Gp.log_marginal_likelihood noisy > Gp.log_marginal_likelihood interp)

let test_gp_invalid_args () =
  let gram = Rbf.gram ~lengthscale:1.0 [| [| 0.0 |] |] in
  (match Gp.fit ~gram ~y:[||] ~signal:1.0 ~noise:1e-3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty data accepted");
  match Gp.fit ~gram ~y:[| 1.0 |] ~signal:(-1.0) ~noise:1e-3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative signal accepted"

let test_gp_variance_nonnegative () =
  let xs = [| 0.0; 1e-9 |] in
  (* Nearly duplicated points stress the numerics. *)
  let gp, pts = fit_1d xs [| 1.0; 1.0 |] ~noise:1e-6 in
  let k_star = Rbf.cross ~lengthscale:0.5 pts [| 0.0 |] in
  let _, var = Gp.predict gp ~k_star ~k_self:1.0 in
  Alcotest.(check bool) "variance >= 0" true (var >= 0.0)

(* --- Wl_gp --- *)

(* A synthetic learning problem on graphs: y counts the capacitors in the
   topology, so features containing capacitor labels must carry positive
   gradient. *)
let capacitor_count t =
  List.fold_left
    (fun acc slot ->
      match Topology.get t slot with
      | Subcircuit.Passive Subcircuit.Single_c -> acc + 1
      | _ -> acc)
    0 Topology.slots

let toy_dataset n seed =
  let rng = Rng.create ~seed in
  let topos = Array.init n (fun _ -> Topology.random rng) in
  let graphs = Array.map Circuit_graph.build topos in
  let y = Array.map (fun t -> float_of_int (capacitor_count t)) topos in
  (topos, graphs, y)

let test_wl_gp_fit_predict () =
  let _, graphs, y = toy_dataset 30 31 in
  let dict = Wl.create_dict () in
  let model = Wl_gp.fit ~dict ~graphs ~y () in
  Alcotest.(check bool) "h selected from candidates" true
    (List.mem (Wl_gp.h model) Wl_gp.default_h_candidates);
  (* Prediction at a training point is close for a smooth target. *)
  let mean, var = Wl_gp.predict model graphs.(0) in
  Alcotest.(check bool) "variance finite and nonnegative" true (var >= 0.0);
  Alcotest.(check bool) "prediction in data range" true (mean > -1.0 && mean < 6.0)

let test_wl_gp_learns_capacitors () =
  let topos, graphs, y = toy_dataset 40 32 in
  let dict = Wl.create_dict () in
  let model =
    Wl_gp.fit ~h_candidates:[ 0 ] ~noise_candidates:[ 1e-3 ] ~signal_candidates:[ 1.0 ]
      ~dict ~graphs ~y ()
  in
  (* Compare predictions for a low- vs high-capacitor topology. *)
  let with_c =
    Topology.make ~vin_v2:Subcircuit.No_conn ~vin_vout:Subcircuit.No_conn
      ~v1_vout:(Subcircuit.Passive Subcircuit.Single_c)
      ~v1_gnd:(Subcircuit.Passive Subcircuit.Single_c)
      ~v2_gnd:(Subcircuit.Passive Subcircuit.Single_c)
  in
  let without_c = Topology.of_index 0 in
  let m_hi, _ = Wl_gp.predict model (Circuit_graph.build with_c) in
  let m_lo, _ = Wl_gp.predict model (Circuit_graph.build without_c) in
  Alcotest.(check bool)
    (Printf.sprintf "more capacitors predict higher (%.2f > %.2f)" m_hi m_lo)
    true (m_hi > m_lo);
  ignore topos

let test_wl_gp_gradient_sign () =
  let _, graphs, y = toy_dataset 40 33 in
  let dict = Wl.create_dict () in
  let model =
    Wl_gp.fit ~h_candidates:[ 0 ] ~noise_candidates:[ 1e-3 ] ~signal_candidates:[ 1.0 ]
      ~dict ~graphs ~y ()
  in
  let probe =
    Topology.make ~vin_v2:Subcircuit.No_conn ~vin_vout:Subcircuit.No_conn
      ~v1_vout:(Subcircuit.Passive Subcircuit.Single_c)
      ~v1_gnd:(Subcircuit.Passive Subcircuit.Single_r)
      ~v2_gnd:Subcircuit.No_conn
  in
  let g = Circuit_graph.build probe in
  let rows = Wl.node_feature_ids dict ~h:0 g in
  let node_of label =
    let rec find i =
      if Into_graph.Labeled_graph.label g i = label then i else find (i + 1)
    in
    find 0
  in
  let grad_c = Wl_gp.feature_gradient model g ~feature_id:rows.(0).(node_of "C") in
  let grad_r = Wl_gp.feature_gradient model g ~feature_id:rows.(0).(node_of "R") in
  Alcotest.(check bool)
    (Printf.sprintf "capacitor feature gradient dominates (%.3f > %.3f)" grad_c grad_r)
    true (grad_c > grad_r)

let test_wl_gp_present_gradients () =
  let _, graphs, y = toy_dataset 15 34 in
  let dict = Wl.create_dict () in
  let model = Wl_gp.fit ~dict ~graphs ~y () in
  let grads = Wl_gp.present_feature_gradients model graphs.(3) in
  let feats = Wl.to_list (Wl_gp.features_of model graphs.(3)) in
  Alcotest.(check int) "one gradient per present feature" (List.length feats)
    (List.length grads)

let test_wl_gp_rejects_empty () =
  let dict = Wl.create_dict () in
  match Wl_gp.fit ~dict ~graphs:[||] ~y:[||] () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty data accepted"

let test_wl_gp_single_point () =
  (* One observation: degenerate but must not crash (used early in BO). *)
  let dict = Wl.create_dict () in
  let g = Circuit_graph.build (Topology.nmc ()) in
  let model = Wl_gp.fit ~dict ~graphs:[| g |] ~y:[| 3.0 |] () in
  let mean, _ = Wl_gp.predict model g in
  check_close 0.5 "predicts the sole observation" 3.0 mean


(* --- shared work is bit-identical --------------------------------------

   The surrogates of one BO loop share the target-independent half of
   every fit and prediction.  These properties compare the shared paths
   against independent, per-model computations with no tolerance: floats
   are compared by their bit patterns. *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let same_pair (m1, v1) (m2, v2) = same_float m1 m2 && same_float v1 v2
let same_floats a b = Array.length a = Array.length b && Array.for_all2 same_float a b

(* Fit and predict written out in one piece, one model at a time: the
   reference arithmetic the prior/condition split must reproduce. *)
let reference_fit ~gram ~y ~signal ~noise =
  let n = Array.length y in
  let z, y_mean, y_std = Into_util.Stats.normalize y in
  let cov = Mat.add_diagonal (Mat.scale signal gram) noise in
  let chol, _ = Cholesky.decompose_with_jitter cov in
  let alpha = Cholesky.solve chol z in
  let lml =
    (-0.5 *. Into_linalg.Vec.dot z alpha)
    -. (0.5 *. Cholesky.log_det chol)
    -. (0.5 *. float_of_int n *. log (2.0 *. Float.pi))
  in
  let predict ~k_star ~k_self =
    let ks = Array.map (fun k -> signal *. k) k_star in
    let mean_z = Into_linalg.Vec.dot ks alpha in
    let v = Cholesky.solve_lower chol ks in
    let var_z = Float.max ((signal *. k_self) +. noise -. Into_linalg.Vec.dot v v) 0.0 in
    ((mean_z *. y_std) +. y_mean, var_z *. y_std *. y_std)
  in
  (alpha, y_mean, y_std, lml, predict)

let random_points rng n d = Array.init n (fun _ -> Array.init d (fun _ -> Rng.float rng))

let random_targets rng ~count n =
  Array.init count (fun t ->
      Array.init n (fun _ -> (float_of_int t *. 10.0) +. (3.0 *. Rng.gaussian rng)))

let prop_condition_prior_is_fit =
  QCheck.Test.make ~name:"condition of a shared prior = reference fit, bit for bit" ~count:60
    QCheck.(triple small_int (int_range 1 12) (int_range 0 3))
    (fun (seed, n, grid) ->
      let rng = Rng.create ~seed in
      let xs = random_points rng n 3 in
      let lengthscale = List.nth [ 0.1; 0.3; 0.7; 2.0 ] grid in
      let noise = List.nth [ 1e-6; 1e-4; 1e-2; 0.5 ] grid in
      let signal = List.nth [ 0.5; 1.0; 2.0; 1.0 ] grid in
      let gram = Rbf.gram ~lengthscale xs in
      let prior = Gp.prior ~gram ~signal ~noise in
      let queries = random_points rng 4 3 in
      Array.for_all
        (fun y ->
          let gp = Gp.condition prior ~y in
          let alpha, y_mean, y_std, lml, predict = reference_fit ~gram ~y ~signal ~noise in
          let fitted = Gp.fit ~gram ~y ~signal ~noise in
          same_floats (Gp.alpha gp) alpha
          && same_float (Gp.y_mean gp) y_mean
          && same_float (Gp.y_std gp) y_std
          && same_float (Gp.log_marginal_likelihood gp) lml
          && same_float (Gp.log_marginal_likelihood fitted) lml
          && Array.for_all
               (fun u ->
                 let k_star = Rbf.cross ~lengthscale xs u in
                 let expected = predict ~k_star ~k_self:1.0 in
                 same_pair (Gp.predict gp ~k_star ~k_self:1.0) expected
                 && same_pair (Gp.posterior gp (Gp.query prior ~k_star ~k_self:1.0)) expected)
               queries)
        (random_targets rng ~count:5 n))

(* The per-model grid search: a gram and a factorization for every model
   at every grid point. *)
let reference_select ~lengthscales ~noises xs ys =
  Array.map
    (fun y ->
      let best = ref None in
      List.iter
        (fun l ->
          let gram = Rbf.gram ~lengthscale:l xs in
          List.iter
            (fun noise ->
              match Gp.fit ~gram ~y ~signal:1.0 ~noise with
              | gp -> (
                let lml = Gp.log_marginal_likelihood gp in
                match !best with
                | Some (_, _, b) when b >= lml -> ()
                | Some _ | None -> best := Some (l, noise, lml))
              | exception Cholesky.Not_positive_definite -> ())
            noises)
        lengthscales;
      Option.map (fun (l, noise, _) -> (l, noise)) !best)
    ys

let prop_rbf_grid_shared =
  QCheck.Test.make ~name:"shared rbf grid = per-model grid and fits" ~count:40
    QCheck.(pair small_int (int_range 2 25))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let xs = random_points rng n 4 in
      let ys = random_targets rng ~count:5 n in
      let lengthscales = [ 0.2; 0.5; 1.0; 2.0 ] and noises = [ 1e-4; 1e-2 ] in
      let current = Array.make 5 (1.0, 1e-2) in
      let hyper = Rbf_gp.select ~lengthscales ~noises ~current xs ys in
      hyper
      = Array.map2
          (fun picked kept -> Option.value picked ~default:kept)
          (reference_select ~lengthscales ~noises xs ys)
          current
      &&
      let models = Rbf_gp.fit xs ys ~hyper in
      Array.for_all
        (fun u ->
          let predict = Rbf_gp.predictor models u in
          Array.for_all
            (fun m ->
              let l, noise = hyper.(m) in
              let gp = Gp.fit ~gram:(Rbf.gram ~lengthscale:l xs) ~y:ys.(m) ~signal:1.0 ~noise in
              match predict m with
              | Some p -> same_pair p (Gp.predict gp ~k_star:(Rbf.cross ~lengthscale:l xs u) ~k_self:1.0)
              | None -> false)
            (Array.init 5 Fun.id))
        (random_points rng 6 4))

let listing dict = List.init (Wl.dict_size dict) (Wl.describe dict)

(* Five targets of different character over one graph set, as the outer
   BO's metric and FoM surrogates. *)
let wl_targets rng topos =
  Array.init 5 (fun t ->
      Array.map
        (fun topo ->
          if t = 0 then float_of_int (capacitor_count topo)
          else (float_of_int (t * capacitor_count topo)) +. Rng.gaussian rng)
        topos)

let same_model a b =
  Wl_gp.h a = Wl_gp.h b
  && same_float (Gp.noise (Wl_gp.gp a)) (Gp.noise (Wl_gp.gp b))
  && same_float (Gp.signal (Wl_gp.gp a)) (Gp.signal (Wl_gp.gp b))
  && same_float (Wl_gp.log_marginal_likelihood a) (Wl_gp.log_marginal_likelihood b)

(* Fits the targets and predicts the query graphs twice, on two fresh
   dictionaries: through the shared paths, and one model at a time.  Models,
   predictions and the final dictionaries must agree exactly. *)
let shared_matches_separate ~searches ~graphs ~ys ~queries =
  let d_shared = Wl.create_dict () and d_separate = Wl.create_dict () in
  let shared = Wl_gp.fit_many ~dict:d_shared ~graphs (List.combine searches (Array.to_list ys)) in
  let separate =
    List.map2
      (fun (s : Wl_gp.search) y ->
        Wl_gp.fit ~h_candidates:s.h_candidates ~noise_candidates:s.noise_candidates
          ~signal_candidates:s.signal_candidates ~dict:d_separate ~graphs ~y ())
      searches (Array.to_list ys)
  in
  List.for_all2 same_model shared separate
  && Array.for_all
       (fun g ->
         List.for_all2 same_pair (Wl_gp.predict_many shared g)
           (List.map (fun m -> Wl_gp.predict m g) separate))
       queries
  && listing d_shared = listing d_separate

let prop_wl_fit_many_full =
  QCheck.Test.make ~name:"multi-target wl fit (full search) = per-target fits" ~count:15
    QCheck.(pair small_int (int_range 2 18))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let topos = Array.init n (fun _ -> Topology.random rng) in
      let ys = wl_targets rng topos in
      let queries = Array.init 8 (fun _ -> Circuit_graph.build (Topology.random rng)) in
      shared_matches_separate
        ~searches:(List.init 5 (fun _ -> Wl_gp.default_search))
        ~graphs:(Array.map Circuit_graph.build topos) ~ys ~queries)

let prop_wl_fit_many_fixed =
  QCheck.Test.make ~name:"multi-target wl refit (fixed hyperparameters) = per-target fits"
    ~count:30
    QCheck.(pair small_int (int_range 2 18))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let topos = Array.init n (fun _ -> Topology.random rng) in
      let ys = wl_targets rng topos in
      let pick l = List.nth l (Rng.int rng (List.length l)) in
      let searches =
        List.init 5 (fun _ ->
            Wl_gp.fixed ~h:(Rng.int rng 4)
              ~noise:(pick Wl_gp.default_search.noise_candidates)
              ~signal:(pick Wl_gp.default_search.signal_candidates))
      in
      let queries = Array.init 8 (fun _ -> Circuit_graph.build (Topology.random rng)) in
      shared_matches_separate ~searches ~graphs:(Array.map Circuit_graph.build topos) ~ys
        ~queries)

(* Subsets of the models, in any order, as the acquisition asks for them
   (the FoM model only once a feasible design exists). *)
let prop_wl_predict_many_subsets =
  QCheck.Test.make ~name:"multi-model predict = predict per model, any subset" ~count:30
    QCheck.(pair small_int (int_range 2 15))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let topos = Array.init n (fun _ -> Topology.random rng) in
      let graphs = Array.map Circuit_graph.build topos in
      let ys = wl_targets rng topos in
      let fit dict =
        Wl_gp.fit_many ~dict ~graphs
          (List.map (fun y -> (Wl_gp.default_search, y)) (Array.to_list ys))
      in
      let d1 = Wl.create_dict () and d2 = Wl.create_dict () in
      let m1 = Array.of_list (fit d1) and m2 = Array.of_list (fit d2) in
      List.for_all
        (fun _ ->
          let picks = List.filter (fun _ -> Rng.float rng < 0.6) [ 0; 1; 2; 3; 4 ] in
          let picks = if Rng.float rng < 0.5 then List.rev picks else picks in
          let g = Circuit_graph.build (Topology.random rng) in
          List.for_all2 same_pair
            (Wl_gp.predict_many (List.map (fun i -> m1.(i)) picks) g)
            (List.map (fun i -> Wl_gp.predict m2.(i) g) picks))
        (List.init 10 Fun.id)
      && listing d1 = listing d2)


(* --- additional edge cases --- *)

let prop_rbf_gram_psd =
  QCheck.Test.make ~name:"rbf gram is positive semidefinite" ~count:50
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let xs = Array.init n (fun _ -> Array.init 3 (fun _ -> Rng.float rng)) in
      let gram = Rbf.gram ~lengthscale:0.7 xs in
      match Into_linalg.Cholesky.decompose_with_jitter gram with
      | _ -> true
      | exception Into_linalg.Cholesky.Not_positive_definite -> false)

let test_predict_dimension_mismatch () =
  let gp, _ = fit_1d [| 0.0; 1.0 |] [| 0.0; 1.0 |] ~noise:1e-3 in
  match Gp.predict gp ~k_star:[| 1.0 |] ~k_self:1.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong k_star length accepted"

let test_wl_gp_fixed_h_respected () =
  let _, graphs, y = toy_dataset 12 77 in
  let dict = Wl.create_dict () in
  let m0 = Wl_gp.fit ~h_candidates:[ 0 ] ~dict ~graphs ~y () in
  let m2 = Wl_gp.fit ~h_candidates:[ 2 ] ~dict ~graphs ~y () in
  Alcotest.(check int) "h forced to 0" 0 (Wl_gp.h m0);
  Alcotest.(check int) "h forced to 2" 2 (Wl_gp.h m2)

let test_wl_gp_deterministic () =
  let _, graphs, y = toy_dataset 15 78 in
  let fit () =
    let dict = Wl.create_dict () in
    let m = Wl_gp.fit ~dict ~graphs ~y () in
    Wl_gp.predict m graphs.(0)
  in
  let a1, v1 = fit () and a2, v2 = fit () in
  Alcotest.(check (float 1e-12)) "same mean" a1 a2;
  Alcotest.(check (float 1e-12)) "same variance" v1 v2

let () =
  Alcotest.run "into_gp"
    [
      ( "rbf",
        [
          Alcotest.test_case "bounds" `Quick test_rbf_bounds;
          Alcotest.test_case "gram" `Quick test_rbf_gram;
          Alcotest.test_case "invalid lengthscale" `Quick test_rbf_invalid;
          QCheck_alcotest.to_alcotest prop_rbf_gram_psd;
        ] );
      ( "gp",
        [
          Alcotest.test_case "interpolates noiseless data" `Quick test_gp_interpolates;
          Alcotest.test_case "reverts to prior far away" `Quick test_gp_reverts_to_prior;
          Alcotest.test_case "lml model selection" `Quick test_gp_lml_prefers_fitting_noise;
          Alcotest.test_case "invalid arguments" `Quick test_gp_invalid_args;
          Alcotest.test_case "variance clamped" `Quick test_gp_variance_nonnegative;
          Alcotest.test_case "k_star dimension check" `Quick test_predict_dimension_mismatch;
        ] );
      ( "wl_gp",
        [
          Alcotest.test_case "fit and predict" `Quick test_wl_gp_fit_predict;
          Alcotest.test_case "learns capacitor counting" `Quick test_wl_gp_learns_capacitors;
          Alcotest.test_case "gradient sign (Eq. 5)" `Quick test_wl_gp_gradient_sign;
          Alcotest.test_case "gradients for present features" `Quick test_wl_gp_present_gradients;
          Alcotest.test_case "rejects empty data" `Quick test_wl_gp_rejects_empty;
          Alcotest.test_case "single observation" `Quick test_wl_gp_single_point;
          Alcotest.test_case "fixed h respected" `Quick test_wl_gp_fixed_h_respected;
          Alcotest.test_case "deterministic fit" `Quick test_wl_gp_deterministic;
        ] );
      ( "shared work",
        [
          QCheck_alcotest.to_alcotest prop_condition_prior_is_fit;
          QCheck_alcotest.to_alcotest prop_rbf_grid_shared;
          QCheck_alcotest.to_alcotest prop_wl_fit_many_full;
          QCheck_alcotest.to_alcotest prop_wl_fit_many_fixed;
          QCheck_alcotest.to_alcotest prop_wl_predict_many_subsets;
        ] );
    ]
