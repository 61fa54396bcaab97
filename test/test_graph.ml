(* Tests for Into_graph: labeled graphs, the circuit-graph construction of
   Section III-A, WL feature extraction and the WL kernel. *)

module Labeled_graph = Into_graph.Labeled_graph
module Circuit_graph = Into_graph.Circuit_graph
module Wl = Into_graph.Wl
module Wl_kernel = Into_graph.Wl_kernel
module Topology = Into_circuit.Topology
module Subcircuit = Into_circuit.Subcircuit
module Rng = Into_util.Rng

let check_close tol = Alcotest.(check (float tol))

let triangle () =
  Labeled_graph.create ~labels:[| "a"; "b"; "c" |] ~edges:[ (0, 1); (1, 2); (2, 0) ]

(* --- Labeled_graph --- *)

let test_graph_basics () =
  let g = triangle () in
  Alcotest.(check int) "nodes" 3 (Labeled_graph.n_nodes g);
  Alcotest.(check int) "edges" 3 (Labeled_graph.n_edges g);
  Alcotest.(check string) "label" "b" (Labeled_graph.label g 1);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (Labeled_graph.neighbors g 1);
  Alcotest.(check int) "degree" 2 (Labeled_graph.degree g 0);
  Alcotest.(check bool) "has_edge both ways" true
    (Labeled_graph.has_edge g 2 0 && Labeled_graph.has_edge g 0 2)

let test_graph_validation () =
  let mk edges () = ignore (Labeled_graph.create ~labels:[| "a"; "b" |] ~edges) in
  List.iter
    (fun (name, edges) ->
      match mk edges () with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail name)
    [
      ("self loop accepted", [ (0, 0) ]);
      ("duplicate accepted", [ (0, 1); (1, 0) ]);
      ("out of range accepted", [ (0, 5) ]);
    ]

let test_graph_isolated_node () =
  let g = Labeled_graph.create ~labels:[| "a"; "b" |] ~edges:[] in
  Alcotest.(check int) "no edges" 0 (Labeled_graph.n_edges g);
  Alcotest.(check (list int)) "isolated" [] (Labeled_graph.neighbors g 0)

(* --- Circuit_graph --- *)

let test_circuit_graph_bare () =
  let g = Circuit_graph.build (Topology.of_index 0) in
  Alcotest.(check int) "8 nodes" 8 (Labeled_graph.n_nodes g);
  Alcotest.(check int) "6 edges" 6 (Labeled_graph.n_edges g)

let test_circuit_graph_full () =
  (* Every slot connected: 13 nodes, 16 edges - the paper's n<=13, m<=16. *)
  let t =
    Topology.make
      ~vin_v2:(Subcircuit.Gm (Subcircuit.Minus, Subcircuit.Forward))
      ~vin_vout:(Subcircuit.Gm (Subcircuit.Plus, Subcircuit.Forward))
      ~v1_vout:(Subcircuit.Passive (Subcircuit.Rc Subcircuit.Series))
      ~v1_gnd:(Subcircuit.Passive Subcircuit.Single_c)
      ~v2_gnd:(Subcircuit.Passive Subcircuit.Single_r)
  in
  let g = Circuit_graph.build t in
  Alcotest.(check int) "13 nodes" 13 (Labeled_graph.n_nodes g);
  Alcotest.(check int) "16 edges" 16 (Labeled_graph.n_edges g)

let prop_circuit_graph_size =
  QCheck.Test.make ~name:"circuit graph size matches connected slots" ~count:300
    QCheck.(int_range 0 (Topology.space_size - 1))
    (fun idx ->
      let t = Topology.of_index idx in
      let connected =
        List.length
          (List.filter
             (fun s -> not (Subcircuit.equal (Topology.get t s) Subcircuit.No_conn))
             Topology.slots)
      in
      let g = Circuit_graph.build t in
      Labeled_graph.n_nodes g = 8 + connected
      && Labeled_graph.n_edges g = 6 + (2 * connected))

let test_slot_node () =
  let t = Topology.nmc () in
  (match Circuit_graph.slot_node t Topology.V1_vout with
  | Some n ->
    Alcotest.(check string) "slot node label" "RCs" (Labeled_graph.label (Circuit_graph.build t) n)
  | None -> Alcotest.fail "connected slot should have a node");
  Alcotest.(check bool) "unconnected slot has no node" true
    (Circuit_graph.slot_node t Topology.V1_gnd = None)

let test_origins () =
  let t = Topology.nmc () in
  let origins = Circuit_graph.origins t in
  Alcotest.(check int) "origins parallel to nodes"
    (Labeled_graph.n_nodes (Circuit_graph.build t))
    (Array.length origins);
  (match origins.(0) with
  | Circuit_graph.Circuit_node n -> Alcotest.(check string) "vin first" "vin" n
  | Circuit_graph.Fixed_stage _ | Circuit_graph.Variable_slot _ ->
    Alcotest.fail "node 0 should be a circuit node");
  match origins.(8) with
  | Circuit_graph.Variable_slot s ->
    Alcotest.(check string) "slot origin" "v1-vout" (Topology.slot_name s)
  | Circuit_graph.Circuit_node _ | Circuit_graph.Fixed_stage _ ->
    Alcotest.fail "node 8 should be the variable slot"

(* --- WL features --- *)

let test_wl_h0_counts () =
  let dict = Wl.create_dict () in
  let f = Wl.extract dict ~h:0 (triangle ()) in
  Alcotest.(check int) "three features" 3 (List.length (Wl.to_list f));
  List.iter (fun (_, c) -> Alcotest.(check int) "count 1" 1 c) (Wl.to_list f)

let test_wl_total_counts () =
  (* Every node contributes exactly one feature per iteration. *)
  let dict = Wl.create_dict () in
  let g = Circuit_graph.build (Topology.nmc ()) in
  let h = 2 in
  let f = Wl.extract dict ~h g in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Wl.to_list f) in
  Alcotest.(check int) "total = (h+1) * n" ((h + 1) * Labeled_graph.n_nodes g) total

let test_wl_node_feature_ids () =
  let dict = Wl.create_dict () in
  let g = triangle () in
  let rows = Wl.node_feature_ids dict ~h:2 g in
  Alcotest.(check int) "h+1 rows" 3 (Array.length rows);
  Array.iter (fun row -> Alcotest.(check int) "row per node" 3 (Array.length row)) rows;
  Alcotest.(check int) "iteration of base" 0 (Wl.feature_iteration dict rows.(0).(0));
  Alcotest.(check int) "iteration of refined" 2 (Wl.feature_iteration dict rows.(2).(0))

let test_wl_describe () =
  let dict = Wl.create_dict () in
  let g = Labeled_graph.create ~labels:[| "x"; "y"; "z" |] ~edges:[ (0, 1); (0, 2) ] in
  let rows = Wl.node_feature_ids dict ~h:1 g in
  Alcotest.(check string) "base describe" "x" (Wl.describe dict rows.(0).(0));
  Alcotest.(check string) "composed describe" "x(y, z)" (Wl.describe dict rows.(1).(0))

let test_wl_dict_sharing () =
  let dict = Wl.create_dict () in
  let f1 = Wl.extract dict ~h:1 (triangle ()) in
  let f2 = Wl.extract dict ~h:1 (triangle ()) in
  Alcotest.(check bool) "identical features" true (Wl.to_list f1 = Wl.to_list f2)

let test_wl_count_lookup () =
  let dict = Wl.create_dict () in
  let g = Circuit_graph.build (Topology.of_index 0) in
  let f = Wl.extract dict ~h:1 g in
  List.iter
    (fun (id, c) -> Alcotest.(check int) "binary search agrees" c (Wl.count f id))
    (Wl.to_list f);
  Alcotest.(check int) "absent feature" 0 (Wl.count f 999999)

(* --- WL kernel --- *)

let random_topo seed = Topology.of_index (Rng.int (Rng.create ~seed) Topology.space_size)

let prop_kernel_symmetric =
  QCheck.Test.make ~name:"wl kernel is symmetric" ~count:100
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let dict = Wl.create_dict () in
      let f1 = Wl.extract dict ~h:2 (Circuit_graph.build (random_topo s1)) in
      let f2 = Wl.extract dict ~h:2 (Circuit_graph.build (random_topo s2)) in
      Wl_kernel.kernel f1 f2 = Wl_kernel.kernel f2 f1)

let prop_kernel_normalized_bounds =
  QCheck.Test.make ~name:"normalized kernel in [0,1], self = 1" ~count:100
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let dict = Wl.create_dict () in
      let f1 = Wl.extract dict ~h:2 (Circuit_graph.build (random_topo s1)) in
      let f2 = Wl.extract dict ~h:2 (Circuit_graph.build (random_topo s2)) in
      let k = Wl_kernel.normalized f1 f2 in
      k >= 0.0 && k <= 1.0 +. 1e-12 && Float.abs (Wl_kernel.normalized f1 f1 -. 1.0) < 1e-12)

let prop_gram_psd =
  QCheck.Test.make ~name:"wl gram matrix is positive semidefinite" ~count:30
    QCheck.small_int
    (fun seed ->
      let rng = Rng.create ~seed in
      let dict = Wl.create_dict () in
      let feats =
        Array.init 8 (fun _ ->
            Wl.extract dict ~h:1 (Circuit_graph.build (Topology.random rng)))
      in
      let gram = Wl_kernel.gram feats in
      match Into_linalg.Cholesky.decompose_with_jitter gram with
      | _ -> true
      | exception Into_linalg.Cholesky.Not_positive_definite -> false)

let test_kernel_discriminates () =
  let dict = Wl.create_dict () in
  let t1 = Topology.nmc () in
  let t2 = Topology.set t1 Topology.V1_gnd (Subcircuit.Passive Subcircuit.Single_c) in
  let f1 = Wl.extract dict ~h:1 (Circuit_graph.build t1) in
  let f2 = Wl.extract dict ~h:1 (Circuit_graph.build t2) in
  Alcotest.(check bool) "different topologies, kernel < 1" true
    (Wl_kernel.normalized f1 f2 < 1.0 -. 1e-9)

let test_gm_direction_distinguished () =
  (* Forward and backward transconductors must not collapse (undirected
     graph, so the label carries the orientation). *)
  let mk dir =
    Topology.make ~vin_v2:Subcircuit.No_conn ~vin_vout:Subcircuit.No_conn
      ~v1_vout:(Subcircuit.Gm (Subcircuit.Minus, dir))
      ~v1_gnd:Subcircuit.No_conn ~v2_gnd:Subcircuit.No_conn
  in
  let dict = Wl.create_dict () in
  let ff = Wl.extract dict ~h:0 (Circuit_graph.build (mk Subcircuit.Forward)) in
  let fb = Wl.extract dict ~h:0 (Circuit_graph.build (mk Subcircuit.Backward)) in
  Alcotest.(check bool) "directions differ" true (Wl.to_list ff <> Wl.to_list fb)

let test_cross () =
  let dict = Wl.create_dict () in
  let feats =
    Array.init 4 (fun i -> Wl.extract dict ~h:1 (Circuit_graph.build (random_topo i)))
  in
  let q = feats.(2) in
  let ks = Wl_kernel.cross feats q in
  Alcotest.(check int) "length" 4 (Array.length ks);
  check_close 1e-12 "self entry is 1" 1.0 ks.(2)


let test_dict_growth () =
  let dict = Wl.create_dict () in
  Alcotest.(check int) "empty dict" 0 (Wl.dict_size dict);
  let _ = Wl.extract dict ~h:0 (triangle ()) in
  Alcotest.(check int) "three base labels" 3 (Wl.dict_size dict);
  let _ = Wl.extract dict ~h:1 (triangle ()) in
  let after_h1 = Wl.dict_size dict in
  Alcotest.(check bool) "h=1 adds composed labels" true (after_h1 > 3);
  (* Re-extracting the same graph adds nothing. *)
  let _ = Wl.extract dict ~h:1 (triangle ()) in
  Alcotest.(check int) "idempotent" after_h1 (Wl.dict_size dict)

let test_negative_h_rejected () =
  let dict = Wl.create_dict () in
  match Wl.extract dict ~h:(-1) (triangle ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative h accepted"

let prop_deeper_h_never_less_similar_to_self =
  QCheck.Test.make ~name:"kernel with more iterations still discriminates" ~count:50
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let t1 = random_topo s1 and t2 = random_topo s2 in
      QCheck.assume (not (Topology.equal t1 t2));
      let dict = Wl.create_dict () in
      let k h =
        Wl_kernel.normalized
          (Wl.extract dict ~h (Circuit_graph.build t1))
          (Wl.extract dict ~h (Circuit_graph.build t2))
      in
      (* Deeper refinement cannot make two distinct graphs look more alike. *)
      k 2 <= k 0 +. 1e-9)

(* --- shared work is bit-identical --- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
let listing dict = List.init (Wl.dict_size dict) (Wl.describe dict)

(* A graph queried at several h through one pass gives [extract]'s feature
   vectors (and the counts of its relabelling rows) and leaves the
   dictionary as separate extractions would. *)
let prop_one_pass_extraction =
  QCheck.Test.make ~name:"one-pass extraction = extract at every h" ~count:100
    QCheck.(pair small_int (list_of_size (Gen.int_range 1 6) (int_range 0 4)))
    (fun (seed, hs) ->
      let rng = Rng.create ~seed in
      let graphs = List.init 3 (fun _ -> Circuit_graph.build (Topology.random rng)) in
      let d_pass = Wl.create_dict () and d_extract = Wl.create_dict () in
      List.for_all
        (fun g ->
          let p = Wl.pass d_pass g in
          List.for_all
            (fun h ->
              let f = Wl.features_at p ~h in
              let rows = Wl.node_feature_ids d_pass ~h g in
              let counted =
                List.sort compare
                  (List.concat_map Array.to_list (Array.to_list rows))
                |> List.fold_left
                     (fun acc id ->
                       match acc with
                       | (id', c) :: rest when id' = id -> (id, c + 1) :: rest
                       | _ -> (id, 1) :: acc)
                     []
                |> List.rev
              in
              Wl.to_list f = Wl.to_list (Wl.extract d_extract ~h g) && Wl.to_list f = counted)
            hs)
        graphs
      && listing d_pass = listing d_extract)

let prop_index_row_is_cross =
  QCheck.Test.make ~name:"inverted-index kernel row = cross, bit for bit" ~count:60
    QCheck.(triple small_int (int_range 1 20) (int_range 0 3))
    (fun (seed, n, h) ->
      let rng = Rng.create ~seed in
      let dict = Wl.create_dict () in
      let feats =
        Array.init n (fun _ -> Wl.extract dict ~h (Circuit_graph.build (Topology.random rng)))
      in
      let ix = Wl_kernel.index feats in
      (* Queries include training graphs and graphs whose features were
         registered after the index was built. *)
      let queries =
        Array.append feats
          (Array.init 10 (fun _ ->
               Wl.extract dict ~h:(Rng.int rng 4) (Circuit_graph.build (Topology.random rng))))
      in
      Array.for_all
        (fun q ->
          let row = Wl_kernel.cross_indexed ix q and expected = Wl_kernel.cross feats q in
          Array.length row = Array.length expected && Array.for_all2 same_float row expected)
        queries)

let prop_gram_is_normalized_kernel =
  QCheck.Test.make ~name:"gram entries = normalized kernel, bit for bit" ~count:30
    QCheck.(pair small_int (int_range 1 15))
    (fun (seed, n) ->
      let rng = Rng.create ~seed in
      let dict = Wl.create_dict () in
      let feats =
        Array.init n (fun _ -> Wl.extract dict ~h:2 (Circuit_graph.build (Topology.random rng)))
      in
      let gram = Wl_kernel.gram feats in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let a = min i j and b = max i j in
          if not (same_float (Into_linalg.Mat.get gram i j) (Wl_kernel.normalized feats.(a) feats.(b)))
          then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "into_graph"
    [
      ( "labeled_graph",
        [
          Alcotest.test_case "basics" `Quick test_graph_basics;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "isolated node" `Quick test_graph_isolated_node;
        ] );
      ( "circuit_graph",
        [
          Alcotest.test_case "bare topology" `Quick test_circuit_graph_bare;
          Alcotest.test_case "full topology (n=13, m=16)" `Quick test_circuit_graph_full;
          Alcotest.test_case "slot node lookup" `Quick test_slot_node;
          Alcotest.test_case "origins" `Quick test_origins;
          QCheck_alcotest.to_alcotest prop_circuit_graph_size;
        ] );
      ( "wl",
        [
          Alcotest.test_case "h=0 label counts" `Quick test_wl_h0_counts;
          Alcotest.test_case "total counts per iteration" `Quick test_wl_total_counts;
          Alcotest.test_case "node feature ids" `Quick test_wl_node_feature_ids;
          Alcotest.test_case "describe" `Quick test_wl_describe;
          Alcotest.test_case "dict sharing" `Quick test_wl_dict_sharing;
          Alcotest.test_case "count lookup" `Quick test_wl_count_lookup;
          Alcotest.test_case "dict growth" `Quick test_dict_growth;
          Alcotest.test_case "negative h rejected" `Quick test_negative_h_rejected;
          QCheck_alcotest.to_alcotest prop_deeper_h_never_less_similar_to_self;
        ] );
      ( "wl_kernel",
        [
          Alcotest.test_case "discriminates structures" `Quick test_kernel_discriminates;
          Alcotest.test_case "gm direction distinguished" `Quick test_gm_direction_distinguished;
          Alcotest.test_case "cross vector" `Quick test_cross;
          QCheck_alcotest.to_alcotest prop_kernel_symmetric;
          QCheck_alcotest.to_alcotest prop_kernel_normalized_bounds;
          QCheck_alcotest.to_alcotest prop_gram_psd;
        ] );
      ( "shared work",
        [
          QCheck_alcotest.to_alcotest prop_one_pass_extraction;
          QCheck_alcotest.to_alcotest prop_index_row_is_cross;
          QCheck_alcotest.to_alcotest prop_gram_is_normalized_kernel;
        ] );
    ]
