(* Unit and property tests for Into_linalg: vectors, matrices, Cholesky,
   complex LU and eigenvalues. *)

module Vec = Into_linalg.Vec
module Mat = Into_linalg.Mat
module Cholesky = Into_linalg.Cholesky
module Lu = Into_linalg.Lu
module Cmat = Into_linalg.Cmat

let check_close tol = Alcotest.(check (float tol))

(* Random SPD matrix A = B^T B + I from a flat list of entries. *)
let spd_of_entries n entries =
  let b = Mat.init n n (fun i j -> List.nth entries ((i * n) + j)) in
  Mat.add_diagonal (Mat.mul (Mat.transpose b) b) 1.0

let entries_gen n =
  QCheck.(list_of_size (Gen.return (n * n)) (float_range (-2.0) 2.0))

let vec_gen n = QCheck.(list_of_size (Gen.return n) (float_range (-5.0) 5.0))

(* --- Vec --- *)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 4.0; 5.0; 6.0 |] in
  check_close 1e-12 "dot" 32.0 (Vec.dot a b);
  check_close 1e-12 "norm2" (sqrt 14.0) (Vec.norm2 a);
  Alcotest.(check (array (float 1e-12))) "add" [| 5.0; 7.0; 9.0 |] (Vec.add a b);
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] (Vec.sub a b);
  Alcotest.(check (array (float 1e-12))) "scale" [| 2.0; 4.0; 6.0 |] (Vec.scale 2.0 a);
  let y = Array.copy b in
  Vec.axpy 2.0 a y;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] y;
  check_close 1e-12 "max_abs_diff" 3.0 (Vec.max_abs_diff a b);
  Alcotest.check_raises "dim mismatch" (Invalid_argument "Vec: dimension mismatch")
    (fun () -> ignore (Vec.dot a [| 1.0 |]))

(* --- Mat --- *)

let test_mat_basics () =
  let m = Mat.init 2 3 (fun i j -> float_of_int ((i * 3) + j)) in
  Alcotest.(check int) "rows" 2 (Mat.rows m);
  Alcotest.(check int) "cols" 3 (Mat.cols m);
  check_close 1e-12 "get" 5.0 (Mat.get m 1 2);
  let t = Mat.transpose m in
  check_close 1e-12 "transpose" 5.0 (Mat.get t 2 1);
  let i3 = Mat.identity 3 in
  check_close 1e-12 "identity mul" 0.0 (Mat.max_abs_diff (Mat.mul m i3) m);
  let v = Mat.mul_vec m [| 1.0; 1.0; 1.0 |] in
  Alcotest.(check (array (float 1e-12))) "mul_vec" [| 3.0; 12.0 |] v

let test_mat_symmetric () =
  let s = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 3.0 |] |] in
  Alcotest.(check bool) "symmetric" true (Mat.is_symmetric s);
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 0.0; 3.0 |] |] in
  Alcotest.(check bool) "asymmetric" false (Mat.is_symmetric a)

let test_add_diagonal () =
  let m = Mat.identity 2 in
  let j = Mat.add_diagonal m 0.5 in
  check_close 1e-12 "diagonal bumped" 1.5 (Mat.get j 0 0);
  check_close 1e-12 "original untouched" 1.0 (Mat.get m 0 0)

(* --- Cholesky --- *)

let prop_cholesky_reconstruction =
  QCheck.Test.make ~name:"cholesky: L L^T = A" ~count:50 (entries_gen 4)
    (fun entries ->
      QCheck.assume (List.length entries = 16);
      let a = spd_of_entries 4 entries in
      let ch = Cholesky.decompose a in
      let l = Cholesky.lower ch in
      Mat.max_abs_diff (Mat.mul l (Mat.transpose l)) a < 1e-8)

let prop_cholesky_solve =
  QCheck.Test.make ~name:"cholesky: A x = b round trip" ~count:50
    QCheck.(pair (entries_gen 4) (vec_gen 4))
    (fun (entries, b) ->
      QCheck.assume (List.length entries = 16 && List.length b = 4);
      let a = spd_of_entries 4 entries in
      let x = Cholesky.solve (Cholesky.decompose a) (Array.of_list b) in
      Vec.max_abs_diff (Mat.mul_vec a x) (Array.of_list b) < 1e-7)

let test_cholesky_not_pd () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "indefinite rejected" Cholesky.Not_positive_definite (fun () ->
      ignore (Cholesky.decompose a))

let test_cholesky_jitter () =
  (* Rank-deficient PSD matrix: jitter must rescue it. *)
  let a = Mat.of_rows [| [| 1.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  let _, jitter = Cholesky.decompose_with_jitter a in
  Alcotest.(check bool) "jitter applied" true (jitter > 0.0);
  let good = Mat.identity 3 in
  let _, j2 = Cholesky.decompose_with_jitter good in
  check_close 1e-15 "no jitter when PD" 0.0 j2

let test_cholesky_logdet () =
  let a = Mat.of_rows [| [| 4.0; 0.0 |]; [| 0.0; 9.0 |] |] in
  check_close 1e-10 "log det" (log 36.0) (Cholesky.log_det (Cholesky.decompose a))

(* --- LU --- *)

let cx re im = { Complex.re; im }

(* Factor a complex matrix given as rows of [Complex.t] and solve one
   right-hand side. *)
let lu_solve rows b =
  let n = Array.length rows in
  let t = Lu.create n in
  Array.iteri
    (fun i row -> Array.iteri (fun j z -> Lu.add t i j z.Complex.re z.Complex.im) row)
    rows;
  Lu.factor t;
  let re = Array.map (fun z -> z.Complex.re) b and im = Array.map (fun z -> z.Complex.im) b in
  Lu.solve t re im;
  Array.init n (fun i -> cx re.(i) im.(i))

let residual_ok tol rows x b =
  Array.for_all2
    (fun row bi ->
      let ax = ref Complex.zero in
      Array.iteri (fun j z -> ax := Complex.add !ax (Complex.mul z x.(j))) row;
      Complex.norm (Complex.sub !ax bi) < tol)
    rows b

let prop_lu_solve =
  (* Real systems embedded in the complex plane, as pole extraction and the
     transient integrator use them. *)
  QCheck.Test.make ~name:"lu: A x = b round trip" ~count:50
    QCheck.(pair (entries_gen 4) (vec_gen 4))
    (fun (entries, b) ->
      QCheck.assume (List.length entries = 16 && List.length b = 4);
      let a = Mat.add_diagonal (Mat.init 4 4 (fun i j -> List.nth entries ((i * 4) + j))) 5.0 in
      let t = Lu.of_real a in
      Lu.factor t;
      let re = Array.of_list b and im = Array.make 4 0.0 in
      Lu.solve t re im;
      Vec.max_abs_diff (Mat.mul_vec a re) (Array.of_list b) < 1e-7
      && Array.for_all (fun v -> Float.abs v < 1e-7) im)

let prop_lu_complex_solve =
  QCheck.Test.make ~name:"lu: complex A x = b round trip" ~count:50
    QCheck.(list_of_size (Gen.return 24) (float_range (-2.0) 2.0))
    (fun entries ->
      QCheck.assume (List.length entries = 24);
      let n = 3 in
      let e = Array.of_list entries in
      let rows =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let k = 2 * ((i * n) + j) in
                cx (e.(k) +. if i = j then 10.0 else 0.0) e.(k + 1)))
      in
      let b = Array.init n (fun i -> cx (float_of_int (i + 1)) (-1.0)) in
      residual_ok 1e-8 rows (lu_solve rows b) b)

let prop_lu_rank_deficient =
  QCheck.Test.make ~name:"lu: rank-deficient raises Singular" ~count:50
    QCheck.(triple (list_of_size (Gen.return 32) (float_range (-2.0) 2.0)) (int_range 0 3) bool)
    (fun (entries, zero_col, real) ->
      QCheck.assume (List.length entries = 32);
      let e = Array.of_list entries in
      let rows =
        Array.init 4 (fun i ->
            Array.init 4 (fun j ->
                let k = 2 * ((i * 4) + j) in
                if j = zero_col then Complex.zero
                else cx (e.(k) +. if i = j then 5.0 else 0.0) (if real then 0.0 else e.(k + 1))))
      in
      match lu_solve rows (Array.make 4 Complex.one) with
      | _ -> false
      | exception Lu.Singular -> true)

let test_lu_singular () =
  let real = [| [| cx 1.0 0.0; cx 2.0 0.0 |]; [| cx 2.0 0.0; cx 4.0 0.0 |] |] in
  Alcotest.check_raises "real singular rejected" Lu.Singular (fun () ->
      ignore (lu_solve real [| Complex.one; Complex.one |]));
  let complex = [| [| cx 1.0 1.0; cx 0.0 2.0 |]; [| cx 2.0 2.0; cx 0.0 4.0 |] |] in
  Alcotest.check_raises "complex singular rejected" Lu.Singular (fun () ->
      ignore (lu_solve complex [| Complex.one; Complex.one |]))

let test_lu_stamp () =
  (* Stamps accumulate: 1 + (0.5 + 2j) on a 1x1 system. *)
  let t = Lu.create 1 in
  Lu.add t 0 0 1.0 0.0;
  Lu.add t 0 0 0.5 2.0;
  Lu.factor t;
  let re = [| 1.5 |] and im = [| 2.0 |] in
  Lu.solve t re im;
  check_close 1e-12 "accumulated re" 1.0 re.(0);
  check_close 1e-12 "accumulated im" 0.0 im.(0)

(* --- Cmat --- *)

let test_cmat_singular () =
  (* A singular matrix held in a Cmat is rejected when solved by the LU. *)
  let a = Cmat.create 2 2 in
  Cmat.set a 0 0 (cx 1.0 0.0);
  Cmat.set a 0 1 (cx 2.0 0.0);
  Cmat.set a 1 0 (cx 2.0 0.0);
  Cmat.set a 1 1 (cx 4.0 0.0);
  let rows = Array.init (Cmat.rows a) (fun i -> Array.init (Cmat.cols a) (Cmat.get a i)) in
  Alcotest.check_raises "singular" Lu.Singular (fun () ->
      ignore (lu_solve rows [| Complex.one; Complex.one |]))

(* Eigenvalue tests feed real matrices through the complex solver. *)
let complex_of_real a =
  let m = Cmat.create (Mat.rows a) (Mat.cols a) in
  for i = 0 to Mat.rows a - 1 do
    for j = 0 to Mat.cols a - 1 do
      Cmat.set m i j (cx (Mat.get a i j) 0.0)
    done
  done;
  m

(* --- Eig --- *)

let test_eig_triangular () =
  (* Eigenvalues of a triangular matrix are its diagonal. *)
  let n = 4 in
  let m = Cmat.create n n in
  let diag = [| cx 1.0 0.0; cx 2.0 1.0; cx (-3.0) 0.5; cx 0.1 (-2.0) |] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i = j then Cmat.set m i j diag.(i)
      else if j > i then Cmat.set m i j (cx (float_of_int ((i * n) + j)) 0.7)
    done
  done;
  let eigs = Array.to_list (Into_linalg.Eig.eigenvalues m) in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "diagonal entry found" true
        (List.exists (fun e -> Complex.norm (Complex.sub e d) < 1e-8) eigs))
    diag

let test_eig_companion () =
  (* Companion matrix of (x-1)(x-2)(x-3). *)
  let c = Mat.of_rows [| [| 6.0; -11.0; 6.0 |]; [| 1.0; 0.0; 0.0 |]; [| 0.0; 1.0; 0.0 |] |] in
  let eigs = Array.to_list (Into_linalg.Eig.eigenvalues (complex_of_real c)) in
  List.iter
    (fun root ->
      Alcotest.(check bool)
        (Printf.sprintf "root %g recovered" root)
        true
        (List.exists (fun e -> Complex.norm (Complex.sub e (cx root 0.0)) < 1e-7) eigs))
    [ 1.0; 2.0; 3.0 ]

let test_eig_complex_pair () =
  (* Rotation-like matrix: eigenvalues a +- bj. *)
  let a = 0.3 and b = 2.5 in
  let m = Mat.of_rows [| [| a; -.b |]; [| b; a |] |] in
  let eigs = Into_linalg.Eig.eigenvalues (complex_of_real m) in
  Alcotest.(check int) "two eigenvalues" 2 (Array.length eigs);
  Array.iter
    (fun e ->
      check_close 1e-8 "real part" a e.Complex.re;
      check_close 1e-8 "imaginary magnitude" b (Float.abs e.Complex.im))
    eigs

let prop_eig_trace =
  QCheck.Test.make ~name:"sum of eigenvalues equals the trace" ~count:50
    (entries_gen 5)
    (fun entries ->
      QCheck.assume (List.length entries = 25);
      let m = Mat.init 5 5 (fun i j -> List.nth entries ((i * 5) + j)) in
      match Into_linalg.Eig.eigenvalues (complex_of_real m) with
      | eigs ->
        let sum = Array.fold_left Complex.add Complex.zero eigs in
        let trace = ref 0.0 in
        for i = 0 to 4 do
          trace := !trace +. Mat.get m i i
        done;
        Complex.norm (Complex.sub sum (cx !trace 0.0)) < 1e-6
      | exception Into_linalg.Eig.No_convergence -> QCheck.assume_fail ())

let test_eig_empty_and_invalid () =
  Alcotest.(check int) "empty matrix" 0
    (Array.length (Into_linalg.Eig.eigenvalues (Cmat.create 0 0)));
  match Into_linalg.Eig.eigenvalues (Cmat.create 2 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-square accepted"

let () =
  Alcotest.run "into_linalg"
    [
      ("vec", [ Alcotest.test_case "operations" `Quick test_vec_ops ]);
      ( "mat",
        [
          Alcotest.test_case "basics" `Quick test_mat_basics;
          Alcotest.test_case "symmetry check" `Quick test_mat_symmetric;
          Alcotest.test_case "add_diagonal" `Quick test_add_diagonal;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "rejects indefinite" `Quick test_cholesky_not_pd;
          Alcotest.test_case "jitter fallback" `Quick test_cholesky_jitter;
          Alcotest.test_case "log det" `Quick test_cholesky_logdet;
          QCheck_alcotest.to_alcotest prop_cholesky_reconstruction;
          QCheck_alcotest.to_alcotest prop_cholesky_solve;
        ] );
      ( "lu",
        [
          Alcotest.test_case "rejects singular" `Quick test_lu_singular;
          Alcotest.test_case "stamping" `Quick test_lu_stamp;
          QCheck_alcotest.to_alcotest prop_lu_solve;
          QCheck_alcotest.to_alcotest prop_lu_complex_solve;
          QCheck_alcotest.to_alcotest prop_lu_rank_deficient;
        ] );
      ("cmat", [ Alcotest.test_case "rejects singular" `Quick test_cmat_singular ]);
      ( "eig",
        [
          Alcotest.test_case "triangular" `Quick test_eig_triangular;
          Alcotest.test_case "companion roots" `Quick test_eig_companion;
          Alcotest.test_case "complex pair" `Quick test_eig_complex_pair;
          Alcotest.test_case "empty/invalid" `Quick test_eig_empty_and_invalid;
          QCheck_alcotest.to_alcotest prop_eig_trace;
        ] );
    ]
