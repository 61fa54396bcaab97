exception No_convergence

let cx re im = { Complex.re; im }
let norm2 z = (z.Complex.re *. z.Complex.re) +. (z.Complex.im *. z.Complex.im)

(* Householder reduction of a complex matrix to upper Hessenberg form.
   Column by column: zero the entries below the first sub-diagonal with a
   unitary reflection applied from both sides. *)
let hessenberg a =
  let n = Cmat.rows a in
  let h = Cmat.copy a in
  for k = 0 to n - 3 do
    (* Build the reflector for column k, rows k+1 .. n-1. *)
    let col = Array.init (n - k - 1) (fun i -> Cmat.get h (k + 1 + i) k) in
    let norm = sqrt (Array.fold_left (fun acc z -> acc +. norm2 z) 0.0 col) in
    if norm > 1e-300 then begin
      let x0 = col.(0) in
      let phase =
        if Complex.norm x0 < 1e-300 then Complex.one
        else Complex.div x0 (cx (Complex.norm x0) 0.0)
      in
      let alpha = Complex.mul (cx (-.norm) 0.0) phase in
      let v = Array.copy col in
      v.(0) <- Complex.sub x0 alpha;
      let vnorm2 = Array.fold_left (fun acc z -> acc +. norm2 z) 0.0 v in
      if vnorm2 > 1e-300 then begin
        (* H = I - 2 v v* / (v* v); apply to rows k+1.. and columns k+1.. *)
        let scale = 2.0 /. vnorm2 in
        (* rows: h <- H h *)
        for j = k to n - 1 do
          let dot = ref Complex.zero in
          for i = 0 to n - k - 2 do
            dot := Complex.add !dot (Complex.mul (Complex.conj v.(i)) (Cmat.get h (k + 1 + i) j))
          done;
          let f = Complex.mul (cx scale 0.0) !dot in
          for i = 0 to n - k - 2 do
            Cmat.set h (k + 1 + i) j
              (Complex.sub (Cmat.get h (k + 1 + i) j) (Complex.mul v.(i) f))
          done
        done;
        (* columns: h <- h H *)
        for i = 0 to n - 1 do
          let dot = ref Complex.zero in
          for j = 0 to n - k - 2 do
            dot := Complex.add !dot (Complex.mul (Cmat.get h i (k + 1 + j)) v.(j))
          done;
          let f = Complex.mul (cx scale 0.0) !dot in
          for j = 0 to n - k - 2 do
            Cmat.set h i (k + 1 + j)
              (Complex.sub (Cmat.get h i (k + 1 + j)) (Complex.mul f (Complex.conj v.(j))))
          done
        done
      end
    end
  done;
  h

(* Wilkinson shift: the eigenvalue of the trailing 2x2 block closest to the
   bottom-right entry. *)
let wilkinson_shift h m =
  let a = Cmat.get h (m - 1) (m - 1)
  and b = Cmat.get h (m - 1) m
  and c = Cmat.get h m (m - 1)
  and d = Cmat.get h m m in
  let tr = Complex.add a d in
  let det = Complex.sub (Complex.mul a d) (Complex.mul b c) in
  let half_tr = Complex.div tr (cx 2.0 0.0) in
  let disc = Complex.sqrt (Complex.sub (Complex.mul half_tr half_tr) det) in
  let l1 = Complex.add half_tr disc and l2 = Complex.sub half_tr disc in
  if norm2 (Complex.sub l1 d) <= norm2 (Complex.sub l2 d) then l1 else l2

(* One explicit single-shift QR step on the active block [0..m] of the
   Hessenberg matrix: factor H - shift*I = Q R with Givens rotations, then
   replace the block with R Q + shift*I.  O(n^2) per step on a Hessenberg
   matrix, which is all the tiny circuit pencils need. *)
let qr_sweep h m shift =
  (* Shift the diagonal. *)
  for i = 0 to m do
    Cmat.set h i i (Complex.sub (Cmat.get h i i) shift)
  done;
  let cs = Array.make (m + 1) Complex.one in
  let sn = Array.make (m + 1) Complex.zero in
  (* Left rotations: eliminate each sub-diagonal, producing R in place. *)
  for k = 0 to m - 1 do
    let x = Cmat.get h k k and y = Cmat.get h (k + 1) k in
    let r = sqrt (norm2 x +. norm2 y) in
    let c, s =
      if r < 1e-300 then (Complex.one, Complex.zero)
      else (Complex.div x (cx r 0.0), Complex.div y (cx r 0.0))
    in
    cs.(k) <- c;
    sn.(k) <- s;
    for j = k to m do
      let hkj = Cmat.get h k j and hk1j = Cmat.get h (k + 1) j in
      Cmat.set h k j
        (Complex.add (Complex.mul (Complex.conj c) hkj) (Complex.mul (Complex.conj s) hk1j));
      Cmat.set h (k + 1) j (Complex.sub (Complex.mul c hk1j) (Complex.mul s hkj))
    done
  done;
  (* Right rotations: H <- R Q restores Hessenberg form. *)
  for k = 0 to m - 1 do
    let c = cs.(k) and s = sn.(k) in
    for i = 0 to min (k + 1) m do
      let hik = Cmat.get h i k and hik1 = Cmat.get h i (k + 1) in
      Cmat.set h i k (Complex.add (Complex.mul hik c) (Complex.mul hik1 s));
      Cmat.set h i (k + 1)
        (Complex.sub
           (Complex.mul hik1 (Complex.conj c))
           (Complex.mul hik (Complex.conj s)))
    done
  done;
  (* Undo the shift. *)
  for i = 0 to m do
    Cmat.set h i i (Complex.add (Cmat.get h i i) shift)
  done

let eigenvalues ?(max_sweeps = 40) a =
  let n = Cmat.rows a in
  if Cmat.cols a <> n then invalid_arg "Eig.eigenvalues: not square";
  if n = 0 then [||]
  else begin
    let h = hessenberg a in
    let eigs = ref [] in
    let m = ref (n - 1) in
    let sweeps = ref 0 in
    while !m > 0 do
      (* Deflation test on the last sub-diagonal of the active block. *)
      let small =
        Complex.norm (Cmat.get h !m (!m - 1))
        <= 1e-13
           *. (Complex.norm (Cmat.get h !m !m) +. Complex.norm (Cmat.get h (!m - 1) (!m - 1))
              +. 1e-300)
      in
      if small then begin
        eigs := Cmat.get h !m !m :: !eigs;
        decr m;
        sweeps := 0
      end
      else begin
        if !sweeps >= max_sweeps then raise No_convergence;
        incr sweeps;
        let shift =
          (* An occasional exceptional shift breaks symmetry stalls. *)
          if !sweeps mod 13 = 0 then cx (Complex.norm (Cmat.get h !m (!m - 1))) 0.0
          else wilkinson_shift h !m
        in
        qr_sweep h !m shift
      end
    done;
    Array.of_list (Cmat.get h 0 0 :: !eigs)
  end
