exception Singular

(* Row-major entries, split into real and imaginary parts; after [factor]
   the strict lower triangle holds the multipliers, the upper triangle U,
   and [piv.(k)] the row swapped with row k at step k. *)
type t = { n : int; re : float array; im : float array; piv : int array }

let create n =
  { n; re = Array.make (n * n) 0.0; im = Array.make (n * n) 0.0; piv = Array.make n 0 }

let of_real a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.of_real: not square";
  let t = create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      t.re.((i * n) + j) <- Mat.get a i j
    done
  done;
  t

let clear t =
  Array.fill t.re 0 (t.n * t.n) 0.0;
  Array.fill t.im 0 (t.n * t.n) 0.0

let add t i j re im =
  let k = (i * t.n) + j in
  t.re.(k) <- t.re.(k) +. re;
  t.im.(k) <- t.im.(k) +. im

(* [Stdlib.Complex.div] and [x - Stdlib.Complex.mul f y] written out on
   unboxed floats, operation for operation, so that every result is
   bit-identical to the boxed [Complex.t] arithmetic.  Both store into
   element [k] of the split arrays [re], [im]. *)
let[@inline] div_into re im k xr xi yr yi =
  if Float.abs yr >= Float.abs yi then begin
    let r = yi /. yr in
    let d = yr +. (r *. yi) in
    re.(k) <- (xr +. (r *. xi)) /. d;
    im.(k) <- (xi -. (r *. xr)) /. d
  end
  else begin
    let r = yr /. yi in
    let d = yi +. (r *. yr) in
    re.(k) <- ((r *. xr) +. xi) /. d;
    im.(k) <- ((r *. xi) -. xr) /. d
  end

let[@inline] sub_mul_into re im k fr fi yr yi =
  re.(k) <- re.(k) -. ((fr *. yr) -. (fi *. yi));
  im.(k) <- im.(k) -. ((fr *. yi) +. (fi *. yr))

let swap a p q =
  let tmp = a.(p) in
  a.(p) <- a.(q);
  a.(q) <- tmp

let factor t =
  let n = t.n and re = t.re and im = t.im in
  for k = 0 to n - 1 do
    let kk = (k * n) + k in
    let pivot = ref k and best = ref (Float.hypot re.(kk) im.(kk)) in
    for i = k + 1 to n - 1 do
      let v = Float.hypot re.((i * n) + k) im.((i * n) + k) in
      if v > !best then begin
        pivot := i;
        best := v
      end
    done;
    t.piv.(k) <- !pivot;
    if !pivot <> k then
      for j = 0 to n - 1 do
        swap re ((k * n) + j) ((!pivot * n) + j);
        swap im ((k * n) + j) ((!pivot * n) + j)
      done;
    if !best < 1e-300 then raise Singular;
    for i = k + 1 to n - 1 do
      let ik = (i * n) + k in
      div_into re im ik re.(ik) im.(ik) re.(kk) im.(kk);
      let fr = re.(ik) and fi = im.(ik) in
      (* Rows with a zero multiplier are left untouched. *)
      if not (fr = 0.0 && fi = 0.0) then
        for j = k + 1 to n - 1 do
          sub_mul_into re im ((i * n) + j) fr fi re.((k * n) + j) im.((k * n) + j)
        done
    done
  done

let solve t xr xi =
  let n = t.n and re = t.re and im = t.im in
  if Array.length xr <> n || Array.length xi <> n then invalid_arg "Lu.solve";
  for k = 0 to n - 1 do
    swap xr k t.piv.(k);
    swap xi k t.piv.(k)
  done;
  for k = 0 to n - 1 do
    for i = k + 1 to n - 1 do
      let fr = re.((i * n) + k) and fi = im.((i * n) + k) in
      if not (fr = 0.0 && fi = 0.0) then sub_mul_into xr xi i fr fi xr.(k) xi.(k)
    done
  done;
  for i = n - 1 downto 0 do
    for k = i + 1 to n - 1 do
      sub_mul_into xr xi i re.((i * n) + k) im.((i * n) + k) xr.(k) xi.(k)
    done;
    div_into xr xi i xr.(i) xi.(i) re.((i * n) + i) im.((i * n) + i)
  done
