module Mat = Into_linalg.Mat
module Lu = Into_linalg.Lu

(* Where a branch value lands: added to (or, when [neg], subtracted from)
   entry ([row], [col]), or to the input vector when [col = input]. *)
type entry = { row : int; col : int; neg : bool }

let input = -1
let at row col neg = { row; col; neg }

(* KCL entries of an admittance between nodes a and b, row a first; the
   unit source at vin moves its terms to the input vector. *)
let two_terminal a b =
  let side p q =
    match (p, q) with
    | Netlist.N i, Netlist.N j -> [ at i i false; at i j true ]
    | Netlist.N i, Netlist.Vin -> [ at i i false; at i input false ]
    | Netlist.N i, Netlist.Gnd -> [ at i i false ]
    | (Netlist.Vin | Netlist.Gnd), _ -> []
  in
  Array.of_list (side a b @ side b a)

(* A transconductance controlled by [ctrl] injecting into [out]: the KCL row
   of [out] gains [-gm * v_ctrl]. *)
let transconductance ~ctrl ~out =
  match (out, ctrl) with
  | Netlist.N o, Netlist.N c -> [| at o c true |]
  | Netlist.N o, Netlist.Vin -> [| at o input false |]
  | Netlist.N _, Netlist.Gnd | (Netlist.Vin | Netlist.Gnd), _ -> [||]

let entries = function
  | Netlist.Conductance (a, b, _) | Netlist.Capacitance (a, b, _)
  | Netlist.Series_rc (a, b, _, _) ->
    two_terminal a b
  | Netlist.Vccs { ctrl; out; _ } -> transconductance ~ctrl ~out

type stamps = { nodes : int; branches : (Netlist.prim * entry array) array }

type t = {
  g : Mat.t;
  c : Mat.t;
  b_g : float array;
  b_c : float array;
  n : int;
  output : int;
  stamps : stamps;
}

(* Count extra unknowns: one internal node per series R-C branch, one
   low-pass state per finite-pole transconductor. *)
let count_extra prims =
  List.fold_left
    (fun acc prim ->
      match prim with
      | Netlist.Series_rc _ -> acc + 1
      | Netlist.Vccs { pole_hz; _ } when Float.is_finite pole_hz -> acc + 1
      | Netlist.Vccs _ | Netlist.Conductance _ | Netlist.Capacitance _ -> acc)
    0 prims

(* Stamp the real value [v] at [entries] of matrix [m] (input vector [bv]). *)
let stamp_real m bv entries v =
  Array.iter
    (fun e ->
      if e.col = input then bv.(e.row) <- bv.(e.row) +. v
      else
        let old = Mat.get m e.row e.col in
        Mat.set m e.row e.col (if e.neg then old -. v else old +. v))
    entries

let build netlist =
  let nodes = netlist.Netlist.n_unknowns in
  let n = nodes + count_extra netlist.Netlist.prims in
  let g = Mat.create n n and c = Mat.create n n in
  let b_g = Array.make n 0.0 and b_c = Array.make n 0.0 in
  let next = ref (nodes - 1) in
  let fresh () =
    incr next;
    !next
  in
  let branches =
    List.map
      (fun prim ->
        let at = entries prim in
        (match prim with
        | Netlist.Conductance (_, _, v) -> stamp_real g b_g at v
        | Netlist.Capacitance (_, _, v) -> stamp_real c b_c at v
        | Netlist.Series_rc (a, b, r, cap) ->
          (* Explicit internal node between the resistor (on the [a] side)
             and the capacitor (on the [b] side). *)
          let m = fresh () in
          stamp_real g b_g (two_terminal a (Netlist.N m)) (1.0 /. r);
          stamp_real c b_c (two_terminal (Netlist.N m) b) cap
        | Netlist.Vccs { ctrl; out; gm; pole_hz } ->
          if Float.is_finite pole_hz then begin
            (* Low-pass state x with x + (s/w) x = v_ctrl; the VCCS reads x. *)
            let x = fresh () in
            Mat.set g x x 1.0;
            (match ctrl with
            | Netlist.N i -> Mat.set g x i (-1.0)
            | Netlist.Vin -> b_g.(x) <- b_g.(x) +. 1.0
            | Netlist.Gnd -> ());
            Mat.set c x x (1.0 /. (2.0 *. Float.pi *. pole_hz));
            stamp_real g b_g (transconductance ~ctrl:(Netlist.N x) ~out) gm
          end
          else stamp_real g b_g at gm);
        (prim, at))
      netlist.Netlist.prims
  in
  assert (!next = n - 1);
  { g; c; b_g; b_c; n; output = 2; stamps = { nodes; branches = Array.of_list branches } }

let closed_loop t =
  (* u = vin - vout: move the b * vout term to the left-hand side. *)
  let g = Mat.copy t.g and c = Mat.copy t.c in
  for i = 0 to t.n - 1 do
    Mat.set g i t.output (Mat.get g i t.output +. t.b_g.(i));
    Mat.set c i t.output (Mat.get c i t.output +. t.b_c.(i))
  done;
  (g, c)

let cx re im = { Complex.re; im }

(* Admittance (or rolled-off transconductance) of a primitive at angular
   frequency [w] = 2 pi [freq_hz]. *)
let admittance prim ~w ~freq_hz =
  match prim with
  | Netlist.Conductance (_, _, g) -> cx g 0.0
  | Netlist.Capacitance (_, _, c) -> cx 0.0 (w *. c)
  | Netlist.Series_rc (_, _, r, c) ->
    (* Y = jwC / (1 + jwRC) *)
    Complex.div (cx 0.0 (w *. c)) (cx 1.0 (w *. r *. c))
  | Netlist.Vccs { gm; pole_hz; _ } ->
    (* gm(jw) = gm / (1 + j f/pole_hz): the roll-off at the device transit
       frequency. *)
    Complex.div (cx gm 0.0) (cx 1.0 (freq_hz /. pole_hz))

let element_admittance prim ~freq_hz =
  match prim with
  | Netlist.Vccs _ -> invalid_arg "Linear_system.element_admittance: not a two-terminal"
  | Netlist.Conductance _ | Netlist.Capacitance _ | Netlist.Series_rc _ ->
    admittance prim ~w:(2.0 *. Float.pi *. freq_hz) ~freq_hz

(* Y(jw) and its factors, the unit-vin input vector b, and a solution x. *)
type ac = {
  branches : (Netlist.prim * entry array) array;
  y : Lu.t;
  b_re : float array;
  b_im : float array;
  x_re : float array;
  x_im : float array;
}

let ac t =
  let zeros () = Array.make t.stamps.nodes 0.0 in
  { branches = t.stamps.branches; y = Lu.create t.stamps.nodes; b_re = zeros ();
    b_im = zeros (); x_re = zeros (); x_im = zeros () }

let factor_at ws ~freq_hz =
  let w = 2.0 *. Float.pi *. freq_hz in
  Lu.clear ws.y;
  Array.fill ws.b_re 0 (Array.length ws.b_re) 0.0;
  Array.fill ws.b_im 0 (Array.length ws.b_im) 0.0;
  let branches = ws.branches in
  for k = 0 to Array.length branches - 1 do
    let prim, at = branches.(k) in
    let y = admittance prim ~w ~freq_hz in
    for l = 0 to Array.length at - 1 do
      let e = at.(l) in
      if e.col = input then begin
        ws.b_re.(e.row) <- ws.b_re.(e.row) +. y.Complex.re;
        ws.b_im.(e.row) <- ws.b_im.(e.row) +. y.Complex.im
      end
      else if e.neg then Lu.add ws.y e.row e.col (-.y.Complex.re) (-.y.Complex.im)
      else Lu.add ws.y e.row e.col y.Complex.re y.Complex.im
    done
  done;
  Lu.factor ws.y

let solved_vout ws =
  Lu.solve ws.y ws.x_re ws.x_im;
  cx ws.x_re.(2) ws.x_im.(2)

let vout ws =
  Array.blit ws.b_re 0 ws.x_re 0 (Array.length ws.b_re);
  Array.blit ws.b_im 0 ws.x_im 0 (Array.length ws.b_im);
  solved_vout ws

let injected_vout ws ~into ~out_of =
  Array.fill ws.x_re 0 (Array.length ws.x_re) 0.0;
  Array.fill ws.x_im 0 (Array.length ws.x_im) 0.0;
  (match into with
  | Netlist.N i -> ws.x_re.(i) <- ws.x_re.(i) +. 1.0
  | Netlist.Gnd | Netlist.Vin -> ());
  (match out_of with
  | Netlist.N i -> ws.x_re.(i) <- ws.x_re.(i) -. 1.0
  | Netlist.Gnd | Netlist.Vin -> ());
  solved_vout ws
