module Mat = Into_linalg.Mat
module Lu = Into_linalg.Lu
module Cmat = Into_linalg.Cmat
module Eig = Into_linalg.Eig

type t = { poles_hz : Complex.t list; zeros_hz : Complex.t list }

let two_pi = 2.0 *. Float.pi

(* Frequencies (rad/s magnitude) beyond this are artifacts of the inverted
   pencil (poles/zeros "at infinity") and are dropped. *)
let cutoff_rad = 1e15

(* Generalized eigenvalues s of det(G + sC) = 0 by shift-and-invert:
   with M = (G + sigma C)^-1 C, eigenvalues mu of M map to
   s = sigma - 1/mu; mu ~ 0 maps to infinity. *)
let pencil_roots g c =
  let n = Mat.rows g in
  if n = 0 then []
  else begin
    let try_sigma sigma =
      let lu = Lu.of_real (Mat.add g (Mat.scale sigma c)) in
      match Lu.factor lu with
      | () ->
        (* Columns of M = shifted^-1 C. *)
        let m = Cmat.create n n in
        for j = 0 to n - 1 do
          let re = Array.init n (fun i -> Mat.get c i j) and im = Array.make n 0.0 in
          Lu.solve lu re im;
          for i = 0 to n - 1 do
            Cmat.set m i j { Complex.re = re.(i); im = im.(i) }
          done
        done;
        Some m
      | exception Lu.Singular -> None
    in
    let rec first_regular = function
      | [] -> None
      | sigma :: rest -> (
        match try_sigma sigma with Some m -> Some (sigma, m) | None -> first_regular rest)
    in
    match first_regular [ 0.0; 1.0; 2.0 *. Float.pi *. 1e3; -7.3e4 ] with
    | None -> []
    | Some (sigma, m) ->
      Array.to_list (Eig.eigenvalues m)
      |> List.filter_map (fun mu ->
             if Complex.norm mu < 1e-300 then None
             else
               let s =
                 Complex.sub { Complex.re = sigma; im = 0.0 } (Complex.div Complex.one mu)
               in
               if Complex.norm s > cutoff_rad then None else Some s)
  end

let sort_by_magnitude =
  List.sort (fun a b -> compare (Complex.norm a) (Complex.norm b))

let to_hz s = Complex.div s { Complex.re = two_pi; im = 0.0 }

let analyze netlist =
  let sys = Linear_system.build netlist in
  let n = sys.Linear_system.n in
  let poles = pencil_roots sys.Linear_system.g sys.Linear_system.c in
  (* Transmission zeros: adjoin the input column b(s) = b_g + s b_c and the
     output row e_out to the pencil. *)
  let gaug = Mat.create (n + 1) (n + 1) in
  let caug = Mat.create (n + 1) (n + 1) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set gaug i j (Mat.get sys.Linear_system.g i j);
      Mat.set caug i j (Mat.get sys.Linear_system.c i j)
    done;
    Mat.set gaug i n sys.Linear_system.b_g.(i);
    Mat.set caug i n sys.Linear_system.b_c.(i)
  done;
  Mat.set gaug n sys.Linear_system.output 1.0;
  let zeros = pencil_roots gaug caug in
  {
    poles_hz = sort_by_magnitude (List.map to_hz poles);
    zeros_hz = sort_by_magnitude (List.map to_hz zeros);
  }

let open_loop_poles netlist =
  let sys = Linear_system.build netlist in
  sort_by_magnitude (List.map to_hz (pencil_roots sys.Linear_system.g sys.Linear_system.c))

let closed_loop_poles netlist =
  let g, c = Linear_system.closed_loop (Linear_system.build netlist) in
  sort_by_magnitude (List.map to_hz (pencil_roots g c))

let is_stable t = List.for_all (fun p -> p.Complex.re < 0.0) t.poles_hz

let dominant_pole_hz t =
  match t.poles_hz with [] -> None | p :: _ -> Some (Complex.norm p)

let describe t =
  let fmt kind zs =
    match zs with
    | [] -> Printf.sprintf "  no finite %s" kind
    | _ ->
      String.concat "\n"
        (List.map
           (fun z ->
             Printf.sprintf "  %-5s %12.4g %+12.4g j Hz  (|.| = %.4g Hz)" kind
               z.Complex.re z.Complex.im (Complex.norm z))
           zs)
  in
  Printf.sprintf "poles:\n%s\nzeros:\n%s" (fmt "pole" t.poles_hz) (fmt "zero" t.zeros_hz)
