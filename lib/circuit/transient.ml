module Mat = Into_linalg.Mat
module Lu = Into_linalg.Lu

type waveform = {
  time_s : float array;
  vout : float array;
  final_value : float option;
}

type metrics = {
  overshoot_pct : float;
  settling_time_s : float option;
  settled : bool;
}

let default_t_end netlist =
  let f_ref =
    match Ac.analyze netlist with
    | Some r when r.Ac.gbw_hz > 0.0 -> r.Ac.gbw_hz
    | Some _ | None -> 1e6
  in
  200.0 /. (2.0 *. Float.pi *. f_ref)

let step_response ?(closed_loop = true) ?t_end ?(points = 2000) netlist =
  if points < 2 then invalid_arg "Transient.step_response: too few points";
  let sys = Linear_system.build netlist in
  let g, c =
    if closed_loop then Linear_system.closed_loop sys
    else (sys.Linear_system.g, sys.Linear_system.c)
  in
  let n = sys.Linear_system.n in
  let t_end = match t_end with Some t -> t | None -> default_t_end netlist in
  let h = t_end /. float_of_int (points - 1) in
  (* Trapezoidal rule: (C/h + G/2) x' = (C/h - G/2) x + b_g (u'+u)/2
                                        + b_c (u'-u)/h. *)
  let lu = Lu.of_real (Mat.add (Mat.scale (1.0 /. h) c) (Mat.scale 0.5 g)) in
  Lu.factor lu;
  let rhs_m = Mat.add (Mat.scale (1.0 /. h) c) (Mat.scale (-0.5) g) in
  let x = ref (Array.make n 0.0) in
  let time_s = Array.make points 0.0 in
  let vout = Array.make points 0.0 in
  for k = 1 to points - 1 do
    let u_prev = if k - 1 = 0 then 0.0 else 1.0 in
    let u_now = 1.0 in
    let rhs = Mat.mul_vec rhs_m !x in
    for i = 0 to n - 1 do
      rhs.(i) <-
        rhs.(i)
        +. (sys.Linear_system.b_g.(i) *. 0.5 *. (u_now +. u_prev))
        +. (sys.Linear_system.b_c.(i) *. (u_now -. u_prev) /. h)
    done;
    Lu.solve lu rhs (Array.make n 0.0);
    x := rhs;
    time_s.(k) <- float_of_int k *. h;
    vout.(k) <- !x.(sys.Linear_system.output)
  done;
  (* DC target of the step.  A singular conductance matrix has no DC
     operating point: the target is reported as absent rather than NaN, so
     settling metrics can't silently compare against NaN downstream. *)
  let final_value =
    let lu = Lu.of_real g and dc = Array.copy sys.Linear_system.b_g in
    match Lu.factor lu; Lu.solve lu dc (Array.make n 0.0) with
    | () -> Some dc.(sys.Linear_system.output)
    | exception Lu.Singular -> None
  in
  { time_s; vout; final_value }

let measure_against ~band w final =
  let scale = Float.max (Float.abs final) 1e-12 in
  let peak =
    Array.fold_left
      (fun acc v ->
        let excursion = (v -. final) *. (if final >= 0.0 then 1.0 else -1.0) in
        Float.max acc excursion)
      0.0 w.vout
  in
  let tolerance = band *. scale in
  (* Last sample outside the band determines the settling instant. *)
  let last_outside = ref None in
  Array.iteri
    (fun i v -> if Float.abs (v -. final) > tolerance then last_outside := Some i)
    w.vout;
  let n = Array.length w.vout in
  let settling_time_s, settled =
    match !last_outside with
    | None -> (Some 0.0, true)
    | Some i when i = n - 1 -> (None, false)
    | Some i -> (Some w.time_s.(i + 1), true)
  in
  { overshoot_pct = 100.0 *. peak /. scale; settling_time_s; settled }

let measure ?(band = 0.01) w =
  Option.map (measure_against ~band w) w.final_value
