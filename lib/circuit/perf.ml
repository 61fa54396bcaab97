type t = {
  gain_db : float;
  gbw_hz : float;
  pm_deg : float;
  power_w : float;
}

let non_finite_field t =
  if not (Float.is_finite t.gain_db) then Some "gain_db"
  else if not (Float.is_finite t.gbw_hz) then Some "gbw_hz"
  else if not (Float.is_finite t.pm_deg) then Some "pm_deg"
  else if not (Float.is_finite t.power_w) then Some "power_w"
  else None

let is_finite t = non_finite_field t = None

(* A non-finite record compares as strictly worse than any real design:
   NaN would silently win every "best >= candidate" comparison (all NaN
   comparisons are false), so the FoM is pinned to -inf instead. *)
let fom t ~cl_f =
  if not (Float.is_finite t.gbw_hz && Float.is_finite t.power_w) then Float.neg_infinity
  else
    let gbw_mhz = t.gbw_hz /. 1e6 in
    let cl_pf = cl_f /. 1e-12 in
    let power_mw = Float.max (t.power_w /. 1e-3) 1e-12 in
    gbw_mhz *. cl_pf /. power_mw

let satisfies t spec =
  is_finite t
  && t.gain_db > spec.Spec.min_gain_db
  && t.gbw_hz > spec.Spec.min_gbw_hz
  && t.pm_deg > spec.Spec.min_pm_deg
  && t.power_w < spec.Spec.max_power_w

let violation t spec =
  let shortfall value bound = Float.max 0.0 ((bound -. value) /. Float.abs bound) in
  let excess value bound = Float.max 0.0 ((value -. bound) /. Float.abs bound) in
  shortfall t.gain_db spec.Spec.min_gain_db
  +. shortfall t.gbw_hz spec.Spec.min_gbw_hz
  +. shortfall t.pm_deg spec.Spec.min_pm_deg
  +. excess t.power_w spec.Spec.max_power_w

let metrics =
  [
    ("gain", (fun t -> t.gain_db), fun s -> (s.Spec.min_gain_db, `Min));
    ("gbw", (fun t -> t.gbw_hz), fun s -> (s.Spec.min_gbw_hz, `Min));
    ("pm", (fun t -> t.pm_deg), fun s -> (s.Spec.min_pm_deg, `Min));
    ("power", (fun t -> t.power_w), fun s -> (s.Spec.max_power_w, `Max));
  ]

(* The Bode-derived phase margin is only meaningful for open-loop-stable
   circuits, and PM > 0 is supposed to certify unity-feedback stability;
   both claims are checked against the exact pencil eigenvalues (internal
   compensation loops can genuinely oscillate).  Designs that fail either
   check get a hard negative margin so the optimizers learn to avoid the
   structures responsible. *)
let stability_checked_pm netlist pm =
  let unstable poles = List.exists (fun p -> p.Complex.re >= 0.0) poles in
  match
    ( unstable (Poles_zeros.open_loop_poles netlist),
      unstable (Poles_zeros.closed_loop_poles netlist) )
  with
  | false, false -> pm
  | true, _ | _, true -> Float.min pm (-90.0)
  | exception Into_linalg.Eig.No_convergence -> Float.min pm (-90.0)

let evaluate_checked ?process topo ~sizing ~cl_f =
  match
    let netlist = Netlist.build ?process topo ~sizing ~cl_f in
    match Ac.analyze netlist with
    | None -> Error `Singular
    | Some ac ->
      let t =
        {
          gain_db = ac.Ac.gain_db;
          gbw_hz = ac.Ac.gbw_hz;
          pm_deg = stability_checked_pm netlist ac.Ac.pm_deg;
          power_w = netlist.Netlist.power_w;
        }
      in
      (match non_finite_field t with
      | Some field -> Error (`Non_finite field)
      | None -> Ok t)
  with
  | r -> r
  | exception Into_linalg.Lu.Singular -> Error `Singular

let to_string t ~cl_f =
  Printf.sprintf "Gain=%.2fdB GBW=%.3fMHz PM=%.2fdeg Power=%.2fuW FoM=%.2f"
    t.gain_db (t.gbw_hz /. 1e6) t.pm_deg (t.power_w *. 1e6) (fom t ~cl_f)
