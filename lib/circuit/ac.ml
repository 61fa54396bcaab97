type t = { gain_db : float; gbw_hz : float; pm_deg : float }

let f_min = 1e-2
let f_max = 1e13
let points_per_decade = 16

let two_pi = 2.0 *. Float.pi

(* Unwrap [raw] (in radians) to the 2*pi-translate closest to [prev]. *)
let unwrap ~prev raw =
  let k = Float.round ((prev -. raw) /. two_pi) in
  raw +. (k *. two_pi)

let db_of_mag m = 20.0 *. log10 (Float.max m 1e-300)

(* Starting phase of the unwrap.  atan2 reports a negative-real DC response
   as +pi, but an inverted amplifier in unity negative feedback is positive
   feedback: its inversion must count as 180 degrees of lag (-pi), not
   lead, or the analysis would credit it with a full extra turn of phase
   margin. *)
let initial_phase raw = if raw > 0.75 *. Float.pi then raw -. two_pi else raw

let sweep_freqs () =
  let decades = log10 (f_max /. f_min) in
  let n = int_of_float (Float.round (decades *. float_of_int points_per_decade)) + 1 in
  Array.init n (fun i ->
      f_min *. (10.0 ** (float_of_int i /. float_of_int points_per_decade)))

(* [vout/vin] at one frequency of the workspace's circuit. *)
let transfer ws ~freq_hz =
  Linear_system.factor_at ws ~freq_hz;
  Linear_system.vout ws

let bode netlist ~freqs =
  let ws = Linear_system.ac (Linear_system.build netlist) in
  let prev_phase = ref 0.0 in
  let first = ref true in
  Array.map
    (fun f ->
      let h = transfer ws ~freq_hz:f in
      let raw = Complex.arg h in
      let ph = if !first then initial_phase raw else unwrap ~prev:!prev_phase raw in
      first := false;
      prev_phase := ph;
      (f, db_of_mag (Complex.norm h), ph *. 180.0 /. Float.pi))
    freqs

(* Refine the |A| = 1 crossing inside (f_lo, f_hi) by bisection on the log
   axis, keeping the unwrapped phase coherent with the lower bracket. *)
let bisect_crossing ws ~f_lo ~ph_lo ~f_hi =
  let rec go f_lo ph_lo f_hi iters =
    if iters = 0 then (sqrt (f_lo *. f_hi), ph_lo)
    else
      let fm = sqrt (f_lo *. f_hi) in
      let h = transfer ws ~freq_hz:fm in
      let ph = unwrap ~prev:ph_lo (Complex.arg h) in
      if Complex.norm h >= 1.0 then go fm ph f_hi (iters - 1)
      else go f_lo ph_lo fm (iters - 1)
  in
  go f_lo ph_lo f_hi 40

let analyze netlist =
  match
    let ws = Linear_system.ac (Linear_system.build netlist) in
    let freqs = sweep_freqs () in
    let n = Array.length freqs in
    let mags = Array.make n 0.0 in
    let phases = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let h = transfer ws ~freq_hz:freqs.(i) in
      mags.(i) <- Complex.norm h;
      let raw = Complex.arg h in
      phases.(i) <- (if i = 0 then initial_phase raw else unwrap ~prev:phases.(i - 1) raw)
    done;
    let gain_db = db_of_mag mags.(0) in
    (* Last downward unity crossing: the frequency after which |A| stays
       below 1; this is what feedback stability cares about. *)
    let crossing = ref None in
    for i = 0 to n - 2 do
      if mags.(i) >= 1.0 && mags.(i + 1) < 1.0 then crossing := Some i
    done;
    (match !crossing with
    | None -> { gain_db; gbw_hz = 0.0; pm_deg = 0.0 }
    | Some i ->
      let fu, ph_at_crossing =
        bisect_crossing ws ~f_lo:freqs.(i) ~ph_lo:phases.(i) ~f_hi:freqs.(i + 1)
      in
      (* Nyquist-aware margin: the critical point sits at +/-180 degrees
         (mod 360), so the margin is the smallest distance of the unwrapped
         phase to either line over the whole band where |A| >= 1 — not just
         the lag at the crossing.  This correctly rejects sign-flipping
         feedforward responses whose phase climbs toward +180 with gain
         above unity, and conditionally stable resonances alike. *)
      let worst_abs = ref (Float.abs ph_at_crossing) in
      for k = 0 to i do
        if mags.(k) >= 1.0 then worst_abs := Float.max !worst_abs (Float.abs phases.(k))
      done;
      let pm = 180.0 -. (!worst_abs *. 180.0 /. Float.pi) in
      { gain_db; gbw_hz = fu; pm_deg = pm })
  with
  | result -> Some result
  | exception Into_linalg.Lu.Singular -> None
