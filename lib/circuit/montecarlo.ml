type t = {
  trials : int;
  passes : int;
  yield : float;
  worst_pm_deg : float;
  fom_mean : float;
}

let run ?(trials = 100) ?(sigma = 0.05) ~rng ~spec topo ~sizing =
  if trials <= 0 then invalid_arg "Montecarlo.run: non-positive trials";
  let passes = ref 0 in
  let worst_pm = ref infinity in
  let fom_sum = ref 0.0 in
  for _ = 1 to trials do
    let perturbed =
      Array.map (fun v -> v *. exp (sigma *. Into_util.Rng.gaussian rng)) sizing
    in
    match Perf.evaluate_checked topo ~sizing:perturbed ~cl_f:spec.Spec.cl_f with
    | Error _ -> worst_pm := Float.min !worst_pm (-180.0)
    | Ok p ->
      worst_pm := Float.min !worst_pm p.Perf.pm_deg;
      if Perf.satisfies p spec then begin
        incr passes;
        fom_sum := !fom_sum +. Perf.fom p ~cl_f:spec.Spec.cl_f
      end
  done;
  {
    trials;
    passes = !passes;
    yield = float_of_int !passes /. float_of_int trials;
    worst_pm_deg = (if Float.is_finite !worst_pm then !worst_pm else 0.0);
    fom_mean = (if !passes = 0 then 0.0 else !fom_sum /. float_of_int !passes);
  }
