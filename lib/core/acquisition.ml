let expected_improvement ~mean ~std ~best =
  if std <= 0.0 then Float.max 0.0 (mean -. best)
  else
    let z = (mean -. best) /. std in
    let ei = ((mean -. best) *. Into_util.Stats.normal_cdf z) +. (std *. Into_util.Stats.normal_pdf z) in
    Float.max 0.0 ei

let probability_above ~mean ~std ~bound =
  if std <= 0.0 then if mean > bound then 1.0 else 0.0
  else Into_util.Stats.normal_cdf ((mean -. bound) /. std)

let probability_feasible ~mean ~std ~bound ~sense =
  match sense with
  | `Min -> probability_above ~mean ~std ~bound
  | `Max -> 1.0 -. probability_above ~mean ~std ~bound

let feasibility_only feas = List.fold_left ( *. ) 1.0 feas

let weighted_ei ~w ~ei ~feasibility =
  if w < 0.0 || w > 1.0 then invalid_arg "Acquisition.weighted_ei: w outside [0,1]";
  let pf = feasibility_only feasibility in
  (Float.max ei 1e-300 ** w) *. (Float.max pf 1e-300 ** (1.0 -. w))

let constrained_wei ~w ~bounds ~best predict =
  let feas =
    List.mapi
      (fun m (bound, sense) ->
        match predict m with
        | None -> 1.0
        | Some (mean, var) -> probability_feasible ~mean ~std:(sqrt var) ~bound ~sense)
      bounds
  in
  match best with
  | None -> feasibility_only feas
  | Some best -> (
    match predict (List.length bounds) with
    | None -> feasibility_only feas
    | Some (mean, var) ->
      let ei = expected_improvement ~mean ~std:(sqrt var) ~best in
      weighted_ei ~w ~ei ~feasibility:feas)
