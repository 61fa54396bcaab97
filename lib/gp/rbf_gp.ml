type t = {
  xs : float array array;
  models : (float * float * Gp.t) option array;  (** lengthscale, noise, posterior *)
}

let prior priors grams xs ~lengthscale ~noise =
  Memo.find_or_add priors (lengthscale, noise) (fun () ->
      let gram = Memo.find_or_add grams lengthscale (fun () -> Rbf.gram ~lengthscale xs) in
      match Gp.prior ~gram ~signal:1.0 ~noise with
      | p -> Some p
      | exception Into_linalg.Cholesky.Not_positive_definite -> None)

let select ~lengthscales ~noises ~current xs ys =
  let best = Array.map (fun _ -> None) ys in
  let priors = ref [] and grams = ref [] in
  List.iter
    (fun lengthscale ->
      List.iter
        (fun noise ->
          match prior priors grams xs ~lengthscale ~noise with
          | None -> ()
          | Some p ->
            Array.iteri
              (fun m y ->
                let lml = Gp.log_marginal_likelihood (Gp.condition p ~y) in
                match best.(m) with
                | Some (_, _, best_lml) when best_lml >= lml -> ()
                | Some _ | None -> best.(m) <- Some (lengthscale, noise, lml))
              ys)
        noises)
    lengthscales;
  Array.mapi
    (fun m -> function Some (l, noise, _) -> (l, noise) | None -> current.(m))
    best

let fit xs ys ~hyper =
  let priors = ref [] and grams = ref [] in
  let models =
    Array.mapi
      (fun m y ->
        let lengthscale, noise = hyper.(m) in
        Option.map
          (fun p -> (lengthscale, noise, Gp.condition p ~y))
          (prior priors grams xs ~lengthscale ~noise))
      ys
  in
  { xs; models }

let predictor t u =
  let rows = ref [] and queries = ref [] in
  fun m ->
    Option.map
      (fun (lengthscale, noise, gp) ->
        let k_star = Memo.find_or_add rows lengthscale (fun () -> Rbf.cross ~lengthscale t.xs u) in
        let q =
          Memo.find_or_add queries (lengthscale, noise) (fun () ->
              Gp.query (Gp.prior_of gp) ~k_star ~k_self:1.0)
        in
        Gp.posterior gp q)
      t.models.(m)
