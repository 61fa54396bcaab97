module Mat = Into_linalg.Mat
module Cholesky = Into_linalg.Cholesky

type prior = {
  chol : Cholesky.t;
  signal : float;
  noise : float;
  half_log_det : float;
  half_n_log_2pi : float;
}

type t = {
  prior : prior;
  alpha : float array;
  y_mean : float;
  y_std : float;
  lml : float;
}

let prior ~gram ~signal ~noise =
  let n = Mat.rows gram in
  if n = 0 then invalid_arg "Gp.prior: empty data";
  if Mat.cols gram <> n then invalid_arg "Gp.prior: dimension mismatch";
  if signal <= 0.0 || noise <= 0.0 then invalid_arg "Gp.prior: non-positive hyperparameter";
  let cov = Mat.add_diagonal (Mat.scale signal gram) noise in
  let chol, _jitter = Cholesky.decompose_with_jitter cov in
  {
    chol;
    signal;
    noise;
    half_log_det = 0.5 *. Cholesky.log_det chol;
    half_n_log_2pi = 0.5 *. float_of_int n *. log (2.0 *. Float.pi);
  }

let condition p ~y =
  if Array.length y = 0 then invalid_arg "Gp.condition: empty data";
  if Array.length y <> Cholesky.dim p.chol then invalid_arg "Gp.condition: dimension mismatch";
  let z, y_mean, y_std = Into_util.Stats.normalize y in
  let alpha = Cholesky.solve p.chol z in
  let fit_term = -0.5 *. Into_linalg.Vec.dot z alpha in
  let lml = fit_term -. p.half_log_det -. p.half_n_log_2pi in
  { prior = p; alpha; y_mean; y_std; lml }

let fit ~gram ~y ~signal ~noise = condition (prior ~gram ~signal ~noise) ~y

let prior_of t = t.prior
let n_observations t = Array.length t.alpha
let log_marginal_likelihood t = t.lml

type query = { ks : float array; var_z : float }

let query p ~k_star ~k_self =
  if Array.length k_star <> Cholesky.dim p.chol then
    invalid_arg "Gp.query: k_star dimension mismatch";
  let ks = Array.map (fun k -> p.signal *. k) k_star in
  let v = Cholesky.solve_lower p.chol ks in
  let var_z = (p.signal *. k_self) +. p.noise -. Into_linalg.Vec.dot v v in
  { ks; var_z = Float.max var_z 0.0 }

let posterior t q =
  if Array.length q.ks <> Array.length t.alpha then
    invalid_arg "Gp.posterior: query dimension mismatch";
  let mean_z = Into_linalg.Vec.dot q.ks t.alpha in
  ((mean_z *. t.y_std) +. t.y_mean, q.var_z *. t.y_std *. t.y_std)

let predict t ~k_star ~k_self = posterior t (query t.prior ~k_star ~k_self)

let alpha t = Array.copy t.alpha
let y_mean t = t.y_mean
let y_std t = t.y_std
let signal t = t.prior.signal
let noise t = t.prior.noise
