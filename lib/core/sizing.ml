module Rng = Into_util.Rng
module Params = Into_circuit.Params
module Perf = Into_circuit.Perf
module Spec = Into_circuit.Spec
module Topology = Into_circuit.Topology
module Rbf_gp = Into_gp.Rbf_gp

type config = {
  n_init : int;
  n_iter : int;
  n_candidates : int;
  wei_w : float;
  refit_every : int;
  deadline_s : float option;
}

let default_config =
  {
    n_init = 10;
    n_iter = 30;
    n_candidates = 60;
    wei_w = 0.5;
    refit_every = 5;
    deadline_s = None;
  }

type outcome = { sizing : float array; perf : Perf.t }

type result = {
  best_feasible : outcome option;
  best_any : outcome option;
  n_sims : int;
  failures : (Fail.t * int) list;
  timed_out : bool;
}

let best r = match r.best_feasible with Some _ as b -> b | None -> r.best_any

type observation = { point : float array; tmetrics : float array; tfom : float; perf : Perf.t }

type state = {
  cfg : config;
  rng : Rng.t;
  spec : Spec.t;
  topo : Topology.t;
  schema : Params.schema;
  free_dims : int array;
  base : float array;  (** values of the frozen coordinates *)
  mutable obs : observation list;
  mutable n_sims : int;
  mutable best_feasible : (outcome * float) option;  (** with FoM *)
  mutable best_any : (outcome * float) option;  (** with violation *)
  mutable hyper : (float * float) array;  (** (lengthscale, noise) per GP: 4 metrics + objective *)
  mutable failures : (Fail.t * int) list;  (** first-seen order *)
  mutable timed_out : bool;
  deadline : float option;  (** absolute wall-clock limit, [Unix.gettimeofday] frame *)
}

let n_models = List.length Objective.metrics + 1

(* Fill the frozen coordinates of a candidate from the base point. *)
let complete st u =
  let full = Array.copy st.base in
  Array.iteri (fun k d -> full.(d) <- u.(k)) st.free_dims;
  full

let clamp01 x = Float.max 0.0 (Float.min 1.0 x)

let random_candidate st = Array.init (Array.length st.free_dims) (fun _ -> Rng.float st.rng)

let local_candidate st center =
  Array.map (fun x -> clamp01 (x +. (0.1 *. Rng.gaussian st.rng))) center

let record_failure st f =
  let rec bump = function
    | [] -> [ (f, 1) ]
    | (g, n) :: rest when g = f -> (g, n + 1) :: rest
    | pair :: rest -> pair :: bump rest
  in
  st.failures <- bump st.failures

(* Checked after every simulation: the budget loops stop scheduling work
   once the wall-clock deadline passes.  Cooperative — a single simulation
   is never interrupted mid-solve, so the overshoot is bounded by one
   evaluation. *)
let expired st =
  match st.deadline with
  | None -> false
  | Some limit ->
    if st.timed_out then true
    else if Unix.gettimeofday () > limit then begin
      st.timed_out <- true;
      true
    end
    else false

let evaluate st u =
  let full = complete st u in
  let sizing = Params.denormalize st.schema full in
  st.n_sims <- st.n_sims + 1;
  match Perf.evaluate_checked st.topo ~sizing ~cl_f:st.spec.Spec.cl_f with
  | exception exn ->
    record_failure st (Fail.Other (Printexc.to_string exn));
    None
  | Error e ->
    record_failure st
      (match e with
      | `Singular -> Fail.Singular
      | `Non_finite field -> Fail.Non_finite field);
    None
  | Ok perf ->
    let o = { sizing; perf } in
    let fom = Perf.fom perf ~cl_f:st.spec.Spec.cl_f in
    if Perf.satisfies perf st.spec then begin
      match st.best_feasible with
      | Some (_, best_fom) when best_fom >= fom -> ()
      | Some _ | None -> st.best_feasible <- Some (o, fom)
    end;
    let viol = Perf.violation perf st.spec in
    (match st.best_any with
    | Some (_, best_viol) when best_viol <= viol -> ()
    | Some _ | None -> st.best_any <- Some (o, viol));
    let ob =
      {
        point = u;
        tmetrics = Objective.metric_values perf;
        tfom = Objective.penalized_fom_value perf st.spec ~cl_f:st.spec.Spec.cl_f;
        perf;
      }
    in
    st.obs <- ob :: st.obs;
    Some ob

let lengthscale_grid d = List.map (fun l -> l *. sqrt (float_of_int (max d 1))) [ 0.1; 0.25; 0.5; 1.0 ]
let noise_grid = [ 1e-4; 1e-2 ]

let targets st =
  let obs = Array.of_list st.obs in
  let ys =
    Array.init n_models (fun m ->
        if m < n_models - 1 then Array.map (fun o -> o.tmetrics.(m)) obs
        else Array.map (fun o -> o.tfom) obs)
  in
  (Array.map (fun o -> o.point) obs, ys)

(* Select (lengthscale, noise) per model by marginal likelihood. *)
let refit_hyperparameters st =
  let xs, ys = targets st in
  st.hyper <-
    Rbf_gp.select
      ~lengthscales:(lengthscale_grid (Array.length st.free_dims))
      ~noises:noise_grid ~current:st.hyper xs ys

let fit_models st =
  let xs, ys = targets st in
  Rbf_gp.fit xs ys ~hyper:st.hyper

let acquisition st fitted best_tfom u =
  Acquisition.constrained_wei ~w:st.cfg.wei_w ~bounds:(Objective.bounds st.spec)
    ~best:best_tfom (Rbf_gp.predictor fitted u)

let bo_step st iter =
  if iter mod st.cfg.refit_every = 0 || fst st.hyper.(0) = 0.0 then refit_hyperparameters st;
  let fitted = fit_models st in
  let best_tfom =
    Option.map
      (fun ((o : outcome), _) ->
        Objective.penalized_fom_value o.perf st.spec ~cl_f:st.spec.Spec.cl_f)
      st.best_feasible
  in
  let center =
    match st.best_feasible with
    | Some (o, _) ->
      let full = Params.normalize st.schema o.sizing in
      Some (Array.map (fun d -> full.(d)) st.free_dims)
    | None -> (
      match st.best_any with
      | Some (o, _) ->
        let full = Params.normalize st.schema o.sizing in
        Some (Array.map (fun d -> full.(d)) st.free_dims)
      | None -> None)
  in
  let n = st.cfg.n_candidates in
  let candidate i =
    match center with
    | Some c when i mod 2 = 1 -> local_candidate st c
    | Some _ | None -> random_candidate st
  in
  let best_u = ref None in
  for i = 0 to n - 1 do
    let u = candidate i in
    let a = acquisition st fitted best_tfom u in
    match !best_u with
    | Some (_, best_a) when best_a >= a -> ()
    | Some _ | None -> best_u := Some (u, a)
  done;
  match !best_u with
  | Some (u, _) -> ignore (evaluate st u)
  | None -> ()

let optimize ?(config = default_config) ?start ?free_dims ~rng ~spec topo =
  let schema = Params.schema topo in
  let d = Params.dim schema in
  let base =
    match start with
    | Some s ->
      if Array.length s <> d then invalid_arg "Sizing.optimize: start dimension mismatch";
      Array.map clamp01 s
    | None -> Params.default_point schema
  in
  let free =
    match free_dims with
    | Some l ->
      List.iter (fun i -> if i < 0 || i >= d then invalid_arg "Sizing.optimize: bad free dim") l;
      Array.of_list (List.sort_uniq compare l)
    | None -> Array.init d (fun i -> i)
  in
  let st =
    {
      cfg = config;
      rng;
      spec;
      topo;
      schema;
      free_dims = free;
      base;
      obs = [];
      n_sims = 0;
      best_feasible = None;
      best_any = None;
      hyper = Array.make n_models (0.0, 1e-2);
      failures = [];
      timed_out = false;
      deadline =
        Option.map (fun s -> Unix.gettimeofday () +. s) config.deadline_s;
    }
  in
  (* Initial design: the start point (when provided) plus random points. *)
  if start <> None && not (expired st) then
    ignore (evaluate st (Array.map (fun i -> base.(i)) free));
  let n_random_init = config.n_init - if start = None then 0 else 1 in
  for _ = 1 to max 0 n_random_init do
    if not (expired st) then ignore (evaluate st (random_candidate st))
  done;
  for iter = 0 to config.n_iter - 1 do
    if not (expired st) then
      if st.obs <> [] then bo_step st iter
      else ignore (evaluate st (random_candidate st))
  done;
  {
    best_feasible = Option.map fst st.best_feasible;
    best_any = Option.map fst st.best_any;
    n_sims = st.n_sims;
    failures = st.failures;
    timed_out = st.timed_out;
  }
