module Wl = Into_graph.Wl
module Wl_kernel = Into_graph.Wl_kernel

type t = {
  dict : Wl.dict;
  fit_id : int;  (** one per fit call: identifies the training graphs *)
  h : int;
  feats : Wl.features array;
  index : Wl_kernel.index;
  gp : Gp.t;
}

type search = {
  h_candidates : int list;
  noise_candidates : float list;
  signal_candidates : float list;
}

let default_h_candidates = [ 0; 1; 2; 3 ]

let default_search =
  {
    h_candidates = default_h_candidates;
    noise_candidates = [ 1e-4; 1e-3; 1e-2; 1e-1; 0.3; 1.0 ];
    signal_candidates = [ 0.5; 1.0; 2.0 ];
  }

let fixed ~h ~noise ~signal =
  { h_candidates = [ h ]; noise_candidates = [ noise ]; signal_candidates = [ signal ] }

let next_fit_id = Atomic.make 0

let fit_many ~dict ~graphs targets =
  let n = Array.length graphs in
  if n = 0 then invalid_arg "Wl_gp.fit: empty data";
  List.iter
    (fun (search, y) ->
      if Array.length y <> n then invalid_arg "Wl_gp.fit: length mismatch";
      (* One NaN target silently corrupts the whole Cholesky factorization
         and every prediction after it: refuse loudly, naming the
         offender. *)
      Array.iteri
        (fun i yi ->
          if not (Float.is_finite yi) then
            invalid_arg
              (Printf.sprintf "Wl_gp.fit: non-finite target y.(%d) = %h" i yi))
        y;
      if search.h_candidates = [] || search.noise_candidates = []
         || search.signal_candidates = []
      then invalid_arg "Wl_gp.fit: empty candidate list")
    targets;
  let fit_id = Atomic.fetch_and_add next_fit_id 1 in
  (* Features and gram once per h, the factorization once per (h, noise,
     signal); only the conditioning is per target.  Features are extracted
     h by h over all graphs, in the order the targets first ask for each h,
     which registers dictionary ids exactly as fitting the targets one
     after the other would. *)
  let passes = Array.map (Wl.pass dict) graphs in
  let by_h = ref [] and priors = ref [] and indexes = ref [] in
  let at h =
    Memo.find_or_add by_h h (fun () ->
        let feats = Array.map (fun p -> Wl.features_at p ~h) passes in
        (feats, Wl_kernel.gram feats))
  in
  let prior h noise signal =
    Memo.find_or_add priors (h, noise, signal) (fun () ->
        match Gp.prior ~gram:(snd (at h)) ~signal ~noise with
        | p -> Some p
        | exception Into_linalg.Cholesky.Not_positive_definite -> None)
  in
  let model h gp =
    let feats = fst (at h) in
    { dict; fit_id; h; feats; index = Memo.find_or_add indexes h (fun () -> Wl_kernel.index feats); gp }
  in
  let fit_one (search, y) =
    let best = ref None in
    List.iter
      (fun h ->
        List.iter
          (fun noise ->
            List.iter
              (fun signal ->
                match prior h noise signal with
                | None -> ()
                | Some p -> (
                  let gp = Gp.condition p ~y in
                  match !best with
                  | Some (_, prev)
                    when Gp.log_marginal_likelihood prev >= Gp.log_marginal_likelihood gp ->
                    ()
                  | Some _ | None -> best := Some (h, gp)))
              search.signal_candidates)
          search.noise_candidates)
      search.h_candidates;
    match !best with
    | Some (h, gp) -> model h gp
    | None ->
      (* Every candidate failed the Cholesky.  The gram matrix is PSD by
         construction, so escalating the noise floor must eventually yield
         a positive-definite system; fall back rather than abort the BO
         run. *)
      let h = match search.h_candidates with h :: _ -> h | [] -> 0 in
      let rec with_noise noise =
        if noise > 1e12 then
          invalid_arg "Wl_gp.fit: gram matrix is numerically indefinite"
        else
          match prior h noise 1.0 with
          | Some p -> model h (Gp.condition p ~y)
          | None -> with_noise (noise *. 10.0)
      in
      with_noise 1.0
  in
  List.map fit_one targets

let fit ?(h_candidates = default_search.h_candidates)
    ?(noise_candidates = default_search.noise_candidates)
    ?(signal_candidates = default_search.signal_candidates) ~dict ~graphs ~y () =
  match fit_many ~dict ~graphs [ ({ h_candidates; noise_candidates; signal_candidates }, y) ] with
  | [ model ] -> model
  | _ -> invalid_arg "Wl_gp.fit: one model per target"

let h t = t.h
let log_marginal_likelihood t = Gp.log_marginal_likelihood t.gp
let gp t = t.gp
let dict t = t.dict

let features_of t g = Wl.extract t.dict ~h:t.h g

(* Predictions at one graph for models that may share work: one WL pass
   per training set (so one dictionary), one kernel row per (training set,
   h) and one variance per factorization.  Models are served in call
   order, so the pass registers new ids as separate [predict] calls
   would. *)
let predictor g =
  let passes = ref [] and rows = ref [] and queries = ref [] in
  fun t ->
    let pass = Memo.find_or_add passes t.fit_id (fun () -> Wl.pass t.dict g) in
    let k_star =
      Memo.find_or_add rows (t.fit_id, t.h) (fun () ->
          Wl_kernel.cross_indexed t.index (Wl.features_at pass ~h:t.h))
    in
    let q =
      Memo.find_or_add queries
        (t.fit_id, t.h, Gp.noise t.gp, Gp.signal t.gp)
        (fun () -> Gp.query (Gp.prior_of t.gp) ~k_star ~k_self:1.0)
    in
    Gp.posterior t.gp q

let predict t g = predictor g t
let predict_many models g = List.map (predictor g) models

(* Eq. 5 adapted to the normalized kernel
   k_n(phi, phi_i) = <phi, phi_i> / (|phi| |phi_i|):
   d k_n / d phi_j = phi_i_j / (r r_i) - <phi, phi_i> phi_j / (r^3 r_i). *)
let feature_gradient t g ~feature_id =
  let f = features_of t g in
  let r = Wl.norm f in
  if r = 0.0 then 0.0
  else
    let phi_j = float_of_int (Wl.count f feature_id) in
    let alpha = Gp.alpha t.gp in
    let acc = ref 0.0 in
    Array.iteri
      (fun i fi ->
        let ri = Wl.norm fi in
        if ri > 0.0 then begin
          let d = Wl.dot f fi in
          let phi_ij = float_of_int (Wl.count fi feature_id) in
          let dk = (phi_ij /. (r *. ri)) -. (d *. phi_j /. (r *. r *. r *. ri)) in
          acc := !acc +. (alpha.(i) *. dk)
        end)
      t.feats;
    Gp.y_std t.gp *. Gp.signal t.gp *. !acc

let present_feature_gradients t g =
  let f = features_of t g in
  List.map (fun (id, _) -> (id, feature_gradient t g ~feature_id:id)) (Wl.to_list f)
