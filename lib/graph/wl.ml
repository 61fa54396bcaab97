type pattern =
  | Base of string
  | Composed of { root : int; neighbors : int list; iteration : int }

(* A pattern is its own interning key: structural equality and hashing on
   the label or on (iteration, root, sorted neighbor ids) identify exactly
   the patterns that deserve one id. *)
type dict = {
  intern : (pattern, int) Hashtbl.t;
  mutable patterns : pattern array;
  mutable used : int;
}

let create_dict () = { intern = Hashtbl.create 64; patterns = Array.make 64 (Base ""); used = 0 }

let dict_size d = d.used

let register d pattern =
  match Hashtbl.find_opt d.intern pattern with
  | Some id -> id
  | None ->
    let id = d.used in
    if id = Array.length d.patterns then begin
      let bigger = Array.make (2 * id) (Base "") in
      Array.blit d.patterns 0 bigger 0 id;
      d.patterns <- bigger
    end;
    d.patterns.(id) <- pattern;
    d.used <- d.used + 1;
    Hashtbl.replace d.intern pattern id;
    id

let base_id d lbl = register d (Base lbl)

let composed_id d ~iteration ~root ~neighbors =
  register d (Composed { root; neighbors; iteration })

let pattern d id =
  if id < 0 || id >= d.used then invalid_arg "Wl: unknown feature id";
  d.patterns.(id)

let rec describe d id =
  match pattern d id with
  | Base lbl -> lbl
  | Composed { root; neighbors; _ } ->
    let root_desc =
      match pattern d root with
      | Base lbl -> lbl
      | Composed _ -> describe d root
    in
    Printf.sprintf "%s(%s)" root_desc (String.concat ", " (List.map (describe d) neighbors))

let feature_iteration d id =
  match pattern d id with Base _ -> 0 | Composed { iteration; _ } -> iteration

type features = (int * int) array (* sorted by feature id, counts > 0 *)

(* Run-length encoding of a sorted id array. *)
let counts_of_sorted ids =
  let n = Array.length ids in
  let rec go i acc =
    if i >= n then Array.of_list (List.rev acc)
    else
      let id = ids.(i) in
      let j = ref (i + 1) in
      while !j < n && ids.(!j) = id do
        incr j
      done;
      go !j ((id, !j - i) :: acc)
  in
  go 0 []

(* Relabelling rows are computed on demand, one iteration at a time, so a
   graph queried at several h is relabelled once, and ids are registered in
   the same order as by independent extractions at each h: row k is only
   ever computed after rows 0..k-1, and recomputing a row registers
   nothing new. *)
type pass = {
  dict : dict;
  graph : Labeled_graph.t;
  mutable rows : int array list;  (** rows 0..depth-1, newest first *)
  mutable depth : int;
  mutable sorted : int array;  (** ids of all rows computed, sorted *)
  mutable feats : features list;  (** features at h = depth-1 .. 0 *)
}

let pass d g = { dict = d; graph = g; rows = []; depth = 0; sorted = [||]; feats = [] }

let next_row p =
  let g = p.graph in
  let n = Labeled_graph.n_nodes g in
  match p.rows with
  | [] -> Array.init n (fun v -> base_id p.dict (Labeled_graph.label g v))
  | prev :: _ ->
    let k = p.depth in
    Array.init n (fun v ->
        let neigh = List.sort compare (List.map (fun u -> prev.(u)) (Labeled_graph.neighbors g v)) in
        composed_id p.dict ~iteration:k ~root:prev.(v) ~neighbors:neigh)

let deepen p ~h =
  if h < 0 then invalid_arg "Wl: negative h";
  while p.depth <= h do
    let row = next_row p in
    let merged = Array.append p.sorted row in
    Array.sort Int.compare merged;
    p.rows <- row :: p.rows;
    p.sorted <- merged;
    p.feats <- counts_of_sorted merged :: p.feats;
    p.depth <- p.depth + 1
  done

let features_at p ~h =
  deepen p ~h;
  match List.nth_opt p.feats (p.depth - 1 - h) with
  | Some f -> f
  | None -> invalid_arg "Wl.features_at: missing row"

let node_feature_ids d ~h g =
  if h < 0 then invalid_arg "Wl.node_feature_ids: negative h";
  let p = pass d g in
  deepen p ~h;
  Array.of_list (List.rev p.rows)

let extract d ~h g =
  if h < 0 then invalid_arg "Wl.extract: negative h";
  features_at (pass d g) ~h

let iter f feats = Array.iter (fun (id, c) -> f id c) feats

let count f id =
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) / 2 in
      let fid, c = f.(mid) in
      if fid = id then c else if fid < id then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length f)

let to_list f = Array.to_list f

let dot a b =
  (* Merge join over the two sorted sparse vectors. *)
  let rec go i j acc =
    if i >= Array.length a || j >= Array.length b then acc
    else
      let ia, ca = a.(i) and ib, cb = b.(j) in
      if ia = ib then go (i + 1) (j + 1) (acc +. float_of_int (ca * cb))
      else if ia < ib then go (i + 1) j acc
      else go i (j + 1) acc
  in
  go 0 0 0.0

let norm f = sqrt (dot f f)
