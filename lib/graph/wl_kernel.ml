let kernel = Wl.dot

let normalized a b =
  let na = Wl.norm a and nb = Wl.norm b in
  if na = 0.0 || nb = 0.0 then 0.0 else Wl.dot a b /. (na *. nb)

let cross ?(normalize = true) feats q =
  let k = if normalize then normalized else kernel in
  Array.map (fun f -> k f q) feats

(* Postings list per feature id: which training rows hold it, how often. *)
type index = {
  norms : float array;
  rows : int array array;  (** by feature id *)
  counts : int array array;  (** by feature id, parallel to [rows] *)
}

let index feats =
  let width = ref 0 in
  Array.iter (Wl.iter (fun id _ -> width := max !width (id + 1))) feats;
  let len = Array.make !width 0 in
  Array.iter (Wl.iter (fun id _ -> len.(id) <- len.(id) + 1)) feats;
  let rows = Array.map (fun l -> Array.make l 0) len in
  let counts = Array.map (fun l -> Array.make l 0) len in
  let fill = Array.make !width 0 in
  Array.iteri
    (fun i f ->
      Wl.iter
        (fun id c ->
          rows.(id).(fill.(id)) <- i;
          counts.(id).(fill.(id)) <- c;
          fill.(id) <- fill.(id) + 1)
        f)
    feats;
  { norms = Array.map Wl.norm feats; rows; counts }

(* The normalized [cross] through the postings: only the training rows
   sharing a feature with [q] are touched.  Counts are integers, so the
   accumulated dot products are exact and equal to [Wl.dot]'s whatever the
   summation order. *)
let cross_indexed ix q =
  let dots = Array.make (Array.length ix.norms) 0.0 in
  Wl.iter
    (fun id c ->
      if id < Array.length ix.rows then begin
        let rows = ix.rows.(id) and counts = ix.counts.(id) in
        Array.iteri (fun k i -> dots.(i) <- dots.(i) +. float_of_int (counts.(k) * c)) rows
      end)
    q;
  let nq = Wl.norm q in
  Array.mapi
    (fun i d ->
      let ni = ix.norms.(i) in
      if ni = 0.0 || nq = 0.0 then 0.0 else d /. (ni *. nq))
    dots

(* Rows of the normalized gram come from the index too: dot products are
   exact integers and the norm product commutes, so entry (i, j) equals
   [normalized feats.(i) feats.(j)] bit for bit, in either triangle. *)
let gram ?(normalize = true) feats =
  if normalize then
    let ix = index feats in
    Into_linalg.Mat.of_rows (Array.map (cross_indexed ix) feats)
  else
    let n = Array.length feats in
    Into_linalg.Mat.init n n (fun i j -> kernel feats.(i) feats.(j))
