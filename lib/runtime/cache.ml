module Evaluator = Into_core.Evaluator
module Topology = Into_circuit.Topology

let version = 3
let magic = "INTO-OA-CACHE"

type t = {
  root : string;
  n_hits : int Atomic.t;
  n_misses : int Atomic.t;
  n_stores : int Atomic.t;
  n_corrupt : int Atomic.t;
}

let create ~dir =
  Fsutil.mkdir_p dir;
  {
    root = dir;
    n_hits = Atomic.make 0;
    n_misses = Atomic.make 0;
    n_stores = Atomic.make 0;
    n_corrupt = Atomic.make 0;
  }

let dir t = t.root
let hits t = Atomic.get t.n_hits
let misses t = Atomic.get t.n_misses
let stores t = Atomic.get t.n_stores
let corrupt t = Atomic.get t.n_corrupt

let key_of_task (task : Evaluator.task) =
  let spec = task.Evaluator.task_spec in
  let sizing = task.Evaluator.task_sizing in
  Printf.sprintf
    "v%d|topo=%d|spec=%s;%.17g;%.17g;%.17g;%.17g;%.17g|sizing=%d;%d;%d;%.17g;%d;%s|seed=%d"
    version
    (Topology.to_index task.Evaluator.task_topology)
    spec.Into_circuit.Spec.name spec.Into_circuit.Spec.min_gain_db
    spec.Into_circuit.Spec.min_gbw_hz spec.Into_circuit.Spec.min_pm_deg
    spec.Into_circuit.Spec.max_power_w spec.Into_circuit.Spec.cl_f
    sizing.Into_core.Sizing.n_init sizing.Into_core.Sizing.n_iter
    sizing.Into_core.Sizing.n_candidates sizing.Into_core.Sizing.wei_w
    sizing.Into_core.Sizing.refit_every
    (match sizing.Into_core.Sizing.deadline_s with
    | None -> "none"
    | Some s -> Printf.sprintf "%.17g" s)
    task.Evaluator.task_seed

let path_of_key t ~key = Filename.concat t.root (Content_hash.hex key)

(* v2 format: TWO marshalled values per file.  First a header carrying only
   scalar/string fields — always memory-safe to decode, whatever format
   version actually wrote the file — then, separately, the outcome.  The
   outcome is only unmarshalled once the header's magic, version and full
   key have all validated, so an outcome written against an older type
   layout (whose decode would be memory-unsafe) is never touched.  The
   header repeats the full key because the file name is only a 64-bit hash:
   an exact-match check on load turns a collision into a plain miss. *)
type header = {
  h_magic : string;
  h_version : int;
  h_key : string;
}

let find t ~key =
  let path = path_of_key t ~key in
  let entry =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
      let v =
        match (Marshal.from_channel ic : header) with
        | h ->
          if
            String.equal h.h_magic magic
            && h.h_version = version
            && String.equal h.h_key key
          then
            (match (Marshal.from_channel ic : Evaluator.outcome) with
            | outcome -> Some outcome
            | exception _ ->
              Atomic.incr t.n_corrupt;
              None)
          else begin
            Atomic.incr t.n_corrupt;
            None
          end
        | exception _ ->
          Atomic.incr t.n_corrupt;
          None
      in
      close_in_noerr ic;
      v
  in
  (match entry with
  | Some _ -> Atomic.incr t.n_hits
  | None -> Atomic.incr t.n_misses);
  entry

let store t ~key outcome =
  let ok =
    Fsutil.write_atomically ~path:(path_of_key t ~key) (fun oc ->
        Marshal.to_channel oc { h_magic = magic; h_version = version; h_key = key } [];
        Marshal.to_channel oc (outcome : Evaluator.outcome) [])
  in
  if ok then Atomic.incr t.n_stores

let corrupt_entry t ~key =
  let path = path_of_key t ~key in
  match open_out_gen [ Open_wronly; Open_binary ] 0o644 path with
  | exception Sys_error _ -> false
  | oc ->
    (* Stomp the Marshal magic number in place; the next [find] fails to
       decode the header, counts the entry corrupt, and recomputes. *)
    output_string oc "CHAOSCHAOS";
    close_out_noerr oc;
    true
