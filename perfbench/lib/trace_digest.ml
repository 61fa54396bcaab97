module Topo_bo = Into_core.Topo_bo
module Evaluator = Into_core.Evaluator

let g x = Printf.sprintf "%.17g" x

let step_line (s : Topo_bo.step) =
  let what =
    match (s.Topo_bo.evaluation, s.Topo_bo.failure, s.Topo_bo.rejection) with
    | Some (e : Evaluator.evaluation), _, _ ->
      Printf.sprintf "E %d %d %s %b" (Into_circuit.Topology.to_index e.topology) e.n_sims
        (g e.fom) e.feasible
    | None, Some f, _ -> "F " ^ Into_core.Fail.to_string f
    | None, None, diags ->
      "R "
      ^ String.concat ","
          (List.map
             (fun (d : Into_analysis.Diagnostic.t) ->
               Into_analysis.Diagnostic.code_id d.Into_analysis.Diagnostic.code)
             diags)
  in
  Printf.sprintf "%d|%s|%d\n" s.Topo_bo.iteration what s.Topo_bo.cumulative_sims

let lines ~label steps = String.concat "" (label :: "\n" :: List.map step_line steps)

let of_steps ~label steps = Digest.to_hex (Digest.string (lines ~label steps))

let combine digests = Digest.to_hex (Digest.string (String.concat "\n" digests))
