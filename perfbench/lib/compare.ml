type better = Lower | Higher

type verdict = Improved | Same | Regressed | Unresolved | Unbounded

let verdict_name = function
  | Improved -> "improved"
  | Same -> "same"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"
  | Unbounded -> "-"

let better_of_string = function "lower" -> Some Lower | "higher" -> Some Higher | _ -> None

(* Positive when [x] is worse than [base] in the metric's direction. *)
let worsening ~better ~base x =
  let d = (x -. base) /. Float.abs base in
  match better with Lower -> d | Higher -> -.d

let verdict ~better ~bound ~base ~cand =
  match bound with
  | None -> Unbounded
  | Some bound ->
    let mb = Stat.median base and mc = Stat.median cand in
    let all_better =
      List.for_all (fun c -> List.for_all (fun b -> worsening ~better ~base:b c < 0.0) base) cand
    in
    if mb = 0.0 || Float.is_nan mb || Float.is_nan mc then
      if mb = mc then Same else Unresolved
    else
      let spread_base = Stat.spread base in
      let spread = Float.max spread_base (Stat.spread cand) in
      let w = worsening ~better ~base:mb mc in
      if Float.is_nan spread || spread > bound then if all_better then Improved else Unresolved
      else if w > bound then Regressed
      else if w < 0.0 && -.w > spread_base then Improved
      else Same

type metric = { name : string; unit_ : string; better : better; bound : float option }

let metrics_of_bench bench =
  let read ~with_bound key =
    match Json.member key bench with
    | Some (Json.Arr items) ->
      List.filter_map
        (fun item ->
          match
            ( Option.bind (Json.member "name" item) Json.to_str,
              Option.bind (Json.member "unit" item) Json.to_str,
              Option.bind (Option.bind (Json.member "better" item) Json.to_str) better_of_string )
          with
          | Some name, Some unit_, Some better ->
            let bound =
              if with_bound then Option.bind (Json.member "bound" item) Json.to_float else None
            in
            Some { name; unit_; better; bound }
          | _ -> None)
        items
    | Some _ | None -> []
  in
  read ~with_bound:true "end_to_end" @ read ~with_bound:false "per_layer"

let samples records ~workload ~metric =
  List.filter_map
    (fun r ->
      if Option.bind (Json.member "workload" r) Json.to_str = Some workload then
        Option.bind (Json.member "metrics" r) (fun m ->
            Option.bind (Json.member metric m) (fun v ->
                Option.bind (Json.member "value" v) Json.to_float))
      else None)
    records

let workloads records =
  List.fold_left
    (fun acc r ->
      match Option.bind (Json.member "workload" r) Json.to_str with
      | Some w when not (List.mem w acc) -> acc @ [ w ]
      | Some _ | None -> acc)
    [] records

let describe xs =
  match xs with
  | [] -> "(none)"
  | _ ->
    let q1, q2, q3 = Stat.quartiles xs in
    Printf.sprintf "%.6g [%.6g, %.6g] n=%d" q2 q1 q3 (List.length xs)

type mismatch = { workload : string; seed : int; unit_id : int; base : string; cand : string }

(* ((workload, seed, unit id), digest) for every unit of every record. *)
let unit_digests records =
  List.concat_map
    (fun r ->
      match
        ( Option.bind (Json.member "workload" r) Json.to_str,
          Option.bind (Json.member "seed" r) Json.to_float,
          Json.member "unit_digests" r )
      with
      | Some w, Some seed, Some (Json.Obj units) ->
        List.filter_map
          (fun (id, d) ->
            match (int_of_string_opt id, Json.to_str d) with
            | Some id, Some d -> Some ((w, int_of_float seed, id), d)
            | _ -> None)
          units
      | _ -> [])
    records

let digest_mismatches ~base ~cand =
  let b = unit_digests base in
  List.sort_uniq compare
    (List.concat_map
       (fun (((workload, seed, unit_id) as key), c) ->
         List.filter_map
           (fun (k, d) ->
             if k = key && not (String.equal d c) then
               Some { workload; seed; unit_id; base = d; cand = c }
             else None)
           b)
       (unit_digests cand))

let render ~bench ~base ~cand =
  let metrics = metrics_of_bench bench in
  let mismatches = digest_mismatches ~base ~cand in
  let b = Buffer.create 4096 in
  List.iter
    (fun workload ->
      Buffer.add_string b (Printf.sprintf "workload %s\n" workload);
      Buffer.add_string b
        (Printf.sprintf "  %-30s %-8s %-34s %-34s %-9s %s\n" "metric" "unit"
           "base median [q1, q3]" "new median [q1, q3]" "new/base" "verdict");
      List.iter
        (fun m ->
          let xs = samples base ~workload ~metric:m.name in
          let ys = samples cand ~workload ~metric:m.name in
          if xs <> [] || ys <> [] then begin
            let ratio =
              if xs = [] || ys = [] then "-"
              else
                let mb = Stat.median xs in
                if mb = 0.0 then "-" else Printf.sprintf "%.4f" (Stat.median ys /. mb)
            in
            let v =
              if xs = [] || ys = [] then "-"
              else verdict_name (verdict ~better:m.better ~bound:m.bound ~base:xs ~cand:ys)
            in
            let bound =
              match m.bound with Some x -> Printf.sprintf " (bound %.3g)" x | None -> ""
            in
            Buffer.add_string b
              (Printf.sprintf "  %-30s %-8s %-34s %-34s %-9s %s%s\n" m.name m.unit_ (describe xs)
                 (describe ys) ratio v bound)
          end)
        metrics;
      let keys rs =
        List.sort_uniq compare
          (List.filter_map
             (fun ((w, s, u), _) -> if String.equal w workload then Some (s, u) else None)
             (unit_digests rs))
      in
      let shared = List.filter (fun k -> List.mem k (keys cand)) (keys base) in
      let bad = List.filter (fun m -> String.equal m.workload workload) mismatches in
      Buffer.add_string b
        (Printf.sprintf "  unit digests: %d (seed, unit) pairs on both sides, %d differ%s\n"
           (List.length shared)
           (List.length (List.sort_uniq compare (List.map (fun m -> (m.seed, m.unit_id)) bad)))
           (if bad = [] then "" else " -- MISMATCH: the optimizer's results changed"));
      List.iter
        (fun m ->
          Buffer.add_string b
            (Printf.sprintf "    seed %d unit %d: base %s, new %s\n" m.seed m.unit_id m.base m.cand))
        bad)
    (workloads (base @ cand));
  Buffer.contents b
