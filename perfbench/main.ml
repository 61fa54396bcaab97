(* The INTO-OA benchmark: one workload per invocation, from a seed.

     main.exe --workload sizing|topology|campaign --seed N --seconds S --trace 0|1
              [--out FILE]
     main.exe compare BASE.ndjson NEW.ndjson

   With --trace 0 it measures the end-to-end metrics on an untraced pass;
   with --trace 1 it runs the same units untraced and then traced (the
   evaluation runner wrapped in a span recorder), checks that both passes
   agree, and replays each layer's calls on inputs the traced pass recorded.
   The last line of stdout is one JSON object: correct, attempted, failed
   and metrics.  --out appends a stamped record of the run to FILE, which
   the compare command reads with the bounds in ./BENCHMARK.json.  Everything the run writes lives under
   .perfbench-tmp/ in the working directory and is removed before exit. *)

module W = Workload
module Json = Perfbench_core.Json
module Stat = Perfbench_core.Stat
module Evaluator = Into_core.Evaluator
module Topo_bo = Into_core.Topo_bo
module Progress = Into_runtime.Progress
module Methods = Into_experiments.Methods

let now = Unix.gettimeofday

(* --- arguments --- *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  probe_t0 : float option;  (** set in a set-up probe child: its parent's spawn time *)
  tmp : string option;
}

let usage =
  "main.exe --workload sizing|topology|campaign --seed N --seconds S --trace 0|1 [--out FILE]\n\
   main.exe compare BASE.ndjson NEW.ndjson"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let out = ref None and probe_t0 = ref None and tmp = ref None in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest -> trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None); go rest
    | "--out" :: v :: rest -> out := Some v; go rest
    | "--probe-setup" :: v :: rest -> probe_t0 := float_of_string_opt v; go rest
    | "--tmp" :: v :: rest -> tmp := Some v; go rest
    | a :: _ -> die ("unexpected argument " ^ a)
  in
  go argv;
  match (!workload, !seed) with
  | Some workload, Some seed ->
    {
      workload;
      seed;
      seconds = Option.value !seconds ~default:10.0;
      trace = Option.value !trace ~default:false;
      out = !out;
      probe_t0 = !probe_t0;
      tmp = !tmp;
    }
  | _ -> die "--workload and --seed are required"

(* --- the stamp --- *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let b = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec go () =
          let n = input ic chunk 0 4096 in
          if n > 0 then begin
            Buffer.add_subbytes b chunk 0 n;
            go ()
          end
        in
        go ();
        Some (Buffer.contents b))
  with Sys_error _ -> None

(* A branch's commit is in its loose ref file, or in .git/packed-refs
   once git has packed it. *)
let packed_ref ref_name =
  Option.bind (read_file ".git/packed-refs") (fun text ->
      List.find_map
        (fun line ->
          match String.split_on_char ' ' (String.trim line) with
          | [ hash; name ] when String.equal name ref_name -> Some hash
          | _ -> None)
        (String.split_on_char '\n' text))

let git_rev () =
  match Option.map String.trim (read_file ".git/HEAD") with
  | None -> "unknown"
  | Some head ->
    let prefix = "ref: " in
    let pl = String.length prefix in
    if String.length head > pl && String.equal (String.sub head 0 pl) prefix then
      let ref_name = String.sub head pl (String.length head - pl) in
      match read_file (Filename.concat ".git" ref_name) with
      | Some h -> String.trim h
      | None -> Option.value (packed_ref ref_name) ~default:"unknown"
    else head

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> Float.nan
  | Some status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> Option.fold ~none:acc ~some:(fun k -> k /. 1024.0) (float_of_string_opt kb)
          | [] -> acc)
        | _ -> acc)
      Float.nan (String.split_on_char '\n' status)

(* --- set-up probes --- *)

(* A probe child runs the workload's own set-up and its first unit until
   the first evaluation task is submitted, then prints the time since its
   parent spawned it and exits on the spot. *)
let probe_child w args t0 =
  let report () =
    Printf.printf "probe %.9f\n%!" (now () -. t0);
    Unix._exit 0
  in
  let tmp = Option.value args.tmp ~default:".perfbench-tmp/probe" in
  let recorder = W.recorder ~keep_spans:false in
  recorder.W.on_submit <- report;
  let progress = function Progress.Run_started _ -> report () | _ -> () in
  ignore (W.run_unit w ~tmp ~seed:args.seed ~unit_id:0 ~recorder ~progress);
  prerr_endline "perfbench: probe finished without submitting a task";
  exit 1

let probe_count = 21

let probe_setup w args ~tmp =
  List.init probe_count (fun i ->
      let dir = Filename.concat tmp (Printf.sprintf "probe-%d" i) in
      let r, wfd = Unix.pipe ~cloexec:true () in
      let t0 = now () in
      let argv =
        [|
          Sys.executable_name; "--workload"; w.W.name; "--seed"; string_of_int args.seed;
          "--probe-setup"; Printf.sprintf "%.6f" t0; "--tmp"; dir;
        |]
      in
      let pid = Unix.create_process Sys.executable_name argv Unix.stdin wfd Unix.stderr in
      Unix.close wfd;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      W.rm_rf dir;
      match String.split_on_char ' ' line with
      | [ "probe"; v ] -> float_of_string_opt v
      | _ -> None)

(* --- passes --- *)

type pass = { units : W.unit_result list; recorder : W.recorder; raised : string list }

(* Closed loop: a unit starts when the previous one has returned.  With a
   deadline, a unit starts only if the median unit so far still fits. *)
let run_pass w args ~tmp ~keep_spans ~stop =
  Speed.prepare ();
  let recorder = W.recorder ~keep_spans in
  let units = ref [] and raised = ref [] in
  let rec loop k =
    let walls = List.map (fun (u : W.unit_result) -> u.W.wall_s) !units in
    let go_on =
      match stop with
      | `Count n -> k < n
      | `Until deadline -> k < 3 || now () +. Stat.median walls <= deadline
    in
    if go_on then begin
      if k = 0 then Speed.probe recorder.W.speed;
      (match W.run_unit w ~tmp ~seed:args.seed ~unit_id:k ~recorder ~progress:ignore with
      | u -> units := u :: !units
      | exception exn ->
        raised := Printf.sprintf "unit %d raised %s" k (Printexc.to_string exn) :: !raised);
      Speed.probe recorder.W.speed;
      loop (k + 1)
    end
  in
  loop 0;
  { units = List.rev !units; recorder; raised = List.rev !raised }

(* --- metrics --- *)

let sum f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs

let runs_of (p : pass) = List.concat_map (fun (u : W.unit_result) -> u.W.runs) p.units

let steps_of p = List.concat_map (fun (r : W.opt_run) -> r.W.steps) (runs_of p)

(* A campaign unit serves every evaluation twice, cold and warm. *)
let passes_per_unit w = match w.W.kind with W.Campaign_grid -> 2.0 | W.Topo _ -> 1.0

let task_ms w p =
  match w.W.kind with
  | W.Topo _ -> p.recorder.W.task_ms
  | W.Campaign_grid -> List.map (fun (r : W.opt_run) -> r.W.elapsed_s *. 1e3) (runs_of p)

type sample = { metric : Layers.metric; samples : int }

(* Times and rates measured inside units are rescaled to the reference
   machine speed (see [Speed]), and the record keeps the measured values
   beside them.  Set-up time is measured in other processes, before the
   run's first speed probe, and is reported as measured. *)
let end_to_end w p ~setup =
  let wall = sum (fun (u : W.unit_result) -> u.W.wall_s) p.units in
  let evals = passes_per_unit w *. float_of_int (List.length (steps_of p)) in
  let sims =
    passes_per_unit w *. sum (fun (r : W.opt_run) -> float_of_int r.W.total_sims) (runs_of p)
  in
  let tasks = task_ms w p in
  let n_units = List.length p.units in
  let tail = Stat.tail tasks in
  let sample name unit_ value samples ~time = ({ metric = Layers.m name unit_ value; samples }, time) in
  let measured =
    [
      sample "setup_s" "s" (Stat.median setup) (List.length setup) ~time:0.0;
      sample "wall_s" "s"
        (Stat.median (List.map (fun (u : W.unit_result) -> u.W.wall_s) p.units))
        n_units ~time:1.0;
      sample "topo_evals_per_s" "1/s" (evals /. wall) n_units ~time:(-1.0);
      sample "sims_per_s" "1/s" (sims /. wall) n_units ~time:(-1.0);
      sample "task_ms_p50" "ms" (Stat.median tasks) (List.length tasks) ~time:1.0;
      sample "task_ms_tail" "ms"
        (Option.fold ~none:Float.nan ~some:(fun t -> t.Stat.value) tail)
        (List.length tasks) ~time:1.0;
      sample "peak_rss_mb" "MB"
        (peak_rss_mb () -. (float_of_int Speed.bytes /. 1048576.0))
        1 ~time:0.0;
    ]
  in
  let factor = Speed.factor p.recorder.W.speed in
  let rescale (s, time) =
    { s with metric = { s.metric with Layers.value = s.metric.Layers.value *. (factor ** time) } }
  in
  (List.map rescale measured, List.map fst measured, factor, tail)

let quality p =
  let runs = runs_of p in
  let foms = List.filter_map (fun (r : W.opt_run) -> r.W.best_fom) runs in
  let steps = steps_of p in
  let failed = List.filter (fun (s : Topo_bo.step) -> Option.is_some s.Topo_bo.failure) steps in
  let n = float_of_int in
  [
    Layers.m "quality.best_fom_mean" "FoM" (sum Fun.id foms /. n (max 1 (List.length foms)));
    Layers.m "quality.feasible_share" "share" (n (List.length foms) /. n (max 1 (List.length runs)));
    Layers.m "quality.eval_fail_share" "share"
      (n (List.length failed) /. n (max 1 (List.length steps)));
  ]

(* Baseline outer loops: one FE-GA and one VGAE-BO run at the workload's
   scale on a serial timing runner; everything outside the runner is the
   optimizer's own time.  The campaign workload, whose traced pass cannot
   see inside [Campaign.execute], also replays one INTO-OA run. *)
let scale_of w =
  match w.W.kind with
  | W.Topo p ->
    {
      Methods.runs = 1;
      n_init = p.W.n_init;
      iterations = p.W.iterations;
      pool = p.W.pool;
      sizing_init = p.W.sizing_init;
      sizing_iters = p.W.sizing_iters;
    }
  | W.Campaign_grid -> W.campaign_scale

let replay_runs w args =
  let spec = match w.W.kind with W.Topo p -> W.spec_of_unit p 0 | W.Campaign_grid -> Into_circuit.Spec.s1 in
  let methods =
    match w.W.kind with
    | W.Topo _ -> [ Methods.Fe_ga; Methods.Vgae_bo ]
    | W.Campaign_grid -> [ Methods.Into_oa; Methods.Fe_ga; Methods.Vgae_bo ]
  in
  List.mapi
    (fun i id ->
      let recorder = W.recorder ~keep_spans:true in
      let runner = W.timed_runner recorder ~parent:(-1 - i) Evaluator.serial_runner in
      let rng = Into_util.Rng.create ~seed:(W.unit_seed ~seed:args.seed (-1 - i)) in
      let start = now () in
      let trace = Methods.run ~runner id ~scale:(scale_of w) ~rng ~spec in
      let elapsed = now () -. start in
      let inside = sum (fun (s : W.span) -> s.W.stop -. s.W.start) recorder.W.spans in
      let run =
        {
          W.label = Methods.name id;
          spec;
          steps = trace.Methods.steps;
          best_fom = W.best_fom trace.Methods.best;
          total_sims = trace.Methods.total_sims;
          elapsed_s = elapsed;
        }
      in
      (id, elapsed, elapsed -. inside, List.rev recorder.W.spans, run))
    methods

(* Median over campaign units of their cold and warm pass walls and of the
   cold pass's parallel efficiency; the hit share is over both passes, so
   it is 0.5 when the cold pass finds nothing and the warm pass finds all. *)
let campaign_metrics units =
  let details =
    List.filter_map (fun (u : W.unit_result) -> Option.map (fun d -> (u, d)) u.W.campaign) units
  in
  let med f = Stat.median (List.map f details) in
  let total f = sum (fun (_, d) -> float_of_int (f d)) details in
  [
    Layers.m "cache.hit_share" "share"
      (total (fun d -> d.W.hits) /. Float.max 1.0 (total (fun d -> d.W.lookups)));
    Layers.m "campaign.cold_s" "s" (med (fun (_, d) -> d.W.cold_s));
    Layers.m "campaign.warm_s" "s" (med (fun (_, d) -> d.W.warm_s));
    Layers.m "campaign.parallel_efficiency" "share"
      (med (fun ((u : W.unit_result), d) ->
           sum (fun (r : W.opt_run) -> r.W.elapsed_s) u.W.runs
           /. (float_of_int W.campaign_jobs *. d.W.cold_s)));
  ]

let traced_metrics w args ~tmp ~untraced ~traced =
  let replays = replay_runs w args in
  let outer id = List.find_map (fun (i, _, o, _, _) -> if i = id then Some o else None) replays in
  let spans =
    List.rev traced.recorder.W.spans @ List.concat_map (fun (_, _, _, s, _) -> s) replays
  in
  let evaluations =
    List.concat_map
      (fun (r : W.opt_run) ->
        List.filter_map
          (fun (s : Topo_bo.step) -> Option.map (fun e -> (r.W.spec, e)) s.Topo_bo.evaluation)
          r.W.steps)
      (runs_of traced @ List.map (fun (_, _, _, _, r) -> r) replays)
  in
  let inputs = { Layers.seed = args.seed; tmp; spans; evaluations } in
  let steps = steps_of traced in
  let rejected = List.filter (fun (s : Topo_bo.step) -> s.Topo_bo.rejection <> []) steps in
  let reject_share =
    float_of_int (List.length rejected) /. float_of_int (max 1 (List.length steps))
  in
  let outer_share =
    match w.W.kind with
    | W.Topo _ ->
      let wall = sum (fun (u : W.unit_result) -> u.W.wall_s) traced.units in
      let inside = sum (fun (s : W.span) -> s.W.stop -. s.W.start) traced.recorder.W.spans in
      (wall -. inside) /. wall
    | W.Campaign_grid -> (
      match List.find_opt (fun (i, _, _, _, _) -> i = Methods.Into_oa) replays with
      | Some (_, elapsed, outer, _, _) -> outer /. elapsed
      | None -> Float.nan)
  in
  let payload =
    Marshal.to_string (List.map (fun (r : W.opt_run) -> r.W.steps) (runs_of traced)) []
  in
  (* The runtime group's pass figures come from real campaign units: the
     traced pass's own on [campaign], and one campaign unit run after the
     traced pass on the serial workloads, whose units never reach the
     engine, the cache or the pool. *)
  let campaign_units, replay_errors =
    match w.W.kind with
    | W.Campaign_grid -> (traced.units, [])
    | W.Topo _ ->
      let u =
        W.run_unit W.campaign ~tmp ~seed:args.seed ~unit_id:0
          ~recorder:(W.recorder ~keep_spans:false) ~progress:ignore
      in
      ([ u ], u.W.errors)
  in
  (* Both passes' walls at the reference speed, so a drift of the machine
     between the passes does not read as tracing overhead. *)
  let walls p =
    Speed.factor p.recorder.W.speed *. sum (fun (u : W.unit_result) -> u.W.wall_s) p.units
  in
  let overhead = (walls traced /. walls untraced) -. 1.0 in
  let gc f = Stat.median (List.map f traced.units) in
  let samples n = List.map (fun m -> { metric = m; samples = n }) in
  let n_traced = List.length traced.units in
  let metrics =
    samples n_traced
      (Layers.circuit inputs
    @ Layers.analysis inputs ~reject_share
    @ Layers.sizing inputs
    @ Layers.topo_bo inputs ~outer_share
    @ [
        Layers.m "baselines.fe_ga_outer_s" "s" (Option.value (outer Methods.Fe_ga) ~default:Float.nan);
        Layers.m "baselines.vgae_bo_outer_s" "s" (Option.value (outer Methods.Vgae_bo) ~default:Float.nan);
      ]
    @ Layers.runtime inputs ~payload)
    @ samples (List.length campaign_units) (campaign_metrics campaign_units)
    @ samples n_traced [
        Layers.m "gc.minor_mwords" "Mwords" (gc (fun (u : W.unit_result) -> u.W.minor_words /. 1e6));
        Layers.m "gc.major_collections" "count"
          (gc (fun (u : W.unit_result) -> float_of_int u.W.major_collections));
      ]
    @ samples n_traced (quality traced @ [ Layers.m "trace_overhead_share" "share" overhead ])
  in
  (metrics, overhead, replay_errors)

(* --- output --- *)

let metric_json (s : sample) ~with_samples =
  Json.Obj
    ([ ("value", Json.Num s.metric.Layers.value); ("unit", Json.Str s.metric.Layers.unit_) ]
    @ if with_samples then [ ("samples", Json.Num (float_of_int s.samples)) ] else [])

let run args w =
  let tmp_root = ".perfbench-tmp" in
  let tmp =
    match args.tmp with
    | Some t -> t
    | None -> Filename.concat tmp_root (Printf.sprintf "run-%d" (Unix.getpid ()))
  in
  Into_runtime.Fsutil.mkdir_p tmp;
  let cleanup () =
    W.rm_rf tmp;
    try Unix.rmdir tmp_root with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup (fun () ->
      let start = now () in
      let errors = ref [] and attempted = ref 0 and failed = ref 0 in
      let fail msg =
        errors := msg :: !errors;
        incr failed
      in
      (* Set-up time is an end-to-end metric, so only untraced runs probe it. *)
      let setup = if args.trace then [] else List.filter_map Fun.id (probe_setup w args ~tmp) in
      if (not args.trace) && List.length setup < probe_count then
        fail "a set-up probe did not reach its first task";
      let note_pass p =
        attempted := !attempted + List.length p.units + List.length p.raised;
        List.iter fail p.raised;
        List.iter
          (fun (u : W.unit_result) -> if u.W.errors <> [] then fail (String.concat "; " u.W.errors))
          p.units
      in
      let remaining () = args.seconds -. (now () -. start) in
      let samples, extra, overhead, units =
        if not args.trace then begin
          (* Leave room for the repetition of unit 0 that closes the run. *)
          let reserve = match w.W.kind with W.Topo _ -> 0.1 *. args.seconds | W.Campaign_grid -> 0.0 in
          let p =
            run_pass w args ~tmp ~keep_spans:false ~stop:(`Until (now () +. remaining () -. reserve))
          in
          note_pass p;
          (match (w.W.kind, p.units) with
          | W.Topo _, u0 :: _ ->
            let again = run_pass w args ~tmp ~keep_spans:false ~stop:(`Count 1) in
            incr attempted;
            (match again.units with
            | [ r ] when String.equal r.W.digest u0.W.digest -> ()
            | _ -> fail "unit 0 repeated gave a different digest")
          | _ -> ());
          let e2e, measured, factor, tail = end_to_end w p ~setup in
          let tail_note =
            match tail with
            | Some t ->
              [
                ("task_ms_tail_percentile", Json.Num t.Stat.percentile);
                ("task_ms_tail_beyond", Json.Num (float_of_int t.Stat.beyond));
              ]
            | None -> []
          in
          ( e2e,
            tail_note
            @ [
                ("speed_factor", Json.Num factor);
                ("speed_samples", Json.Num (float_of_int p.recorder.W.speed.Speed.samples));
                ( "measured",
                  Json.Obj
                    (List.map
                       (fun s -> (s.metric.Layers.name, Json.Num s.metric.Layers.value))
                       measured) );
              ],
            Json.Null,
            p.units )
        end
        else begin
          let untraced =
            run_pass w args ~tmp ~keep_spans:false ~stop:(`Until (now () +. (0.4 *. remaining ())))
          in
          let traced = run_pass w args ~tmp ~keep_spans:true ~stop:(`Count (List.length untraced.units)) in
          note_pass untraced;
          note_pass traced;
          List.iter
            (fun (a : W.unit_result) ->
              match List.find_opt (fun (b : W.unit_result) -> b.W.unit_id = a.W.unit_id) traced.units with
              | Some b when not (String.equal a.W.digest b.W.digest) ->
                fail (Printf.sprintf "unit %d: traced digest differs from untraced" a.W.unit_id)
              | Some _ | None -> ())
            untraced.units;
          let metrics, overhead, replay_errors = traced_metrics w args ~tmp ~untraced ~traced in
          attempted := !attempted + 1;
          List.iter fail replay_errors;
          ( metrics,
            [],
            Json.Num overhead,
            traced.units )
        end
      in
      let n_units = List.length units in
      let digest =
        Perfbench_core.Trace_digest.combine (List.map (fun (u : W.unit_result) -> u.W.digest) units)
      in
      let correct = !errors = [] in
      List.iter (fun e -> prerr_endline ("perfbench: FAILED " ^ e)) (List.rev !errors);
      Printf.eprintf "perfbench: workload %s, seed %d, %d units, %.1f s, digest %s\n" w.W.name
        args.seed n_units (now () -. start) digest;
      List.iter
        (fun s ->
          Printf.eprintf "  %-32s %14.6g %-7s (%d samples)\n" s.metric.Layers.name
            s.metric.Layers.value s.metric.Layers.unit_ s.samples)
        samples;
      let head =
        [
          ("correct", Json.Bool correct);
          ("attempted", Json.Num (float_of_int !attempted));
          ("failed", Json.Num (float_of_int !failed));
        ]
      in
      let metrics ~with_samples =
        Json.Obj (List.map (fun s -> (s.metric.Layers.name, metric_json s ~with_samples)) samples)
      in
      Option.iter
        (fun path ->
          let record =
            Json.Obj
              ([
                 ("rev", Json.Str (git_rev ()));
                 ("date", Json.Str (date ()));
                 ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
                 ("ocaml", Json.Str Sys.ocaml_version);
                 ("workload", Json.Str w.W.name);
                 ("seed", Json.Num (float_of_int args.seed));
                 ("seconds", Json.Num args.seconds);
                 ("trace", Json.Num (if args.trace then 1.0 else 0.0));
                 ("trace_overhead_share", overhead);
                 ("units", Json.Num (float_of_int n_units));
                 ("digest", Json.Str digest);
                 ( "unit_digests",
                   Json.Obj
                     (List.map
                        (fun (u : W.unit_result) -> (string_of_int u.W.unit_id, Json.Str u.W.digest))
                        units) );
                 ( "unit_wall_s",
                   Json.Obj
                     (List.map
                        (fun (u : W.unit_result) -> (string_of_int u.W.unit_id, Json.Num u.W.wall_s))
                        units) );
               ]
              @ head @ extra
              @ [ ("metrics", metrics ~with_samples:true) ])
          in
          let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
          output_string oc (Json.to_string record ^ "\n");
          close_out oc)
        args.out;
      print_endline (Json.to_string (Json.Obj (head @ [ ("metrics", metrics ~with_samples:false) ])));
      correct)

let read_records path =
  match read_file path with
  | None -> die ("cannot read " ^ path)
  | Some text ->
    List.filter_map
      (fun line ->
        if String.trim line = "" then None
        else
          match Json.parse line with
          | v -> Some v
          | exception Json.Parse_error msg -> die (Printf.sprintf "%s: %s" path msg))
      (String.split_on_char '\n' text)

(* Exits 1 when a unit run on both sides gave different trace digests. *)
let compare_cmd = function
  | [ base; cand ] ->
    let bench =
      match Option.map Json.parse (read_file "BENCHMARK.json") with
      | Some b -> b
      | None -> die "cannot read BENCHMARK.json"
      | exception Json.Parse_error msg -> die ("BENCHMARK.json: " ^ msg)
    in
    let base = read_records base and cand = read_records cand in
    print_string (Perfbench_core.Compare.render ~bench ~base ~cand);
    if Perfbench_core.Compare.digest_mismatches ~base ~cand <> [] then exit 1
  | _ -> die "compare needs two result files"

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "compare" :: rest -> compare_cmd rest
  | argv -> (
    let args = parse_args argv in
    let w =
      match W.find args.workload with
      | Some w -> w
      | None -> die ("unknown workload " ^ args.workload)
    in
    match args.probe_t0 with
    | Some t0 -> probe_child w args t0
    | None -> if not (run args w) then exit 1)
