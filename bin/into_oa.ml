(* The INTO-OA command-line interface.

   Subcommands:
     specs      - print the Table I specification sets
     optimize   - run a topology-optimization method on a spec
     evaluate   - size and report one topology (by design-space index)
     lint       - static verification: one topology, or the whole space
     refine     - refine the C1/C2 legacy designs for S-5
     tables     - regenerate the paper's evaluation (Tables I-V, Fig. 5,
                  E5-E9) and write the campaign CSVs                        *)

open Cmdliner

module Spec = Into_circuit.Spec
module Topology = Into_circuit.Topology
module Perf = Into_circuit.Perf
module Methods = Into_experiments.Methods
module Campaign = Into_experiments.Campaign
module Report = Into_experiments.Report

let spec_conv =
  let parse s =
    match Spec.find s with
    | spec -> Ok spec
    | exception Not_found ->
      Error (`Msg (Printf.sprintf "unknown spec %S (expected S-1 .. S-5)" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt s.Spec.name)

let method_conv =
  let parse s =
    match List.find_opt (fun m -> String.equal (Methods.name m) s) Methods.all with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown method %S (expected %s)" s
             (String.concat ", " (List.map Methods.name Methods.all))))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Methods.name m))

let spec_arg =
  Arg.(value & opt spec_conv Spec.s1 & info [ "spec" ] ~docv:"SPEC" ~doc:"Specification set (S-1 .. S-5).")

let seed_arg =
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* --- runtime engine flags (shared by optimize / evaluate / tables) --- *)

type runtime_flags = {
  jobs : int;
  cache_dir : string;
  no_cache : bool;
  resume : bool;
  retries : int;
  task_deadline : float option;
  chaos : string option;
}

let runtime_term =
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for parallel evaluation. Default 1 (serial); 0 means \
                   one per core. Results are identical at any job count.")
  in
  let cache_dir =
    Arg.(value & opt string ".into-oa-cache"
         & info [ "cache-dir" ] ~docv:"DIR"
             ~doc:"Directory holding the persistent evaluation cache and checkpoint \
                   journals (default $(b,.into-oa-cache)).")
  in
  let no_cache =
    Arg.(value & flag
         & info [ "no-cache" ] ~doc:"Disable the persistent evaluation cache.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from the checkpoint journal left by an interrupted invocation \
                   instead of starting fresh.")
  in
  let retries =
    Arg.(value & opt int 2
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retries per failed evaluation task (default 2). Transient failures \
                   re-run the same task after a backoff; numerical ones re-seed \
                   deterministically.")
  in
  let task_deadline =
    Arg.(value & opt (some float) None
         & info [ "task-deadline" ] ~docv:"SECS"
             ~doc:"Cooperative wall-clock deadline per sizing run; an expired task is \
                   classified as a timeout and retried. Default: none.")
  in
  let chaos =
    Arg.(value & opt (some string) None
         & info [ "chaos" ] ~docv:"SPEC"
             ~doc:"Arm the deterministic fault-injection harness, e.g. \
                   $(b,seed=7,delay=0.2,crash=0.1). Sites: singular, nan, delay, crash, \
                   cache, tear; $(b,all) sets every rate; rates in [0,1].")
  in
  Term.(const (fun jobs cache_dir no_cache resume retries task_deadline chaos ->
            { jobs; cache_dir; no_cache; resume; retries; task_deadline; chaos })
        $ jobs $ cache_dir $ no_cache $ resume $ retries $ task_deadline $ chaos)

let make_runtime ?journal flags =
  let cache =
    if flags.no_cache then None
    else Some (Into_runtime.Cache.create ~dir:flags.cache_dir)
  in
  let checkpoint =
    Option.map
      (fun name ->
        Into_runtime.Checkpoint.start
          ~path:(Filename.concat flags.cache_dir name)
          ~fresh:(not flags.resume))
      journal
  in
  let faultin =
    Option.map
      (fun spec ->
        match Into_runtime.Faultin.parse spec with
        | Ok fi -> fi
        | Error msg ->
          Printf.eprintf "bad --chaos spec: %s\n" msg;
          exit 2)
      flags.chaos
  in
  let supervise =
    {
      Into_runtime.Supervise.default_policy with
      Into_runtime.Supervise.max_retries = max 0 flags.retries;
      deadline_s = flags.task_deadline;
    }
  in
  Into_runtime.Exec.create ~jobs:flags.jobs ?cache ?checkpoint ~supervise ?faultin ()

(* A bad INTO_OA_* value or --scale name is a usage error, like a bad flag. *)
let scale_or_exit = function
  | Ok scale -> scale
  | Error msg ->
    prerr_endline msg;
    exit 2

(* The summary goes to stderr so stdout stays identical across -j values. *)
let finish_runtime runtime =
  Printf.eprintf "%s\n%!" (Into_runtime.Exec.summary runtime);
  Option.iter Into_runtime.Checkpoint.close (Into_runtime.Exec.checkpoint runtime)

let iterations_arg =
  Arg.(value & opt int 50 & info [ "iterations" ] ~docv:"N" ~doc:"Search iterations.")

let pool_arg =
  Arg.(value & opt int 200 & info [ "pool" ] ~docv:"N" ~doc:"Candidate pool size.")

(* --- specs --- *)

let specs_cmd =
  let run () = List.iter (fun s -> print_endline (Spec.to_string s)) Spec.all in
  Cmd.v (Cmd.info "specs" ~doc:"Print the Table I specification sets.")
    Term.(const run $ const ())

(* --- optimize --- *)

let optimize method_id spec seed iterations pool verbose flags =
  let scale =
    { (scale_or_exit (Methods.scale_of_env ())) with Methods.runs = 1; iterations; pool }
  in
  let runtime = make_runtime ~journal:"optimize.ckpt" flags in
  let campaign =
    Into_experiments.Campaign.execute ~runtime ~methods:[ method_id ] ~specs:[ spec ]
      ~scale ~seed ()
  in
  let trace =
    match campaign with
    | [ r ] -> r.Into_experiments.Campaign.trace
    | _ -> assert false (* the grid has exactly one cell *)
  in
  if verbose then
    List.iter
      (fun (s : Into_core.Topo_bo.step) ->
        Printf.printf "iter %2d  #sim %4d  best %s  %s\n" s.Into_core.Topo_bo.iteration
          s.Into_core.Topo_bo.cumulative_sims
          (match s.Into_core.Topo_bo.best_fom_so_far with
          | Some f -> Printf.sprintf "%10.1f" f
          | None -> "         -")
          (match (s.Into_core.Topo_bo.evaluation, s.Into_core.Topo_bo.rejection) with
          | Some e, _ -> Topology.to_string e.Into_core.Evaluator.topology
          | None, [] -> "(simulation failure)"
          | None, d :: _ ->
            Printf.sprintf "(rejected: %s)" (Into_analysis.Diagnostic.to_string d)))
      trace.Methods.steps;
  Printf.printf "%s on %s: %d simulations" (Methods.name method_id) spec.Spec.name
    trace.Methods.total_sims;
  if trace.Methods.rejections > 0 then
    Printf.printf ", %d candidates rejected by the static gate" trace.Methods.rejections;
  print_newline ();
  (match trace.Methods.best with
  | None -> print_endline "No feasible design found."
  | Some e ->
    Printf.printf "Best design: %s\n  %s\n"
      (Topology.to_string e.Into_core.Evaluator.topology)
      (Perf.to_string e.Into_core.Evaluator.perf ~cl_f:spec.Spec.cl_f));
  finish_runtime runtime

let optimize_cmd =
  let method_arg =
    Arg.(value & opt method_conv Methods.Into_oa
         & info [ "method" ] ~docv:"METHOD" ~doc:"Optimization method.")
  in
  let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the trace.") in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run topology optimization on a specification.")
    Term.(const optimize $ method_arg $ spec_arg $ seed_arg $ iterations_arg $ pool_arg
          $ verbose_arg $ runtime_term)

(* --- evaluate --- *)

let evaluate index spec seed flags =
  match Topology.of_index index with
  | exception Invalid_argument _ ->
    Printf.eprintf "index out of range (0 .. %d)\n" (Topology.space_size - 1);
    exit 1
  | topo ->
    Printf.printf "Topology %d: %s\n" index (Topology.to_string topo);
    let runtime = make_runtime flags in
    let task =
      Into_core.Evaluator.task ~spec ~sizing_config:Into_core.Sizing.default_config ~seed
        topo
    in
    let outcome = Into_runtime.Exec.evaluate runtime task in
    print_endline (Into_core.Design_report.outcome_summary ~cl_f:spec.Spec.cl_f outcome);
    finish_runtime runtime

let evaluate_cmd =
  let index_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX" ~doc:"Design-space index.")
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Size one topology (by index) for a specification.")
    Term.(const evaluate $ index_arg $ spec_arg $ seed_arg $ runtime_term)

(* --- lint --- *)

let lint all codes index spec =
  let module Diagnostic = Into_analysis.Diagnostic in
  if codes then begin
    List.iter
      (fun code ->
        Printf.printf "%s  %-7s  %s\n" (Diagnostic.code_id code)
          (Diagnostic.severity_name (Diagnostic.severity_of_code code))
          (Diagnostic.describe_code code))
      Diagnostic.all_codes;
    exit 0
  end;
  if all then begin
    let report = Into_analysis.Sweep.run ~cl_f:spec.Spec.cl_f () in
    print_endline (Into_analysis.Sweep.summary report);
    exit (if report.Into_analysis.Sweep.errors > 0 then 1 else 0)
  end;
  match index with
  | None ->
    prerr_endline "lint: pass a design-space INDEX, --all or --codes";
    exit 2
  | Some idx ->
    (match Topology.of_index idx with
    | exception Invalid_argument _ ->
      Printf.eprintf "index out of range (0 .. %d)\n" (Topology.space_size - 1);
      exit 1
    | topo -> Printf.printf "Topology %d: %s\n" idx (Topology.to_string topo));
    let diags =
      Into_analysis.Diagnostic.by_severity
        (Into_analysis.Sweep.check_index ~cl_f:spec.Spec.cl_f idx)
    in
    if diags = [] then print_endline "clean: no diagnostics"
    else List.iter (fun d -> print_endline (Diagnostic.to_string d)) diags;
    exit (if Diagnostic.has_errors diags then 1 else 0)

let lint_cmd =
  let all_arg =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Lint every topology of the design space (exit 1 on any error).")
  in
  let codes_arg =
    Arg.(value & flag & info [ "codes" ] ~doc:"Print the diagnostic code table and exit.")
  in
  let index_arg =
    Arg.(value & pos 0 (some int) None & info [] ~docv:"INDEX" ~doc:"Design-space index.")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static verification: audit topologies and their expanded netlists (floating \
          nodes, dangling transconductors, malformed values) without running any \
          simulation.")
    Term.(const lint $ all_arg $ codes_arg $ index_arg $ spec_arg)

(* --- refine --- *)

let refine seed iterations pool =
  let scale = { (scale_or_exit (Methods.scale_of_env ())) with Methods.iterations; pool } in
  let rng = Into_util.Rng.create ~seed in
  let report = Into_experiments.Refine_exp.run ~scale ~rng () in
  print_endline (Into_experiments.Report.table4 report)

let refine_cmd =
  Cmd.v
    (Cmd.info "refine" ~doc:"Refine the C1/C2 legacy designs to meet S-5 (Table IV).")
    Term.(const refine $ seed_arg $ iterations_arg $ pool_arg)

(* --- analyze --- *)

let analyze index spec seed spice =
  match Topology.of_index index with
  | exception Invalid_argument _ ->
    Printf.eprintf "index out of range (0 .. %d)\n" (Topology.space_size - 1);
    exit 1
  | topo ->
    Printf.printf "Topology %d: %s\n" index (Topology.to_string topo);
    let rng = Into_util.Rng.create ~seed in
    let sizing =
      match Into_core.Sizing.best (Into_core.Sizing.optimize ~rng ~spec topo) with
      | Some o -> o.Into_core.Sizing.sizing
      | None ->
        Printf.eprintf "no sizing simulated successfully\n";
        exit 1
    in
    let cl_f = spec.Spec.cl_f in
    (match Perf.evaluate_checked topo ~sizing ~cl_f with
    | Ok p ->
      Printf.printf "%s  (meets %s: %b)\n\n" (Perf.to_string p ~cl_f) spec.Spec.name
        (Perf.satisfies p spec)
    | Error _ -> ());
    let netlist = Into_circuit.Netlist.build topo ~sizing ~cl_f in
    print_endline (Into_circuit.Poles_zeros.describe (Into_circuit.Poles_zeros.analyze netlist));
    let closed = Into_circuit.Poles_zeros.closed_loop_poles netlist in
    Printf.printf "unity-feedback stable: %b\n\n"
      (List.for_all (fun z -> z.Complex.re < 0.0) closed);
    let w = Into_circuit.Transient.step_response netlist in
    (match Into_circuit.Transient.measure w with
    | None -> print_endline "closed-loop step: no DC operating point (singular at DC)"
    | Some m ->
      Printf.printf "closed-loop step: overshoot %.1f%%, settling %s\n"
        m.Into_circuit.Transient.overshoot_pct
        (match m.Into_circuit.Transient.settling_time_s with
        | Some t -> Printf.sprintf "%.3g s (1%% band)" t
        | None -> "did not settle"));
    let nz = Into_circuit.Noise.analyze netlist in
    Printf.printf "noise: %.3g Vrms at the output, %s input-referred\n"
      nz.Into_circuit.Noise.output_rms_v
      (match nz.Into_circuit.Noise.input_spot_nv with
      | Some v -> Printf.sprintf "%.1f nV/sqrt(Hz)" v
      | None -> "n/a (zero signal gain)");
    let mc =
      Into_circuit.Montecarlo.run ~rng:(Into_util.Rng.create ~seed:(seed + 1)) ~spec topo
        ~sizing
    in
    Printf.printf "monte-carlo (5%% spread, %d trials): yield %.0f%%, worst PM %.1f deg\n"
      mc.Into_circuit.Montecarlo.trials
      (100.0 *. mc.Into_circuit.Montecarlo.yield)
      mc.Into_circuit.Montecarlo.worst_pm_deg;
    if spice then begin
      print_newline ();
      print_string (Into_circuit.Spice_export.behavioral topo ~sizing ~cl_f)
    end

let analyze_cmd =
  let index_arg =
    Arg.(required & pos 0 (some int) None & info [] ~docv:"INDEX" ~doc:"Design-space index.")
  in
  let spice_arg = Arg.(value & flag & info [ "spice" ] ~doc:"Also print a SPICE deck.") in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Size a topology, then characterize it: poles/zeros, exact stability, step \
          response, noise, Monte-Carlo yield.")
    Term.(const analyze $ index_arg $ spec_arg $ seed_arg $ spice_arg)

(* --- tables --- *)

(* Progress and bookkeeping lines go to stderr, so stdout stays identical
   across -j values, cache temperature and resume. *)
let progress_line s = Printf.eprintf "  [%s]\n%!" s

let campaign_progress (e : Into_runtime.Progress.event) =
  match e with
  | Run_finished _ -> ()
  | Run_started _ | Run_restored _ | Run_failed _ ->
    progress_line (Into_runtime.Progress.render e)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let write_csvs campaign =
  try
    Into_experiments.Csv.write_file ~path:"campaign_runs.csv"
      (Into_experiments.Csv.campaign_runs campaign);
    Into_experiments.Csv.write_file ~path:"campaign_table2.csv"
      (Into_experiments.Csv.campaign_table2 campaign);
    prerr_endline "(wrote campaign_runs.csv and campaign_table2.csv)"
  with Sys_error msg -> Printf.eprintf "csv export failed: %s\n" msg

(* The S-1 panel of Fig. 5 as an actual (text) plot. *)
let print_fig5_plot campaign =
  print_newline ();
  print_endline "Fig. 5 (S-1 panel, plotted):";
  let series =
    List.map
      (fun (name, pts) ->
        (name, List.filter_map (fun (s, f, n) -> if n > 0 then Some (float_of_int s, f) else None) pts))
      (Campaign.fig5_series campaign Spec.s1 ~grid_step:120)
  in
  print_string (Into_util.Ascii_plot.plot ~x_label:"# simulations" ~y_label:"FoM" series)

(* E5: WL-GP gradients vs sensitivity. A dedicated INTO-OA run keeps its
   WL-GP surrogates for the analysis. *)
let print_interpretability scale =
  section "E5: identification of critical structures (Section IV-B)";
  let rng = Into_util.Rng.create ~seed:44 in
  let config =
    {
      (Into_core.Topo_bo.default_config Into_core.Candidates.Mixed) with
      Into_core.Topo_bo.n_init = scale.Methods.n_init;
      iterations = scale.Methods.iterations;
      pool = scale.Methods.pool;
    }
  in
  let r = Into_core.Topo_bo.run ~config ~rng ~spec:Spec.s4 () in
  match r.Into_core.Topo_bo.best with
  | None -> print_endline "  (no feasible S-4 design found at this scale)"
  | Some design ->
    let report =
      Into_experiments.Interpret_exp.analyze ~models:r.Into_core.Topo_bo.models
        ~spec:Spec.s4 ~design
    in
    print_endline (Report.gradients report)

let print_refinement scale =
  section "E6: topology refinement of C1 and C2 under S-5 (Fig. 7, Table IV)";
  let rng = Into_util.Rng.create ~seed:45 in
  let report = Into_experiments.Refine_exp.run ~scale ~rng () in
  Printf.printf "  (surrogate training: %d simulations from an S-5 INTO-OA run)\n\n"
    report.Into_experiments.Refine_exp.models_sims;
  print_endline (Report.table4 report);
  report

let print_tlevel campaign refinement =
  section "E7: transistor-level validation (Table V)";
  let rows =
    Into_experiments.Tlevel_exp.from_campaign campaign
      ~methods:[ Methods.Fe_ga; Methods.Vgae_bo; Methods.Into_oa ]
    @ Into_experiments.Tlevel_exp.from_refinements refinement
  in
  print_endline (Report.table5 rows)

let print_ablations scale =
  section "E8b: ablation study (WL depth, wEI weight, pool size) on S-4";
  let scale = { scale with Methods.runs = min scale.Methods.runs 4 } in
  let rows =
    Into_experiments.Ablation.run ~progress:progress_line ~spec:Spec.s4 ~scale ~seed:777 ()
  in
  print_endline (Into_experiments.Ablation.report Spec.s4 rows)

let print_surrogate_quality scale =
  section "E9: held-out surrogate quality (WL-GP vs continuous embedding)";
  let sizing_config =
    {
      Into_core.Sizing.default_config with
      Into_core.Sizing.n_init = scale.Methods.sizing_init;
      n_iter = scale.Methods.sizing_iters;
    }
  in
  let r =
    Into_experiments.Surrogate_exp.run ~progress:progress_line ~n_train:60 ~n_test:30
      ~spec:Spec.s1 ~sizing_config ~seed:99 ()
  in
  print_endline (Into_experiments.Surrogate_exp.render Spec.s1 r)

(* E1-E4 come from the campaign and run through the runtime engine; E5-E9
   run serially with fixed seeds. *)
let tables seed scale_name flags =
  let scale = scale_or_exit (Methods.scale_of_name scale_name) in
  let runtime = make_runtime ~journal:"campaign.ckpt" flags in
  let campaign = Campaign.execute ~progress:campaign_progress ~runtime ~scale ~seed () in
  print_endline (Report.table1 ());
  print_newline ();
  List.iter
    (fun spec ->
      print_endline (Report.fig5 campaign spec);
      print_newline ())
    Spec.all;
  print_endline (Report.table2 campaign);
  print_newline ();
  print_endline
    (Report.table3 campaign ~methods:[ Methods.Fe_ga; Methods.Vgae_bo; Methods.Into_oa ]);
  print_newline ();
  print_endline (Report.lint_summary campaign);
  write_csvs campaign;
  print_fig5_plot campaign;
  print_interpretability scale;
  let refinement = print_refinement scale in
  print_tlevel campaign refinement;
  print_ablations scale;
  print_surrogate_quality scale;
  finish_runtime runtime

let tables_cmd =
  let scale_arg =
    Arg.(value & opt string "env"
         & info [ "scale" ] ~docv:"NAME"
             ~doc:"Campaign scale: $(b,smoke) (CI-sized), $(b,paper) (full paper setup) \
                   or $(b,env) (default; controlled by INTO_OA_RUNS / INTO_OA_ITERS / \
                   INTO_OA_FULL).")
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Regenerate the paper's evaluation: Tables I-V, Fig. 5 and experiments \
          E5-E9 (scale via --scale or INTO_OA_RUNS / INTO_OA_ITERS / INTO_OA_FULL). \
          Also writes campaign_runs.csv and campaign_table2.csv to the working \
          directory.")
    Term.(const tables $ seed_arg $ scale_arg $ runtime_term)

let () =
  let info =
    Cmd.info "into_oa" ~version:"1.0.0"
      ~doc:"Interpretable topology optimization for operational amplifiers."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ specs_cmd; optimize_cmd; evaluate_cmd; analyze_cmd; lint_cmd; refine_cmd; tables_cmd ]))
