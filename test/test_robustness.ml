(* Fault-tolerance tests: the Fail taxonomy, the NaN guards in the circuit
   layer, the retry supervisor, the deterministic chaos harness, and the
   end-to-end guarantees — a chaos campaign completes, recovers the
   fault-free results when every retry succeeds, reports exactly the
   injected faults in its ledger, and stays result-identical at any job
   count. *)

module Fail = Into_core.Fail
module Evaluator = Into_core.Evaluator
module Sizing = Into_core.Sizing
module Supervise = Into_runtime.Supervise
module Faultin = Into_runtime.Faultin
module Exec = Into_runtime.Exec
module Cache = Into_runtime.Cache
module Checkpoint = Into_runtime.Checkpoint
module Methods = Into_experiments.Methods
module Campaign = Into_experiments.Campaign
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec
module Perf = Into_circuit.Perf
module Netlist = Into_circuit.Netlist
module Noise = Into_circuit.Noise
module Transient = Into_circuit.Transient
module Wl = Into_graph.Wl
module Wl_gp = Into_gp.Wl_gp
module Circuit_graph = Into_graph.Circuit_graph
module Rng = Into_util.Rng

(* --- temp-dir plumbing (mirrors test_runtime.ml) --- *)

let dir_counter = ref 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let fresh_dir name =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "into_chaos_%s_%d_%d" name (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* --- Fail taxonomy --- *)

let all_fails =
  [
    Fail.Singular;
    Fail.Non_finite "gbw_hz";
    Fail.Timeout;
    Fail.Worker_crash;
    Fail.Cache_corrupt;
    Fail.Other "boom";
  ]

let test_fail_classes () =
  Alcotest.(check int) "six classes" 6 (List.length Fail.all_class_names);
  List.iteri
    (fun i f ->
      Alcotest.(check int) (Fail.class_name f ^ " index") i (Fail.class_index f);
      Alcotest.(check string)
        "class_name matches canonical list" (List.nth Fail.all_class_names i)
        (Fail.class_name f))
    all_fails;
  Alcotest.(check string) "payload in to_string" "non-finite (gbw_hz)"
    (Fail.to_string (Fail.Non_finite "gbw_hz"));
  Alcotest.(check string) "other carries reason" "other: boom"
    (Fail.to_string (Fail.Other "boom"));
  List.iter
    (fun f ->
      let expected =
        match f with
        | Fail.Timeout | Fail.Worker_crash | Fail.Cache_corrupt -> true
        | _ -> false
      in
      Alcotest.(check bool)
        (Fail.class_name f ^ " environmental") expected (Fail.environmental f))
    all_fails

let test_attempt_seed () =
  let s1 = Supervise.attempt_seed ~task_seed:42 ~attempt:1 in
  Alcotest.(check int) "deterministic" s1 (Supervise.attempt_seed ~task_seed:42 ~attempt:1);
  Alcotest.(check bool) "nonnegative" true (s1 >= 0);
  Alcotest.(check bool) "attempt changes the seed" true
    (s1 <> Supervise.attempt_seed ~task_seed:42 ~attempt:2);
  Alcotest.(check bool) "task seed changes the seed" true
    (s1 <> Supervise.attempt_seed ~task_seed:43 ~attempt:1)

(* --- NaN guards in the circuit layer --- *)

let test_perf_nan_guards () =
  let good = { Perf.gain_db = 80.0; gbw_hz = 1e6; pm_deg = 60.0; power_w = 1e-4 } in
  let bad = { good with Perf.gbw_hz = Float.nan } in
  Alcotest.(check bool) "finite record passes" true (Perf.is_finite good);
  Alcotest.(check bool) "NaN record fails" false (Perf.is_finite bad);
  Alcotest.(check bool) "NaN fom pinned to -inf" true
    (Perf.fom bad ~cl_f:10e-12 = Float.neg_infinity);
  Alcotest.(check bool) "finite fom stays finite" true
    (Float.is_finite (Perf.fom good ~cl_f:10e-12));
  Alcotest.(check bool) "NaN never satisfies a spec" false (Perf.satisfies bad Spec.s1);
  Alcotest.(check bool) "infinite power never satisfies" false
    (Perf.satisfies { good with Perf.power_w = Float.infinity } Spec.s1)

(* A network the source never reaches: the signal gain at the output is
   exactly zero, which used to turn the input-referred noise into NaN by
   dividing by |H|^2 = 0. *)
let test_noise_zero_gain () =
  let nl =
    {
      Netlist.prims =
        [
          Netlist.Conductance (Netlist.N 0, Netlist.Gnd, 1e-3);
          Netlist.Conductance (Netlist.N 1, Netlist.Gnd, 1e-3);
          Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1e-3);
          Netlist.Capacitance (Netlist.N 2, Netlist.Gnd, 1e-12);
        ];
      n_unknowns = 3;
      power_w = 0.0;
      gms = [];
    }
  in
  let r = Noise.analyze nl in
  Alcotest.(check bool) "input-referred noise is n/a, not NaN" true
    (r.Noise.input_spot_nv = None);
  Alcotest.(check bool) "output noise stays finite" true
    (Float.is_finite r.Noise.output_rms_v)

let test_transient_no_dc_target () =
  (* A hand-built waveform with no DC operating point: settling metrics are
     absent rather than NaN-poisoned. *)
  let w =
    { Transient.time_s = [| 0.0; 1e-6 |]; vout = [| 0.0; 0.5 |]; final_value = None }
  in
  Alcotest.(check bool) "measure refuses without a target" true (Transient.measure w = None);
  (* A floating capacitor node has no DC solution: the conductance matrix is
     singular, so the simulated waveform itself carries no final value. *)
  let nl =
    {
      Netlist.prims =
        [
          Netlist.Capacitance (Netlist.N 0, Netlist.Gnd, 1e-12);
          Netlist.Conductance (Netlist.N 1, Netlist.Gnd, 1.0);
          Netlist.Conductance (Netlist.N 2, Netlist.Gnd, 1.0);
        ];
      n_unknowns = 3;
      power_w = 0.0;
      gms = [];
    }
  in
  let w = Transient.step_response ~t_end:1e-6 ~points:50 nl in
  Alcotest.(check bool) "singular DC yields no final value" true (w.Transient.final_value = None);
  Alcotest.(check bool) "and therefore no metrics" true (Transient.measure w = None)

let test_wl_gp_rejects_non_finite_targets () =
  let rng = Rng.create ~seed:5 in
  let graphs = Array.init 6 (fun _ -> Circuit_graph.build (Topology.random rng)) in
  let y = Array.init 6 float_of_int in
  y.(3) <- Float.nan;
  let dict = Wl.create_dict () in
  (match Wl_gp.fit ~dict ~graphs ~y () with
  | _ -> Alcotest.fail "fit accepted a NaN target"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "diagnostic names the index" true (contains msg "y.(3)"));
  y.(3) <- Float.infinity;
  match Wl_gp.fit ~dict ~graphs ~y () with
  | _ -> Alcotest.fail "fit accepted an infinite target"
  | exception Invalid_argument _ -> ()

(* --- deadlines --- *)

let small_sizing = { Sizing.default_config with Sizing.n_init = 2; n_iter = 2 }

let test_expired_deadline_classified_as_timeout () =
  let cfg = { small_sizing with Sizing.deadline_s = Some (-1.0) } in
  match
    Evaluator.evaluate_gated ~sizing_config:cfg ~rng:(Rng.create ~seed:3) ~spec:Spec.s1
      (Topology.nmc ())
  with
  | Evaluator.Failed Fail.Timeout -> ()
  | Evaluator.Failed f -> Alcotest.fail ("expected timeout, got " ^ Fail.to_string f)
  | Evaluator.Evaluated _ -> Alcotest.fail "deadline in the past still evaluated"
  | Evaluator.Rejected _ -> Alcotest.fail "static gate rejected the reference topology"

(* --- the retry supervisor --- *)

let nmc_task ~seed =
  Evaluator.task ~spec:Spec.s1 ~sizing_config:small_sizing ~seed (Topology.nmc ())

let no_backoff = { Supervise.max_retries = 2; deadline_s = None; backoff_s = 0.0 }
let success : Evaluator.outcome = Evaluator.Rejected []

let test_environmental_retry_keeps_the_seed () =
  let ledger = Supervise.Ledger.create () in
  let seeds = ref [] in
  let compute (t : Evaluator.task) =
    seeds := t.Evaluator.task_seed :: !seeds;
    if List.length !seeds = 1 then Evaluator.Failed Fail.Timeout else success
  in
  let out = Supervise.run ~ledger ~policy:no_backoff ~key:"k" ~compute (nmc_task ~seed:77) in
  Alcotest.(check bool) "recovered outcome" true (out = success);
  Alcotest.(check (list int)) "same seed on the environmental retry" [ 77; 77 ]
    (List.rev !seeds);
  Alcotest.(check int) "one timeout failure" 1 (Supervise.Ledger.failures_of ledger "timeout");
  Alcotest.(check int) "one timeout retry" 1 (Supervise.Ledger.retries_of ledger "timeout");
  Alcotest.(check int) "one recovery" 1 (Supervise.Ledger.recovered ledger);
  Alcotest.(check int) "no give-up" 0 (Supervise.Ledger.gave_up ledger)

let test_numerical_retry_derives_fresh_seeds () =
  let ledger = Supervise.Ledger.create () in
  let seeds = ref [] in
  let compute (t : Evaluator.task) =
    seeds := t.Evaluator.task_seed :: !seeds;
    Evaluator.Failed Fail.Singular
  in
  let out = Supervise.run ~ledger ~policy:no_backoff ~key:"k" ~compute (nmc_task ~seed:77) in
  Alcotest.(check bool) "still failed after max retries" true
    (out = Evaluator.Failed Fail.Singular);
  Alcotest.(check (list int)) "re-seeded exactly as attempt_seed prescribes"
    [
      77;
      Supervise.attempt_seed ~task_seed:77 ~attempt:1;
      Supervise.attempt_seed ~task_seed:77 ~attempt:2;
    ]
    (List.rev !seeds);
  Alcotest.(check int) "three singular failures" 3
    (Supervise.Ledger.failures_of ledger "singular");
  Alcotest.(check int) "two retries" 2 (Supervise.Ledger.total_retries ledger);
  Alcotest.(check int) "no recovery" 0 (Supervise.Ledger.recovered ledger);
  Alcotest.(check int) "one give-up" 1 (Supervise.Ledger.gave_up ledger)

let test_policy_deadline_fills_only_blanks () =
  let seen = ref [] in
  let compute (t : Evaluator.task) =
    seen := t.Evaluator.task_sizing.Sizing.deadline_s :: !seen;
    success
  in
  let policy = { no_backoff with Supervise.deadline_s = Some 5.0 } in
  ignore (Supervise.run ~policy ~key:"k" ~compute (nmc_task ~seed:1));
  let armed =
    {
      (nmc_task ~seed:1) with
      Evaluator.task_sizing = { small_sizing with Sizing.deadline_s = Some 1.0 };
    }
  in
  ignore (Supervise.run ~policy ~key:"k" ~compute armed);
  Alcotest.(check (list (option (float 0.0)))) "policy default vs task's own"
    [ Some 5.0; Some 1.0 ] (List.rev !seen)

let test_crash_exception_classified () =
  let ledger = Supervise.Ledger.create () in
  let calls = ref 0 in
  let compute (_ : Evaluator.task) =
    incr calls;
    if !calls = 1 then raise Faultin.Injected_crash else success
  in
  let out = Supervise.run ~ledger ~policy:no_backoff ~key:"k" ~compute (nmc_task ~seed:9) in
  Alcotest.(check bool) "recovered" true (out = success);
  Alcotest.(check int) "crash counted as worker-crash" 1
    (Supervise.Ledger.failures_of ledger "worker-crash")

(* --- the chaos harness --- *)

let test_faultin_parse_round_trip () =
  let fi =
    match Faultin.parse "seed=11,delay=0.2,crash=0.1" with
    | Ok fi -> fi
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check int) "seed" 11 (Faultin.seed fi);
  Alcotest.(check (float 0.0)) "delay rate" 0.2 (Faultin.rate fi Faultin.Delay);
  Alcotest.(check (float 0.0)) "crash rate" 0.1 (Faultin.rate fi Faultin.Crash);
  Alcotest.(check (float 0.0)) "unlisted site is silent" 0.0 (Faultin.rate fi Faultin.Nan_perf);
  (match Faultin.parse (Faultin.to_string fi) with
  | Error e -> Alcotest.fail e
  | Ok back ->
    Alcotest.(check int) "seed survives the round trip" (Faultin.seed fi) (Faultin.seed back);
    List.iter
      (fun site ->
        Alcotest.(check (float 0.0)) (Faultin.site_name site ^ " rate survives")
          (Faultin.rate fi site) (Faultin.rate back site))
      Faultin.all_sites);
  (match Faultin.parse "all=0.05,crash=0.2" with
  | Error e -> Alcotest.fail e
  | Ok fi ->
    Alcotest.(check (float 0.0)) "all sets every site" 0.05 (Faultin.rate fi Faultin.Singular_solve);
    Alcotest.(check (float 0.0)) "later field wins" 0.2 (Faultin.rate fi Faultin.Crash));
  List.iter
    (fun bad ->
      match Faultin.parse bad with
      | Ok _ -> Alcotest.fail ("accepted malformed spec " ^ bad)
      | Error _ -> ())
    [ "bogus=1"; "crash=1.5"; "crash=-0.1"; "seed=abc"; "crash" ]

let test_faultin_decide_deterministic () =
  let make () = Faultin.create ~seed:3 ~rates:[ (Faultin.Crash, 0.3) ] () in
  let a = make () and b = make () in
  let keys = List.init 500 (fun i -> Printf.sprintf "task-%d" i) in
  List.iter
    (fun key ->
      Alcotest.(check bool) "two harnesses agree" (Faultin.decide a Faultin.Crash ~key ~attempt:0)
        (Faultin.decide b Faultin.Crash ~key ~attempt:0))
    keys;
  let count fi = List.length (List.filter (fun key -> Faultin.decide fi Faultin.Crash ~key ~attempt:0) keys) in
  let hits = count a in
  Alcotest.(check bool)
    (Printf.sprintf "rate 0.3 fires roughly 30%% of the time (%d/500)" hits)
    true
    (hits > 100 && hits < 200);
  let other = Faultin.create ~seed:4 ~rates:[ (Faultin.Crash, 0.3) ] () in
  Alcotest.(check bool) "seed changes the decisions" true
    (List.exists
       (fun key ->
         Faultin.decide a Faultin.Crash ~key ~attempt:0
         <> Faultin.decide other Faultin.Crash ~key ~attempt:0)
       keys);
  let zero = Faultin.create ~seed:3 ~rates:[] () in
  Alcotest.(check int) "rate 0 never fires" 0 (count zero);
  let one = Faultin.create ~seed:3 ~rates:[ (Faultin.Crash, 1.0) ] () in
  Alcotest.(check int) "rate 1 always fires" 500 (count one)

(* --- campaign-level chaos --- *)

let test_specs = [ Spec.s1; Spec.s5 ]
let test_methods = [ Methods.Fe_ga; Methods.Vgae_bo; Methods.Into_oa ]
let grid_cells = List.length test_specs * List.length test_methods * 2

let run_campaign ?runtime ?(runs = 2) () =
  Campaign.execute ?runtime ~methods:test_methods ~specs:test_specs
    ~scale:{ Methods.smoke_scale with Methods.runs } ~seed:7 ()

let canonical v = Marshal.to_string v [ Marshal.No_sharing ]

let fingerprint campaign =
  List.map
    (fun (r : Campaign.run) ->
      ( Methods.name r.Campaign.method_id,
        r.Campaign.spec.Spec.name,
        r.Campaign.run_index,
        canonical r.Campaign.trace ))
    campaign

let chaos_of spec =
  match Faultin.parse spec with Ok fi -> fi | Error e -> Alcotest.fail e

let env_chaos_spec = "seed=11,delay=0.15,crash=0.1"
let env_policy = { Supervise.max_retries = 6; deadline_s = None; backoff_s = 0.0 }

let test_chaos_recovers_fault_free_results () =
  let baseline = run_campaign () in
  let fi = chaos_of env_chaos_spec in
  let exec = Exec.create ~jobs:1 ~supervise:env_policy ~faultin:fi () in
  let chaos = run_campaign ~runtime:exec () in
  Alcotest.(check int) "chaos campaign completes the grid" grid_cells (List.length chaos);
  Alcotest.(check bool) "chaos actually injected faults" true (Faultin.total_injected fi > 0);
  let ledger = Exec.ledger exec in
  Alcotest.(check int) "every injected fault was retried away" 0
    (Supervise.Ledger.gave_up ledger);
  Alcotest.(check bool) "tasks recovered" true (Supervise.Ledger.recovered ledger > 0);
  (* Environmental faults cannot occur naturally here (no deadline, no real
     crashes), so the ledger must account for exactly the injected ones. *)
  Alcotest.(check int) "timeout failures == injected delays"
    (Faultin.injected fi Faultin.Delay)
    (Supervise.Ledger.failures_of ledger "timeout");
  Alcotest.(check int) "worker-crash failures == injected crashes"
    (Faultin.injected fi Faultin.Crash)
    (Supervise.Ledger.failures_of ledger "worker-crash");
  Alcotest.(check bool) "chaos run equals the fault-free baseline" true
    (fingerprint chaos = fingerprint baseline);
  let summary = Exec.summary exec in
  let stats = Exec.stats exec in
  Alcotest.(check bool) "summary carries the retry count for CI" true
    (contains summary (Printf.sprintf "retries: %d" stats.Exec.retries));
  Alcotest.(check bool) "summary reports the chaos spec" true
    (contains summary "chaos (")

let test_parallel_chaos_matches_serial_chaos () =
  let run jobs =
    let fi = chaos_of env_chaos_spec in
    let exec = Exec.create ~jobs ~supervise:env_policy ~faultin:fi () in
    let campaign = run_campaign ~runtime:exec () in
    (fingerprint campaign, Supervise.Ledger.failures (Exec.ledger exec),
     List.map (fun s -> (Faultin.site_name s, Faultin.injected fi s)) Faultin.all_sites)
  in
  let serial_fp, serial_ledger, serial_injected = run 1 in
  let par_fp, par_ledger, par_injected = run 4 in
  Alcotest.(check bool) "-j 4 chaos is byte-identical to serial chaos" true
    (serial_fp = par_fp);
  Alcotest.(check (list (pair string int))) "identical ledgers" serial_ledger par_ledger;
  Alcotest.(check (list (pair string int))) "identical injection counts" serial_injected
    par_injected

let test_numerical_chaos_completes_and_ledgers () =
  let fi = chaos_of "seed=5,singular=0.3,nan=0.2" in
  let exec =
    Exec.create ~jobs:1
      ~supervise:{ Supervise.max_retries = 3; deadline_s = None; backoff_s = 0.0 }
      ~faultin:fi ()
  in
  let chaos = run_campaign ~runtime:exec () in
  Alcotest.(check int) "campaign completes under numerical chaos" grid_cells
    (List.length chaos);
  let ledger = Exec.ledger exec in
  Alcotest.(check bool) "singular injections land in the ledger" true
    (Supervise.Ledger.failures_of ledger "singular" >= Faultin.injected fi Faultin.Singular_solve);
  Alcotest.(check bool) "non-finite injections land in the ledger" true
    (Supervise.Ledger.failures_of ledger "non-finite" >= Faultin.injected fi Faultin.Nan_perf);
  Alcotest.(check bool) "some injections fired" true
    (Faultin.injected fi Faultin.Singular_solve > 0 && Faultin.injected fi Faultin.Nan_perf > 0);
  (* The trace-derived report sees the classes the supervisor gave up on. *)
  if Supervise.Ledger.gave_up ledger > 0 then
    Alcotest.(check bool) "failure classes surface in the campaign report" true
      (Campaign.failure_classes chaos <> [])

let test_cache_corruption_chaos_self_heals () =
  let dir = fresh_dir "chaos_cache" in
  let cold_exec = Exec.create ~jobs:1 ~cache:(Cache.create ~dir) () in
  let cold = run_campaign ~runtime:cold_exec ~runs:1 () in
  let fi = chaos_of "seed=3,cache=0.6" in
  let warm_exec = Exec.create ~jobs:1 ~cache:(Cache.create ~dir) ~faultin:fi () in
  let warm = run_campaign ~runtime:warm_exec ~runs:1 () in
  Alcotest.(check bool) "corruption chaos fired" true
    (Faultin.injected fi Faultin.Corrupt_cache > 0);
  Alcotest.(check bool) "warm chaos equals the cold run" true
    (fingerprint cold = fingerprint warm);
  let ledger = Exec.ledger warm_exec in
  Alcotest.(check int) "cache-corrupt failures == injected corruptions"
    (Faultin.injected fi Faultin.Corrupt_cache)
    (Supervise.Ledger.failures_of ledger "cache-corrupt");
  let stats = Exec.stats warm_exec in
  Alcotest.(check bool) "corrupt entries detected by the cache" true
    (stats.Exec.cache_corrupt >= Faultin.injected fi Faultin.Corrupt_cache);
  Alcotest.(check bool) "only the damaged entries recomputed" true
    (Exec.computed warm_exec < Exec.computed cold_exec);
  rm_rf dir

let test_checkpoint_tear_chaos_resumes () =
  let dir = fresh_dir "chaos_tear" in
  let path = Filename.concat dir "campaign.ckpt" in
  let baseline = run_campaign () in
  let fi = chaos_of "seed=9,tear=0.4" in
  let ck1 = Checkpoint.start ~path ~fresh:true in
  let torn_exec = Exec.create ~jobs:1 ~checkpoint:ck1 ~faultin:fi () in
  let torn = run_campaign ~runtime:torn_exec () in
  Checkpoint.close ck1;
  Alcotest.(check bool) "tear chaos fired" true
    (Faultin.injected fi Faultin.Tear_checkpoint > 0);
  Alcotest.(check bool) "the torn run itself is unaffected" true
    (fingerprint torn = fingerprint baseline);
  (* Resume from the damaged journal: the valid prefix restores, the torn
     tail recomputes, and the result is still the baseline. *)
  let ck2 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check bool) "tear cost journal records" true
    (Checkpoint.restored ck2 < grid_cells);
  let resumed = run_campaign ~runtime:(Exec.create ~jobs:1 ~checkpoint:ck2 ()) () in
  Checkpoint.close ck2;
  Alcotest.(check bool) "resumed campaign equals the baseline" true
    (fingerprint resumed = fingerprint baseline);
  rm_rf dir

let () =
  Alcotest.run "into_robustness"
    [
      ( "taxonomy",
        [
          Alcotest.test_case "classes, indices, payloads" `Quick test_fail_classes;
          Alcotest.test_case "attempt seeds are pure" `Quick test_attempt_seed;
        ] );
      ( "guards",
        [
          Alcotest.test_case "perf NaN guards" `Quick test_perf_nan_guards;
          Alcotest.test_case "zero-gain noise is n/a" `Quick test_noise_zero_gain;
          Alcotest.test_case "transient without a DC target" `Quick test_transient_no_dc_target;
          Alcotest.test_case "WL-GP rejects non-finite targets" `Quick
            test_wl_gp_rejects_non_finite_targets;
          Alcotest.test_case "expired deadline is a timeout" `Quick
            test_expired_deadline_classified_as_timeout;
        ] );
      ( "supervisor",
        [
          Alcotest.test_case "environmental retry keeps the seed" `Quick
            test_environmental_retry_keeps_the_seed;
          Alcotest.test_case "numerical retry derives fresh seeds" `Quick
            test_numerical_retry_derives_fresh_seeds;
          Alcotest.test_case "policy deadline fills only blanks" `Quick
            test_policy_deadline_fills_only_blanks;
          Alcotest.test_case "compute exceptions become worker crashes" `Quick
            test_crash_exception_classified;
        ] );
      ( "faultin",
        [
          Alcotest.test_case "spec parse and round trip" `Quick test_faultin_parse_round_trip;
          Alcotest.test_case "decisions are pure and rate-faithful" `Quick
            test_faultin_decide_deterministic;
        ] );
      ( "chaos campaign",
        [
          Alcotest.test_case "recovers fault-free results, exact ledger" `Slow
            test_chaos_recovers_fault_free_results;
          Alcotest.test_case "-j 4 chaos identical to serial chaos" `Slow
            test_parallel_chaos_matches_serial_chaos;
          Alcotest.test_case "numerical chaos completes" `Slow
            test_numerical_chaos_completes_and_ledgers;
          Alcotest.test_case "cache corruption self-heals" `Slow
            test_cache_corruption_chaos_self_heals;
          Alcotest.test_case "checkpoint tears resume clean" `Slow
            test_checkpoint_tear_chaos_resumes;
        ] );
    ]
