(* Tests for Into_runtime: the domain pool, the persistent outcome cache
   (round-trip, corruption tolerance), the checkpoint journal
   (resume-exactly-once) and the parallel-determinism guarantee of
   Campaign.execute. *)

module Pool = Into_runtime.Pool
module Cache = Into_runtime.Cache
module Checkpoint = Into_runtime.Checkpoint
module Exec = Into_runtime.Exec
module Progress = Into_runtime.Progress
module Methods = Into_experiments.Methods
module Campaign = Into_experiments.Campaign
module Evaluator = Into_core.Evaluator
module Sizing = Into_core.Sizing
module Topology = Into_circuit.Topology
module Spec = Into_circuit.Spec

(* --- temp-dir plumbing --- *)

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
      (Printf.sprintf "into_runtime_%s_%d_%d" name (Unix.getpid ()) !dir_counter)
  in
  rm_rf d;
  d

(* --- Pool --- *)

let test_pool_preserves_order () =
  let xs = Array.init 100 (fun i -> i) in
  let expected = Array.map (fun i -> i * i) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs (fun i -> i * i) xs))
    [ 1; 2; 4; 0 ]

let test_pool_propagates_exceptions () =
  match Pool.map ~jobs:4 (fun i -> if i = 7 then raise Exit else i) (Array.init 16 Fun.id) with
  | _ -> Alcotest.fail "worker exception swallowed"
  | exception Exit -> ()

(* Maps nested inside a map's items, with more items than helper domains:
   every caller drains its own items, so nothing waits on a busy helper.
   The helpers persist, so the pool stays usable after an exception. *)
let test_pool_nested_maps () =
  let inner i = Array.fold_left ( + ) 0 (Pool.map ~jobs:3 (fun j -> i * j) (Array.init 20 Fun.id)) in
  let outer () = Pool.map ~jobs:3 inner (Array.init 12 Fun.id) in
  let expected = Array.init 12 (fun i -> i * 190) in
  Alcotest.(check (array int)) "nested" expected (outer ());
  (match Pool.map ~jobs:3 (fun i -> if i = 5 then raise Exit else inner i) (Array.init 12 Fun.id) with
  | _ -> Alcotest.fail "nested worker exception swallowed"
  | exception Exit -> ());
  Alcotest.(check (array int)) "usable after an exception" expected (outer ())

let test_pool_empty_input () =
  Alcotest.(check (array int)) "empty" [||] (Pool.map ~jobs:4 (fun i -> i) [||])

(* --- Cache --- *)

let small_sizing = { Sizing.default_config with Sizing.n_init = 2; n_iter = 2 }

let nmc_task ~seed =
  Evaluator.task ~spec:Spec.s1 ~sizing_config:small_sizing ~seed (Topology.nmc ())

(* [No_sharing] canonicalizes the bytes: a cache-restored value has its own
   copies of subcircuits the computing run shared physically, and plain
   Marshal would encode that sharing difference as different backrefs. *)
let canonical v = Marshal.to_string v [ Marshal.No_sharing ]
let same_outcome a b = String.equal (canonical a) (canonical b)

let test_cache_round_trip () =
  let dir = fresh_dir "cache_rt" in
  let cache = Cache.create ~dir in
  let task = nmc_task ~seed:11 in
  let key = Cache.key_of_task task in
  Alcotest.(check bool) "cold miss" true (Cache.find cache ~key = None);
  let outcome = Evaluator.run_task task in
  Cache.store cache ~key outcome;
  (match Cache.find cache ~key with
  | None -> Alcotest.fail "stored entry not found"
  | Some back -> Alcotest.(check bool) "round-trips" true (same_outcome outcome back));
  Alcotest.(check int) "one store" 1 (Cache.stores cache);
  Alcotest.(check int) "one hit" 1 (Cache.hits cache);
  (* A distinct seed is a distinct key. *)
  Alcotest.(check bool) "seed in key" false
    (String.equal key (Cache.key_of_task (nmc_task ~seed:12)));
  rm_rf dir

let test_cache_corrupt_entry_recomputed () =
  let dir = fresh_dir "cache_corrupt" in
  let cache = Cache.create ~dir in
  let task = nmc_task ~seed:21 in
  let key = Cache.key_of_task task in
  let outcome = Evaluator.run_task task in
  Cache.store cache ~key outcome;
  (* Truncate every entry mid-envelope: loads must degrade to misses. *)
  Array.iter
    (fun name ->
      let path = Filename.concat dir name in
      Unix.truncate path (min 3 (Unix.stat path).Unix.st_size))
    (Sys.readdir dir);
  Alcotest.(check bool) "truncated entry is a miss" true (Cache.find cache ~key = None);
  Alcotest.(check bool) "counted as corrupt" true (Cache.corrupt cache >= 1);
  (* The engine recomputes the same outcome and re-stores it. *)
  let exec = Exec.create ~cache ~jobs:1 () in
  let again = Exec.evaluate exec task in
  Alcotest.(check bool) "recomputed equals original" true (same_outcome outcome again);
  Alcotest.(check int) "one task computed" 1 (Exec.computed exec);
  (match Cache.find cache ~key with
  | None -> Alcotest.fail "recomputed entry not re-stored"
  | Some back -> Alcotest.(check bool) "re-stored" true (same_outcome outcome back));
  rm_rf dir

let test_cache_garbage_entry_recomputed () =
  let dir = fresh_dir "cache_garbage" in
  let cache = Cache.create ~dir in
  let task = nmc_task ~seed:31 in
  let key = Cache.key_of_task task in
  Cache.store cache ~key (Evaluator.run_task task);
  Array.iter
    (fun name ->
      let oc = open_out_bin (Filename.concat dir name) in
      output_string oc "not a marshal envelope";
      close_out oc)
    (Sys.readdir dir);
  Alcotest.(check bool) "garbage entry is a miss" true (Cache.find cache ~key = None);
  rm_rf dir

(* --- Checkpoint --- *)

let test_checkpoint_restores_valid_prefix () =
  let dir = fresh_dir "ckpt" in
  let path = Filename.concat dir "j.ckpt" in
  let j = Checkpoint.start ~path ~fresh:true in
  Checkpoint.append j ~key:"a" ~payload:"1";
  Checkpoint.append j ~key:"b" ~payload:"2";
  Checkpoint.close j;
  (* Simulate a crash mid-append: chop bytes off the journal tail. *)
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 5);
  let j2 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check int) "valid prefix restored" 1 (Checkpoint.restored j2);
  Alcotest.(check (option string)) "first record intact" (Some "1") (Checkpoint.find j2 ~key:"a");
  Alcotest.(check (option string)) "torn record dropped" None (Checkpoint.find j2 ~key:"b");
  (* The journal stays appendable after truncation. *)
  Checkpoint.append j2 ~key:"b" ~payload:"2";
  Checkpoint.close j2;
  let j3 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check int) "both records after repair" 2 (Checkpoint.restored j3);
  Checkpoint.close j3;
  let j4 = Checkpoint.start ~path ~fresh:true in
  Alcotest.(check int) "fresh start discards" 0 (Checkpoint.restored j4);
  Checkpoint.close j4;
  rm_rf dir

(* A tear in the middle of the journal: whole frames appended after the
   fragment must not be decoded through it.  Resume keeps the prefix
   before the fragment and drops everything from it on. *)
let test_checkpoint_torn_frame_then_whole_frames () =
  let dir = fresh_dir "ckpt_mid" in
  let path = Filename.concat dir "j.ckpt" in
  let j = Checkpoint.start ~path ~fresh:true in
  Checkpoint.append j ~key:"a" ~payload:"1";
  Checkpoint.append j ~key:"b" ~payload:(String.make 200 'x');
  Checkpoint.tear j ~bytes:16;
  Checkpoint.append j ~key:"c" ~payload:"3";
  Checkpoint.append j ~key:"d" ~payload:(String.make 300 'y');
  Checkpoint.close j;
  let j2 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check int) "prefix before the fragment" 1 (Checkpoint.restored j2);
  Alcotest.(check (option string)) "first record intact" (Some "1") (Checkpoint.find j2 ~key:"a");
  List.iter
    (fun key ->
      Alcotest.(check (option string)) ("dropped " ^ key) None (Checkpoint.find j2 ~key))
    [ "b"; "c"; "d" ];
  Checkpoint.append j2 ~key:"c" ~payload:"3";
  Checkpoint.close j2;
  let j3 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check (list (pair string string))) "journal repaired"
    [ ("a", "1"); ("c", "3") ] (Checkpoint.entries j3);
  Checkpoint.close j3;
  rm_rf dir

(* --- Campaign determinism and resume --- *)

let test_specs = [ Spec.s1; Spec.s5 ]
let test_methods = [ Methods.Fe_ga; Methods.Vgae_bo; Methods.Into_oa ]

let run_campaign ?progress ?runtime ?(runs = 2) () =
  Campaign.execute ?progress ?runtime ~methods:test_methods ~specs:test_specs
    ~scale:{ Methods.smoke_scale with Methods.runs } ~seed:7 ()

(* Everything but the wall clock, in a canonical byte form. *)
let fingerprint campaign =
  List.map
    (fun (r : Campaign.run) ->
      ( Methods.name r.Campaign.method_id,
        r.Campaign.spec.Spec.name,
        r.Campaign.run_index,
        canonical r.Campaign.trace ))
    campaign

let test_parallel_matches_serial () =
  let serial = run_campaign () in
  let parallel = run_campaign ~runtime:(Exec.create ~jobs:4 ()) () in
  Alcotest.(check bool) "-j 4 is byte-identical to serial" true
    (fingerprint serial = fingerprint parallel)

let test_resume_completes_exactly_once () =
  let dir = fresh_dir "resume" in
  let path = Filename.concat dir "campaign.ckpt" in
  let serial = run_campaign () in
  (* First invocation "interrupted" after the runs-per-cell=1 half of the
     grid: its journal holds exactly those cells. *)
  let ck1 = Checkpoint.start ~path ~fresh:true in
  let half = run_campaign ~runtime:(Exec.create ~jobs:1 ~checkpoint:ck1 ()) ~runs:1 () in
  Checkpoint.close ck1;
  let half_cells = List.length half in
  (* Second invocation resumes and finishes the full grid. *)
  let ck2 = Checkpoint.start ~path ~fresh:false in
  Alcotest.(check int) "journal carries the finished half" half_cells (Checkpoint.restored ck2);
  let restored = ref 0 and started = ref 0 and finished = ref 0 in
  let progress = function
    | Progress.Run_restored _ -> incr restored
    | Progress.Run_started _ -> incr started
    | Progress.Run_finished _ -> incr finished
    | Progress.Run_failed _ -> Alcotest.fail "no run should fail"
  in
  let full = run_campaign ~progress ~runtime:(Exec.create ~jobs:1 ~checkpoint:ck2 ()) () in
  Checkpoint.close ck2;
  Alcotest.(check int) "finished runs restored, not re-executed" half_cells !restored;
  Alcotest.(check int) "remaining runs executed exactly once"
    (List.length full - half_cells) !started;
  Alcotest.(check int) "every executed run finished" !started !finished;
  Alcotest.(check bool) "resumed campaign equals from-scratch" true
    (fingerprint full = fingerprint serial);
  rm_rf dir

let test_warm_cache_computes_nothing () =
  let dir = fresh_dir "warm" in
  let cold_exec = Exec.create ~jobs:1 ~cache:(Cache.create ~dir) () in
  let cold = run_campaign ~runtime:cold_exec ~runs:1 () in
  Alcotest.(check bool) "cold run computes" true (Exec.computed cold_exec > 0);
  let warm_exec = Exec.create ~jobs:1 ~cache:(Cache.create ~dir) () in
  let warm = run_campaign ~runtime:warm_exec ~runs:1 () in
  Alcotest.(check int) "warm rerun computes nothing" 0 (Exec.computed warm_exec);
  let stats = Exec.stats warm_exec in
  Alcotest.(check bool) "warm rerun hits the cache" true (stats.Exec.cache_hits > 0);
  Alcotest.(check int) "and misses nothing" 0 stats.Exec.cache_misses;
  Alcotest.(check bool) "warm equals cold" true (fingerprint cold = fingerprint warm);
  (* The summary line CI greps for. *)
  let summary = Exec.summary warm_exec in
  let needle = Printf.sprintf "cache hits: %d" stats.Exec.cache_hits in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary reports the hit count" true (contains summary needle);
  rm_rf dir

let () =
  Alcotest.run "into_runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "order preserved at any job count" `Quick test_pool_preserves_order;
          Alcotest.test_case "exceptions propagate" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "empty input" `Quick test_pool_empty_input;
          Alcotest.test_case "nested maps complete" `Quick test_pool_nested_maps;
        ] );
      ( "cache",
        [
          Alcotest.test_case "round trip" `Quick test_cache_round_trip;
          Alcotest.test_case "truncated entry recomputed" `Quick test_cache_corrupt_entry_recomputed;
          Alcotest.test_case "garbage entry skipped" `Quick test_cache_garbage_entry_recomputed;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "valid prefix survives a torn write" `Quick test_checkpoint_restores_valid_prefix;
          Alcotest.test_case "torn frame followed by whole frames" `Quick
            test_checkpoint_torn_frame_then_whole_frames;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "-j 4 identical to serial" `Slow test_parallel_matches_serial;
          Alcotest.test_case "resume runs each cell exactly once" `Slow test_resume_completes_exactly_once;
          Alcotest.test_case "warm cache computes nothing" `Slow test_warm_cache_computes_nothing;
        ] );
    ]
