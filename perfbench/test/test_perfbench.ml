(* Tests for the benchmark's own code: the tail-percentile rule, quartiles
   as Python computes them, trace-digest stability, the JSON emitter and
   the compare verdicts. *)

module Json = Perfbench_core.Json
module Stat = Perfbench_core.Stat
module Trace_digest = Perfbench_core.Trace_digest
module Compare = Perfbench_core.Compare
module Topo_bo = Into_core.Topo_bo
module Evaluator = Into_core.Evaluator

let floats = Alcotest.(list (float 1e-12))

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.equal (String.sub s i k) sub || go (i + 1)) in
  go 0

let range n = List.init n (fun i -> float_of_int (i + 1))

(* --- tail percentile --- *)

let tail_of n =
  match Stat.tail (range n) with
  | Some t -> (t.Stat.percentile, t.Stat.value, t.Stat.beyond)
  | None -> (Float.nan, Float.nan, -1)

let test_tail_rule () =
  let check n (p, v) =
    let p', v', beyond = tail_of n in
    Alcotest.(check (float 0.0)) (Printf.sprintf "percentile at n=%d" n) p p';
    Alcotest.(check (float 0.0)) (Printf.sprintf "value at n=%d" n) v v';
    Alcotest.(check bool) (Printf.sprintf "ten beyond at n=%d" n) true (beyond >= 10)
  in
  check 20 (50.0, 10.0);
  check 100 (90.0, 90.0);
  check 199 (90.0, 180.0);
  check 200 (95.0, 190.0);
  check 1000 (99.0, 990.0);
  check 10000 (99.9, 9990.0);
  Alcotest.(check bool) "too few samples" true (Stat.tail (range 19) = None);
  Alcotest.(check bool) "empty" true (Stat.tail [] = None)

let test_tail_ignores_order () =
  let xs = List.rev (range 300) in
  Alcotest.(check bool) "same as sorted" true (Stat.tail xs = Stat.tail (range 300))

(* --- quartiles --- *)

let quartiles xs =
  let a, b, c = Stat.quartiles xs in
  [ a; b; c ]

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles_match_python () =
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ] (quartiles (range 10));
  Alcotest.check floats "1..5" [ 1.5; 3.0; 4.5 ] (quartiles (range 5));
  Alcotest.check floats "two" [ 0.75; 1.5; 2.25 ] (quartiles [ 2.0; 1.0 ]);
  Alcotest.check floats "unsorted" [ 2.75; 5.5; 8.25 ] (quartiles (List.rev (range 10)));
  Alcotest.(check (float 1e-12)) "spread" (5.5 /. 5.5) (Stat.spread (range 10));
  Alcotest.(check (float 1e-12)) "median of even count" 2.5 (Stat.median (range 4))

(* --- trace digest --- *)

let evaluation ~fom =
  let topology = Into_circuit.Topology.nmc () in
  {
    Evaluator.topology;
    sizing = [| 1.0; 2.0 |];
    perf = { Into_circuit.Perf.gain_db = 80.0; gbw_hz = 1e6; pm_deg = 60.0; power_w = 1e-4 };
    feasible = true;
    fom;
    n_sims = 40;
  }

let steps ~fom =
  [
    {
      Topo_bo.iteration = 0;
      evaluation = Some (evaluation ~fom);
      rejection = [];
      failure = None;
      cumulative_sims = 40;
      best_fom_so_far = Some fom;
    };
    {
      Topo_bo.iteration = 1;
      evaluation = None;
      rejection = [];
      failure = Some Into_core.Fail.Singular;
      cumulative_sims = 80;
      best_fom_so_far = Some fom;
    };
  ]

let test_digest_text () =
  let idx = Into_circuit.Topology.to_index (Into_circuit.Topology.nmc ()) in
  Alcotest.(check string) "canonical text"
    (Printf.sprintf "u\n0|E %d 40 0.10000000000000001 true|40\n1|F singular|80\n" idx)
    (Trace_digest.lines ~label:"u" (steps ~fom:0.1))

let test_digest_stable () =
  let a = Trace_digest.of_steps ~label:"u" (steps ~fom:123.456) in
  Alcotest.(check string) "same trace, same digest" a
    (Trace_digest.of_steps ~label:"u" (steps ~fom:123.456));
  Alcotest.(check bool) "one ulp of FoM changes it" false
    (String.equal a (Trace_digest.of_steps ~label:"u" (steps ~fom:(Float.succ 123.456))));
  Alcotest.(check bool) "label is part of it" false
    (String.equal a (Trace_digest.of_steps ~label:"v" (steps ~fom:123.456)));
  Alcotest.(check bool) "combine is order-sensitive" false
    (String.equal (Trace_digest.combine [ "a"; "b" ]) (Trace_digest.combine [ "b"; "a" ]))

let test_digest_of_repeated_run () =
  let run () =
    let config =
      {
        (Topo_bo.default_config Into_core.Candidates.Mixed) with
        Topo_bo.n_init = 2;
        iterations = 1;
        pool = 4;
        sizing = { Into_core.Sizing.default_config with Into_core.Sizing.n_init = 2; n_iter = 1 };
      }
    in
    let r =
      Topo_bo.run ~config ~rng:(Into_util.Rng.create ~seed:7) ~spec:Into_circuit.Spec.s1 ()
    in
    Trace_digest.of_steps ~label:"r" r.Topo_bo.steps
  in
  Alcotest.(check string) "repeated run" (run ()) (run ())

(* --- JSON emitter --- *)

let test_emitter () =
  let v =
    Json.Obj
      [
        ("correct", Json.Bool true);
        ("attempted", Json.Num 12.0);
        ("name", Json.Str "a \"quoted\"\\ line\n\ttab");
        ("tiny", Json.Num 0.1);
        ("missing", Json.Num Float.nan);
        ("list", Json.Arr [ Json.Null; Json.Num (-2.5e-7); Json.Obj [] ]);
      ]
  in
  let s = Json.to_string v in
  Alcotest.(check bool) "one line" false (String.contains s '\n');
  Alcotest.(check bool) "count printed as integer" true
    (contains s "\"attempted\": 12,");
  Alcotest.(check bool) "all digits kept" true (contains s "0.10000000000000001");
  Alcotest.(check bool) "nan becomes null" true (contains s "\"missing\": null");
  let back = Json.parse s in
  Alcotest.(check (option string)) "string round trip" (Some "a \"quoted\"\\ line\n\ttab")
    (Option.bind (Json.member "name" back) Json.to_str);
  Alcotest.(check (option (float 0.0))) "float round trip exact" (Some 0.1)
    (Option.bind (Json.member "tiny" back) Json.to_float);
  Alcotest.(check bool) "re-emits identically" true
    (String.equal (Json.to_string back) (Json.to_string (Json.parse (Json.to_string back))))

let test_parser_rejects () =
  List.iter
    (fun bad ->
      match Json.parse bad with
      | _ -> Alcotest.failf "accepted %S" bad
      | exception Json.Parse_error _ -> ())
    [ "{"; "{\"a\": }"; "[1, 2"; "tru"; "{} x"; "\"open" ]

(* --- compare verdicts --- *)

let verdict ?(better = Compare.Lower) ?(bound = Some 0.1) base cand =
  Compare.verdict_name (Compare.verdict ~better ~bound ~base ~cand)

let tight x = [ x *. 0.99; x; x *. 1.01; x *. 0.995; x *. 1.005 ]

let test_verdicts () =
  Alcotest.(check string) "identical" "same" (verdict (tight 10.0) (tight 10.0));
  Alcotest.(check string) "within bound" "same" (verdict (tight 10.0) (tight 10.5));
  Alcotest.(check string) "slower beyond bound" "regressed" (verdict (tight 10.0) (tight 12.0));
  Alcotest.(check string) "faster beyond spread" "improved" (verdict (tight 10.0) (tight 8.0));
  Alcotest.(check string) "higher is better" "regressed"
    (verdict ~better:Compare.Higher (tight 10.0) (tight 8.0));
  Alcotest.(check string) "higher is better, improved" "improved"
    (verdict ~better:Compare.Higher (tight 10.0) (tight 12.0));
  let wide = [ 5.0; 10.0; 15.0; 8.0; 12.0 ] in
  Alcotest.(check string) "spread wider than bound" "unresolved" (verdict wide (tight 10.0));
  Alcotest.(check string) "wide but every run better" "improved" (verdict wide (tight 2.0));
  Alcotest.(check string) "no bound" "-" (verdict ~bound:None (tight 10.0) (tight 20.0))

let record ~workload ~value =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("metrics", Json.Obj [ ("wall_s", Json.Obj [ ("value", Json.Num value); ("unit", Json.Str "s") ]) ]);
    ]

let test_render () =
  let bench =
    Json.parse
      "{\"end_to_end\": [{\"name\": \"wall_s\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": \
       0.1}], \"per_layer\": []}"
  in
  let base = List.map (fun v -> record ~workload:"sizing" ~value:v) (tight 1.0) in
  let cand = List.map (fun v -> record ~workload:"sizing" ~value:v) (tight 1.5) in
  let out = Compare.render ~bench ~base ~cand in
  Alcotest.(check bool) "names the workload" true (contains out "workload sizing");
  Alcotest.(check bool) "gives the ratio" true (contains out "1.5000");
  Alcotest.(check bool) "gives the verdict" true (contains out "regressed")

let digest_record ~seed units =
  Json.Obj
    [
      ("workload", Json.Str "sizing");
      ("seed", Json.Num (float_of_int seed));
      ("unit_digests", Json.Obj (List.map (fun (id, d) -> (string_of_int id, Json.Str d)) units));
      ("metrics", Json.Obj []);
    ]

let test_digest_mismatch () =
  let bench = Json.parse "{\"end_to_end\": [], \"per_layer\": []}" in
  let base = [ digest_record ~seed:1 [ (0, "a"); (1, "b"); (2, "c") ]; digest_record ~seed:2 [ (0, "d") ] ] in
  let same = [ digest_record ~seed:1 [ (0, "a"); (1, "b") ]; digest_record ~seed:3 [ (0, "z") ] ] in
  Alcotest.(check int) "shared units agree" 0 (List.length (Compare.digest_mismatches ~base ~cand:same));
  Alcotest.(check bool) "render counts the shared pairs" true
    (contains (Compare.render ~bench ~base ~cand:same) "2 (seed, unit) pairs on both sides, 0 differ");
  let changed = [ digest_record ~seed:1 [ (0, "a"); (1, "x") ]; digest_record ~seed:2 [ (0, "d") ] ] in
  (match Compare.digest_mismatches ~base ~cand:changed with
  | [ m ] ->
    Alcotest.(check (pair int int)) "the changed unit" (1, 1) (m.Compare.seed, m.Compare.unit_id);
    Alcotest.(check (pair string string)) "both digests" ("b", "x") (m.Compare.base, m.Compare.cand)
  | ms -> Alcotest.failf "expected one mismatch, got %d" (List.length ms));
  Alcotest.(check bool) "render flags it" true
    (contains (Compare.render ~bench ~base ~cand:changed) "MISMATCH")

let () =
  Alcotest.run "perfbench"
    [
      ( "stat",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "tail ignores input order" `Quick test_tail_ignores_order;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles_match_python;
        ] );
      ( "digest",
        [
          Alcotest.test_case "canonical text" `Quick test_digest_text;
          Alcotest.test_case "stable and sensitive" `Quick test_digest_stable;
          Alcotest.test_case "repeated run agrees" `Quick test_digest_of_repeated_run;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter output well formed" `Quick test_emitter;
          Alcotest.test_case "parser rejects malformed input" `Quick test_parser_rejects;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts" `Quick test_verdicts;
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "digest mismatch" `Quick test_digest_mismatch;
        ] );
    ]
