(* Tests for the differential fuzzing lattice: determinism, agreement on
   the committed seed corpus, mutant detection, and shrinker soundness. *)

open Test_util

let corpus_cfg =
  { Fuzz.Harness.default_config with seed = 1; cases = 60 }

(* A small profile mirroring what the harness derives, for regeneration
   tests.  The harness registers the catalog itself; do it here too so
   [Case.elaborate] can resolve Entry cases. *)
let profile () =
  Core.Lint_catalog.register ();
  let algorithms =
    List.map
      (fun (module A : Core.Signaling.POLLING) -> A.name)
      Core.Algorithms.polling_algorithms
  in
  let entries mutants =
    Analysis.Registry.all ~mutants ()
    |> List.filter (fun e -> e.Analysis.Registry.mutant = mutants)
    |> List.map (fun e -> e.Analysis.Registry.name)
  in
  ( { Fuzz.Gen.p_families = [ `Programs; `Script; `Entry ];
      p_algorithms = algorithms;
      p_entries = entries false },
    { Fuzz.Gen.p_families = [ `Programs; `Script; `Entry ];
      p_algorithms = algorithms;
      p_entries = entries true } )

let test_run_deterministic () =
  let r1 = Fuzz.Harness.run corpus_cfg in
  let r2 = Fuzz.Harness.run corpus_cfg in
  Alcotest.(check string)
    "identical results table bytes"
    (Core.Results.to_json r1.Fuzz.Harness.table)
    (Core.Results.to_json r2.Fuzz.Harness.table);
  check_int "identical units" r1.Fuzz.Harness.units r2.Fuzz.Harness.units

let test_seed_corpus_agrees () =
  let r = Fuzz.Harness.run corpus_cfg in
  check_int "no findings on the committed corpus" 0
    (List.length r.Fuzz.Harness.findings);
  check_int "every case ran" corpus_cfg.Fuzz.Harness.cases
    r.Fuzz.Harness.cases_run

let test_case_regenerable () =
  (* Case [i] is a function of (seed, i) alone: regenerating any index in
     isolation reproduces the streamed case, which is what makes
     [--only i] a faithful replay. *)
  let honest, _ = profile () in
  List.iter
    (fun index ->
      let a = Fuzz.Gen.gen ~profile:honest ~seed:9 ~index in
      let b = Fuzz.Gen.gen ~profile:honest ~seed:9 ~index in
      check_true "regeneration is exact" (a = b);
      check_int "index recorded" index a.Fuzz.Case.index)
    [ 0; 7; 63; 500 ]

let test_cases_elaborate () =
  (* Every generated case — any family — elaborates to a runnable, and
     every shrink candidate stays both smaller and elaborable (totality
     is what lets the shrinker propose candidates blindly). *)
  let honest, _ = profile () in
  for index = 0 to 80 do
    let c = Fuzz.Gen.gen ~profile:honest ~seed:3 ~index in
    let r = Fuzz.Case.elaborate c in
    check_true "positive process count" (r.Fuzz.Case.r_n > 0);
    List.iter
      (fun cand ->
        check_true "candidate strictly smaller"
          (Fuzz.Case.size cand < Fuzz.Case.size c);
        ignore (Fuzz.Case.elaborate cand))
      (Fuzz.Shrink.candidates c)
  done

let test_oracles_agree_pointwise () =
  (* Direct oracle evaluation (not through the harness): no Disagree on
     the committed corpus, and evaluation is deterministic. *)
  let honest, _ = profile () in
  for index = 0 to 30 do
    let c = Fuzz.Gen.gen ~profile:honest ~seed:1 ~index in
    List.iter
      (fun o ->
        if Fuzz.Oracles.applies o c then begin
          let v = Fuzz.Oracles.eval o c in
          check_true
            (Printf.sprintf "case %d agrees under %s" index
               (Fuzz.Oracles.name o))
            (match v with Fuzz.Oracles.Disagree _ -> false | _ -> true);
          check_true "verdict deterministic" (Fuzz.Oracles.eval o c = v)
        end)
      Fuzz.Oracles.all
  done

let test_mutants_caught_and_shrunk () =
  let cfg =
    { Fuzz.Harness.default_config with
      seed = 7;
      cases = 40;
      mutants = true;
      oracles = [ Fuzz.Oracles.Claims_vs_measured ] }
  in
  let r = Fuzz.Harness.run cfg in
  let hits name =
    List.exists
      (fun f ->
        match f.Fuzz.Harness.f_case.Fuzz.Case.family with
        | Fuzz.Case.Entry { entry; _ } -> entry = name
        | _ -> false)
      r.Fuzz.Harness.findings
  in
  check_true "remote-spin mutant caught" (hits "mutant-remote-spin");
  check_true "cas-flag mutant caught" (hits "mutant-cas-flag");
  List.iter
    (fun f ->
      check_true "shrunk case no larger"
        (Fuzz.Case.size f.Fuzz.Harness.f_shrunk
        <= Fuzz.Case.size f.Fuzz.Harness.f_case);
      (* The minimized case must still disagree — shrinking preserves the
         failure, it never shrinks it away. *)
      check_true "shrunk case still disagrees"
        (match
           Fuzz.Oracles.eval Fuzz.Oracles.Claims_vs_measured
             f.Fuzz.Harness.f_shrunk
         with
        | Fuzz.Oracles.Disagree _ -> true
        | _ -> false))
    r.Fuzz.Harness.findings

let test_shrink_respects_check () =
  (* Greedy minimize: result satisfies check and is never larger. *)
  let honest, _ = profile () in
  let c = Fuzz.Gen.gen ~profile:honest ~seed:5 ~index:2 in
  let check_fn c' = List.length c'.Fuzz.Case.schedule >= 3 in
  let m = Fuzz.Shrink.minimize ~check:check_fn c in
  check_true "minimum still passes check" (check_fn m);
  check_true "minimum no larger" (Fuzz.Case.size m <= Fuzz.Case.size c);
  check_int "schedule at the boundary" 3 (List.length m.Fuzz.Case.schedule)

let test_budget_is_deterministic_cutoff () =
  let cfg = { corpus_cfg with budget = Some 30_000 } in
  let r1 = Fuzz.Harness.run cfg in
  let r2 = Fuzz.Harness.run cfg in
  check_int "same truncation point" r1.Fuzz.Harness.cases_run
    r2.Fuzz.Harness.cases_run;
  check_true "budget caps the corpus"
    (r1.Fuzz.Harness.cases_run < corpus_cfg.Fuzz.Harness.cases);
  check_true "work stops near the cap" (r1.Fuzz.Harness.units <= 40_000)

let test_pct_walk_deterministic () =
  let outline (r : Core.Adversary.random_outcome) =
    ( r.Core.Adversary.ro_outcome.Core.Scenario.total_rmrs,
      r.Core.Adversary.ro_outcome.Core.Scenario.total_messages,
      List.length r.Core.Adversary.ro_outcome.Core.Scenario.violations )
  in
  let p1 = Core.Adversary.run_pct (module Core.Cc_flag) ~n:6 ~seed:11 () in
  let p2 = Core.Adversary.run_pct (module Core.Cc_flag) ~n:6 ~seed:11 () in
  check_true "pct outcome reproducible" (outline p1 = outline p2);
  check_true "no spec violation under pct"
    (p1.Core.Adversary.ro_outcome.Core.Scenario.violations = []);
  let w1 = Core.Adversary.run_walk (module Core.Dsm_queue) ~n:6 ~seed:11 () in
  let w2 = Core.Adversary.run_walk (module Core.Dsm_queue) ~n:6 ~seed:11 () in
  check_true "walk outcome reproducible" (outline w1 = outline w2);
  check_true "no spec violation under walk"
    (w1.Core.Adversary.ro_outcome.Core.Scenario.violations = [])

let suite =
  [ case "harness run is byte-deterministic" test_run_deterministic;
    case "committed seed corpus has zero findings" test_seed_corpus_agrees;
    case "cases regenerate from (seed, index)" test_case_regenerable;
    case "generation and shrink candidates elaborate" test_cases_elaborate;
    case "oracles agree pointwise on the corpus" test_oracles_agree_pointwise;
    case "lint mutants are caught and shrunk" test_mutants_caught_and_shrunk;
    case "minimize is sound for its check" test_shrink_respects_check;
    case "budget cut-off is deterministic" test_budget_is_deterministic_cutoff;
    case "pct and walk schedules are seed-reproducible"
      test_pct_walk_deterministic ]
