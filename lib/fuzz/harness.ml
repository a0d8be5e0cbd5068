(* The budgeted fuzzing harness.

   Deterministic end to end: the case stream is a function of the seed,
   each oracle is a deterministic function of its case, and the budget is
   measured in schedule-decisions-times-oracle-weight rather than wall
   time — so `separation fuzz --seed S --cases N` produces the same
   table, the same findings and the same shrunk cases on every machine,
   byte for byte. *)

type config = {
  seed : int;
  cases : int;
  budget : int option; (* cap on deterministic work units *)
  oracles : Oracles.id list;
  mutants : bool; (* draw Entry cases from the seeded lint mutants *)
  only : int option; (* replay exactly one case index *)
  coverage_new_only : bool; (* oracle-check only signature-novel cases *)
}

let default_config =
  { seed = 1;
    cases = 200;
    budget = None;
    oracles = Oracles.all;
    mutants = false;
    only = None;
    coverage_new_only = false }

type finding = {
  f_oracle : string;
  f_index : int;
  f_detail : string;
  f_case : Case.t;
  f_shrunk : Case.t;
}

type report = {
  table : Core.Results.table;
  coverage : Core.Results.table;
  findings : finding list;
  cases_run : int;
  cases_skipped : int; (* duplicate-signature cases under coverage_new_only *)
  units : int;
}

let profile_for cfg =
  let algorithms =
    List.map
      (fun (module A : Core.Signaling.POLLING) -> A.name)
      Core.Algorithms.polling_algorithms
  in
  let entries =
    List.filter_map
      (fun (e : Analysis.Registry.entry) ->
        if e.Analysis.Registry.mutant = cfg.mutants then
          Some e.Analysis.Registry.name
        else None)
      (Analysis.Registry.all ~mutants:true ())
  in
  let families =
    List.sort_uniq compare
      (List.concat_map
         (function
           | Oracles.Por_vs_nopor -> [ `Script ]
           | Oracles.Claims_vs_measured | Oracles.Amortized_vs_measured ->
             [ `Entry ]
           | Oracles.Lean_vs_full | Oracles.Sim_vs_flat | Oracles.Cc_invariants
             ->
             [ `Programs; `Script; `Entry ])
         cfg.oracles)
  in
  { Gen.p_families = families; p_algorithms = algorithms; p_entries = entries }

type tally = {
  mutable t_cases : int;
  mutable t_checks : int;
  mutable t_findings : int;
  mutable t_units : int;
}

let run cfg =
  (* The Entry family and the claims oracle read the lint registry. *)
  Core.Lint_catalog.register ();
  let profile = profile_for cfg in
  let oracles =
    List.filter (fun o -> List.mem o cfg.oracles) Oracles.all
  in
  let tallies =
    List.map
      (fun o -> (o, { t_cases = 0; t_checks = 0; t_findings = 0; t_units = 0 }))
      oracles
  in
  let tally o = List.assq o tallies in
  let findings = ref [] in
  let units = ref 0 in
  let exhausted () =
    match cfg.budget with Some b -> !units >= b | None -> false
  in
  let indices =
    match cfg.only with
    | Some i -> [ i ]
    | None -> List.init (max 0 cfg.cases) Fun.id
  in
  let cases_run = ref 0 in
  (* Coverage buckets: behavior signature -> (first case index, cases).
     [order] keeps first-seen order for a deterministic table. *)
  let buckets : (string, int * int ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let skipped = ref 0 in
  List.iter
    (fun index ->
      if not (exhausted ()) then begin
        let case = Gen.gen ~profile ~seed:cfg.seed ~index in
        incr cases_run;
        let signature = Coverage.signature case in
        let novel =
          match Hashtbl.find_opt buckets signature with
          | Some (_, count) ->
            incr count;
            false
          | None ->
            Hashtbl.add buckets signature (index, ref 1);
            order := signature :: !order;
            true
        in
        if cfg.coverage_new_only && not novel then incr skipped
        else
          List.iter
          (fun o ->
            if Oracles.applies o case && not (exhausted ()) then begin
              let t = tally o in
              t.t_cases <- t.t_cases + 1;
              let cost =
                Oracles.weight o * max 1 (List.length case.Case.schedule)
              in
              t.t_units <- t.t_units + cost;
              units := !units + cost;
              match Oracles.eval o case with
              | Oracles.Skip -> ()
              | Oracles.Agree k -> t.t_checks <- t.t_checks + k
              | Oracles.Disagree detail ->
                t.t_checks <- t.t_checks + 1;
                t.t_findings <- t.t_findings + 1;
                let check c =
                  match Oracles.eval o c with
                  | Oracles.Disagree _ -> true
                  | Oracles.Agree _ | Oracles.Skip -> false
                in
                let shrunk = Shrink.minimize ~check case in
                let detail =
                  match Oracles.eval o shrunk with
                  | Oracles.Disagree d -> d
                  | Oracles.Agree _ | Oracles.Skip -> detail
                in
                findings :=
                  { f_oracle = Oracles.name o;
                    f_index = index;
                    f_detail = detail;
                    f_case = case;
                    f_shrunk = shrunk }
                  :: !findings
            end)
          oracles
      end)
    indices;
  let table =
    Core.Results.make ~experiment:"fuzz"
      ~title:
        (Printf.sprintf
           "Differential fuzz: seed=%d, %d cases through the oracle lattice"
           cfg.seed !cases_run)
      ~claim:
        "Lean vs full machine, persistent vs flat engine, POR vs literal \
         exploration, static claims vs measured RMRs, and the CC cost-model \
         invariants agree on every generated case"
      ~params:
        Core.Results.
          [ ("seed", int cfg.seed);
            ("cases", int !cases_run);
            ("mutants", bool cfg.mutants) ]
      ~columns:
        Core.Results.
          [ param "oracle"; measure "cases"; measure "checks";
            measure "findings"; measure "units" ]
      (List.map
         (fun (o, t) ->
           Core.Results.
             [ text (Oracles.name o); int t.t_cases; int t.t_checks;
               int t.t_findings; int t.t_units ])
         tallies)
  in
  let coverage =
    Core.Results.make ~experiment:"fuzz" ~part:"coverage"
      ~title:
        (Printf.sprintf "corpus coverage: %d signature buckets over %d cases"
           (Hashtbl.length buckets) !cases_run)
      ~claim:
        "counter-plane behavior signatures bucket the corpus; \
         --coverage-new-only oracle-checks one case per bucket"
      ~params:
        Core.Results.
          [ ("seed", int cfg.seed);
            ("buckets", int (Hashtbl.length buckets));
            ("skipped", int !skipped);
            ("new_only", bool cfg.coverage_new_only) ]
      ~columns:
        Core.Results.
          [ param "signature"; measure "first_case"; measure "cases" ]
      (List.rev_map
         (fun s ->
           let first, count = Hashtbl.find buckets s in
           Core.Results.[ text s; int first; int !count ])
         !order)
  in
  { table;
    coverage;
    findings = List.rev !findings;
    cases_run = !cases_run;
    cases_skipped = !skipped;
    units = !units }

let pp_finding ppf f =
  Fmt.pf ppf
    "@[<v>FINDING [%s] case %d: %s@,replay: separation fuzz --seed %d --only \
     %d@,minimized:@,%a@]"
    f.f_oracle f.f_index f.f_detail f.f_case.Case.seed f.f_index Case.pp
    f.f_shrunk
