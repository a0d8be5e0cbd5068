(* Bechamel ablation runner: one Test.make per registered experiment at
   its reduced parameter set (the cost of regenerating it), plus
   microbenchmarks of the simulator substrate and the ablations called out
   in DESIGN.md (peek cost, snapshot cost, erasure cost, adversary
   stability horizon).  The experiment tables themselves are printed by
   `separation tables`; the repository benchmark is perfbench/. *)

open Bechamel
open Toolkit

(* Table-regeneration benches at the registry's reduced parameter sets, so
   the suite stays fast.  Adding an experiment to Core.Experiment_registry
   adds it here automatically. *)
let table_benches =
  List.map
    (fun (spec : Core.Experiment_def.spec) ->
      Test.make
        ~name:("table/" ^ spec.Core.Experiment_def.id)
        (Staged.stage (fun () ->
             spec.Core.Experiment_def.run ~jobs:1 Core.Experiment_def.Reduced)))
    (Core.Experiment_registry.all ())

(* Substrate microbenchmarks. *)

let sim_workload n =
  let open Smr in
  let ctx = Var.Ctx.create () in
  let vars =
    Array.init n (fun i ->
        Var.Ctx.int ctx ~name:(Printf.sprintf "v%d" i) ~home:(Var.Module i) 0)
  in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n in
  (sim, vars)

let bench_sim_steps =
  Test.make ~name:"sim/1000-steps"
    (Staged.stage (fun () ->
         let open Smr in
         let sim, vars = sim_workload 8 in
         let prog p =
           Program.map (fun () -> 0)
             (Program.for_ 1 125 (fun _ ->
                  Program.Syntax.(
                    let* v = Program.read vars.(p) in
                    Program.write vars.(p) (v + 1))))
         in
         let sim =
           List.fold_left
             (fun sim p -> fst (Sim.run_call sim p ~label:"w" (prog p)))
             sim
             (List.init 8 Fun.id)
         in
         assert (Sim.clock sim > 1000)))

let bench_snapshot =
  (* DESIGN.md decision 2: snapshots are O(1) because state is persistent —
     taking one is just keeping a binding. *)
  Test.make ~name:"sim/snapshot-and-diverge"
    (Staged.stage (fun () ->
         let open Smr in
         let sim, vars = sim_workload 4 in
         let sim = fst (Sim.run_call sim 0 ~label:"w" (Program.map (fun () -> 0) (Program.write vars.(0) 1))) in
         let snapshot = sim in
         let sim' = fst (Sim.run_call sim 1 ~label:"w" (Program.map (fun () -> 0) (Program.write vars.(1) 1))) in
         assert (Sim.total_rmrs snapshot <= Sim.total_rmrs sim')))

let bench_erase =
  Test.make ~name:"sim/erase-replay-64"
    (Staged.stage (fun () ->
         let open Smr in
         let n = 64 in
         let sim, vars = sim_workload n in
         let sim =
           List.fold_left
             (fun sim p ->
               fst
                 (Sim.run_call sim p ~label:"w"
                    (Program.map (fun () -> 0) (Program.write vars.(p) 1))))
             sim
             (List.init n Fun.id)
         in
         ignore (Sim.erase sim [ 7 ])))

let bench_peek =
  (* DESIGN.md decision 1: peeking a pending operation is a pattern match,
     not a re-execution. *)
  Test.make ~name:"sim/peek"
    (Staged.stage
       (let open Smr in
        let sim, vars = sim_workload 2 in
        let sim =
          Sim.begin_call sim 0 ~label:"w"
            (Program.map (fun () -> 0) (Program.write vars.(0) 1))
        in
        fun () -> assert (Sim.peek sim 0 <> None)))

(* Tracing ablation: the instrumented hot paths hold an [Obs.Trace.t
   option] and skip everything on [None], so an untraced run must cost
   the same as before the observability layer existed — compare these two
   subjects to see the overhead of tracing and the (near-)absence of
   overhead when it is off.  Both assert the traced and untraced runs
   compute identical accounting: observation never perturbs the run. *)
let trace_scenario tracer =
  let m = Option.get (Core.Algorithms.find_algorithm "cc-flag") in
  let module A = (val m : Core.Signaling.POLLING) in
  let cfg = Core.Algorithms.config_for m ~n:16 in
  Core.Scenario.run_phased (module A) ~model:`Cc_wt ~cfg ?tracer ()

let bench_trace_off =
  Test.make ~name:"obs/phased-16-untraced"
    (Staged.stage (fun () ->
         let o = trace_scenario None in
         assert (o.Core.Scenario.violations = [])))

let bench_trace_on =
  Test.make ~name:"obs/phased-16-traced"
    (Staged.stage (fun () ->
         let baseline = trace_scenario None in
         let tr = Obs.Trace.create () in
         let o = trace_scenario (Some tr) in
         assert (o.Core.Scenario.violations = []);
         assert (o.Core.Scenario.total_rmrs = baseline.Core.Scenario.total_rmrs);
         assert (
           int_of_float
             (Obs.Metrics.total (Obs.Trace.metrics tr) "rmr_total")
           = o.Core.Scenario.total_rmrs)))

let bench_adversary_horizon polls =
  Test.make
    ~name:(Printf.sprintf "ablate/adversary-stability-polls-%d" polls)
    (Staged.stage (fun () ->
         let r =
           Core.Adversary.run (module Core.Dsm_broadcast) ~n:32
             ~stability_polls:polls ()
         in
         assert (r.Core.Adversary.participants = 1)))

let micro_benches =
  [ bench_sim_steps; bench_snapshot; bench_erase; bench_peek;
    bench_trace_off; bench_trace_on;
    bench_adversary_horizon 1; bench_adversary_horizon 3;
    bench_adversary_horizon 6 ]

let estimate_ns instance raw =
  match
    Analyze.one
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      instance raw
  with
  | ols -> (
    match Analyze.OLS.estimates ols with
    | Some [ ns ] -> Some ns
    | Some _ | None -> None)
  | exception _ -> None

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline
      "bench: takes no arguments (experiment tables: `separation tables`)";
    exit 2
  end;
  let instance = Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let tests = table_benches @ micro_benches in
  Fmt.pr "== bechamel: wall-clock per regeneration ==@.";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name raw ->
          match estimate_ns instance raw with
          | Some ns -> Fmt.pr "  %-40s %12.0f ns/run@." name ns
          | None -> Fmt.pr "  %-40s (no estimate)@." name)
        results)
    tests
