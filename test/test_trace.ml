(* Observability layer: traces are deterministic, never perturb the run
   they observe, and their derived metrics agree with the scenario's own
   accounting. *)

open Smr
open Test_util

let alg name = Option.get (Core.Algorithms.find_algorithm name)

(* Run one phased scenario with a fresh trace attached; return both. *)
let traced ?(model = `Dsm) ?(n = 4) name =
  let m = alg name in
  let module A = (val m : Core.Signaling.POLLING) in
  let tr = Obs.Trace.create () in
  let cfg = Core.Algorithms.config_for m ~n in
  let o = Core.Scenario.run_phased (module A) ~model ~cfg ~tracer:tr () in
  (tr, o)

let untraced ?(model = `Dsm) ?(n = 4) name =
  let m = alg name in
  let module A = (val m : Core.Signaling.POLLING) in
  let cfg = Core.Algorithms.config_for m ~n in
  Core.Scenario.run_phased (module A) ~model ~cfg ()

(* --- acceptance: metrics agree with the scenario's accounting --- *)

let test_rmr_total_matches_outcome () =
  List.iter
    (fun (name, model, tag) ->
      let tr, o = traced ~model name in
      let total =
        Obs.Metrics.total (Obs.Trace.metrics tr) "rmr_total"
      in
      check_int
        (Printf.sprintf "%s/%s: sum of rmr_total over labels = total_rmrs"
           name tag)
        o.Core.Scenario.total_rmrs (int_of_float total))
    [ ("cc-flag", `Dsm, "dsm"); ("cc-flag", `Cc_wt, "cc-wt");
      ("dsm-broadcast", `Dsm, "dsm"); ("dsm-queue", `Cc_wb, "cc-wb") ]

let test_messages_total_matches_outcome () =
  let tr, o = traced ~model:`Cc_wt "cc-flag" in
  check_int "sum of messages_total = total_messages"
    o.Core.Scenario.total_messages
    (int_of_float (Obs.Metrics.total (Obs.Trace.metrics tr) "messages_total"))

(* --- acceptance: observation never perturbs the run --- *)

let test_tracing_does_not_perturb () =
  List.iter
    (fun (name, model) ->
      let _, o = traced ~model name in
      let o' = untraced ~model name in
      check_int "total_rmrs unchanged" o'.Core.Scenario.total_rmrs
        o.Core.Scenario.total_rmrs;
      check_int "total_messages unchanged" o'.Core.Scenario.total_messages
        o.Core.Scenario.total_messages;
      check_true "identical step-level history"
        (Sim.steps o.Core.Scenario.sim = Sim.steps o'.Core.Scenario.sim);
      check_true "no violations introduced"
        (o.Core.Scenario.violations = o'.Core.Scenario.violations))
    [ ("cc-flag", `Dsm); ("cc-flag", `Cc_wt); ("dsm-broadcast", `Dsm) ]

(* A parallel map must fail as [List.map] does, so that the stderr of a
   parallel run does not depend on scheduling.  Element 3 waits (bounded)
   until element 7 has raised, then lingers before raising itself: a map
   that re-raised whichever failure was recorded first would report 7. *)
let test_parallel_map_lowest_failure () =
  let seven_raised = Atomic.make false in
  let wait_until cond ~timeout_s =
    let t0 = Obs.Clock.now_s () in
    while (not (cond ())) && Obs.Clock.elapsed_s ~since:t0 < timeout_s do
      Domain.cpu_relax ()
    done
  in
  let f ~patience_s i =
    if i = 3 then begin
      wait_until (fun () -> Atomic.get seven_raised) ~timeout_s:patience_s;
      wait_until (fun () -> false) ~timeout_s:0.05;
      failwith "3"
    end;
    if i = 7 then begin
      Atomic.set seven_raised true;
      failwith "7"
    end;
    i
  in
  let xs = List.init 10 Fun.id in
  let raised map =
    match map xs with _ -> None | exception Failure m -> Some m
  in
  (* Sequentially, 3 runs before 7: waiting for 7 would only time out. *)
  check_true "List.map raises 3"
    (raised (List.map (f ~patience_s:0.0)) = Some "3");
  Alcotest.(check (option string)) "Parallel.map raises 3" (Some "3")
    (raised (Parallel.map ~jobs:2 (f ~patience_s:5.0)))

(* --- golden: the JSONL stream is pinned byte-for-byte --- *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_chrome_edge_goldens () =
  (* Fixtures written by gen.exe — regenerate after an intentional schema
     change.  Edge cases: the empty stream, a single event (exactly its
     own track metadata, no stray lanes), and two pids sharing one tick
     (emission order preserved), for both the machine tracks and the
     flat-path cells track group. *)
  Alcotest.(check string) "empty stream renders a loadable document"
    (read_file "golden/chrome_empty.json")
    (Obs.Sink_chrome.to_string []);
  let single =
    [ Obs.Event.Op_step
        { t = 1; pid = 0; kind = "write"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = true; rmr = true;
          messages = 1; model = "cc-wt"; call_seq = 0 } ]
  in
  Alcotest.(check string) "single event, single lane"
    (read_file "golden/chrome_single.json")
    (Obs.Sink_chrome.to_string single);
  let same_tick =
    [ Obs.Event.Op_step
        { t = 3; pid = 0; kind = "write"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = true; rmr = true;
          messages = 1; model = "cc-wt"; call_seq = 0 };
      Obs.Event.Op_step
        { t = 3; pid = 1; kind = "read"; addr = 0; var = "B";
          home = Obs.Event.Shared; response = 1; wrote = false;
          rmr = false; messages = 0; model = "cc-wt"; call_seq = 2 } ]
  in
  Alcotest.(check string) "two pids at one tick keep emission order"
    (read_file "golden/chrome_two_pids_same_tick.json")
    (Obs.Sink_chrome.to_string same_tick);
  Alcotest.(check string) "cells track group (flat-path export)"
    (read_file "golden/chrome_cells.json")
    (Obs.Sink_chrome.cells_to_string
       ~cell_name:(Printf.sprintf "B (a%d)")
       [ { Obs.Sink_chrome.ce_t = 2; ce_pid = 0; ce_addr = 0;
           ce_action = "invalidate"; ce_messages = 3 };
         { Obs.Sink_chrome.ce_t = 2; ce_pid = 1; ce_addr = 1;
           ce_action = "fetch"; ce_messages = 1 };
         { Obs.Sink_chrome.ce_t = 5; ce_pid = 2; ce_addr = 0;
           ce_action = "roundtrip"; ce_messages = 1 } ]);
  (* And the cells sink on the degenerate inputs. *)
  check_true "empty cells document still parses as a trace doc"
    (String.length (Obs.Sink_chrome.cells_to_string []) > 0)

let test_jsonl_golden () =
  (* Must match `separation trace -a cc-flag -n 4 --format jsonl` (CI
     diffs the CLI output against the same fixture).  Regenerate with
     `dune exec test/golden/gen.exe` after an intentional schema change. *)
  let tr, _ = traced ~model:`Dsm ~n:4 "cc-flag" in
  Alcotest.(check string) "trace_cc_flag.jsonl byte-identical"
    (read_file "golden/trace_cc_flag.jsonl")
    (Obs.Sink_jsonl.to_string (Obs.Trace.events tr))

(* --- schema coverage per instrumented layer --- *)

let count_by pred tr = List.length (List.filter pred (Obs.Trace.events tr))

let test_cc_emits_cache_events () =
  let tr, _ = traced ~model:`Cc_wt "cc-flag" in
  let caches =
    count_by (function Obs.Event.Cache _ -> true | _ -> false) tr
  in
  check_true "write-through bus run emits coherence events" (caches > 0);
  check_true "coherence_messages_total accumulated"
    (Obs.Metrics.total (Obs.Trace.metrics tr) "coherence_messages_total" > 0.);
  (* DSM has no coherence traffic to report. *)
  let tr', _ = traced ~model:`Dsm "cc-flag" in
  check_int "dsm run emits no cache events" 0
    (count_by (function Obs.Event.Cache _ -> true | _ -> false) tr')

let test_call_events_balanced () =
  let tr, o = traced ~model:`Dsm "cc-flag" in
  let begins =
    count_by (function Obs.Event.Call_begin _ -> true | _ -> false) tr
  and ends =
    count_by (function Obs.Event.Call_end _ -> true | _ -> false) tr
  and crashes =
    count_by (function Obs.Event.Call_crash _ -> true | _ -> false) tr
  in
  check_int "every call that begins ends (crash-free run)" begins
    (ends + crashes);
  check_int "no crashes in a phased run" 0 crashes;
  check_int "one call record per begin event" begins
    (List.length (Sim.calls o.Core.Scenario.sim))

let test_adversary_traced () =
  let m = alg "cc-flag" in
  let module A = (val m : Core.Signaling.POLLING) in
  let tr = Obs.Trace.create () in
  let r = Core.Adversary.run (module A) ~n:8 ~tracer:tr ~max_rounds:6 () in
  check_false "construction ran clean" r.Core.Adversary.spec_violated;
  check_true "adversary decisions recorded"
    (count_by (function Obs.Event.Adversary _ -> true | _ -> false) tr > 0);
  check_true "decision counters accumulated"
    (Obs.Metrics.total (Obs.Trace.metrics tr) "adversary_decisions_total" > 0.);
  (* Erasure replays re-execute surviving steps on a silent machine: the
     trace keeps the live (pre-erasure) stream and gains no duplicates,
     so it can only hold at least as many op events as surviving steps. *)
  check_true "no duplicate op events from replay"
    (count_by (function Obs.Event.Op_step _ -> true | _ -> false) tr
    >= List.length (Sim.steps r.Core.Adversary.final_sim))

let small_explore ~tracer ~jobs =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let incr_x =
    Program.Syntax.(
      let* v = Program.read x in
      let* () = Program.write x (v + 1) in
      Program.return (v + 1))
  in
  Explore.check ?tracer ~jobs ~layout
    ~model:(Cost_model.dsm layout) ~n:2
    ~scripts:
      [ (0, Explore.of_list [ ("inc", incr_x) ]);
        (1, Explore.of_list [ ("inc", incr_x) ]) ]
    ~property:(fun _ -> true) ()

let test_explore_spans () =
  let tr = Obs.Trace.create () in
  let r = small_explore ~tracer:(Some tr) ~jobs:1 in
  let spans =
    List.filter
      (function Obs.Event.Explore_task _ -> true | _ -> false)
      (Obs.Trace.events tr)
  in
  check_int "one span for the whole search" 1 (List.length spans);
  check_int "stats report the one task" 1 r.Explore.stats.Explore.tasks;
  (match spans with
  | [ Obs.Event.Explore_task e ] ->
    check_int "the span covers every state" r.Explore.stats.Explore.states
      e.states
  | _ -> ());
  (* The span carries synthetic ticks, and [jobs] has no effect on the
     search, so the stream is identical at any jobs level. *)
  let tr2 = Obs.Trace.create () in
  let _ = small_explore ~tracer:(Some tr2) ~jobs:2 in
  check_true "explore trace byte-identical across jobs"
    (Obs.Sink_jsonl.to_string (Obs.Trace.events tr)
    = Obs.Sink_jsonl.to_string (Obs.Trace.events tr2))

let test_runner_spans () =
  let specs =
    [ Core.Experiment_registry.find_exn "e1";
      Core.Experiment_registry.find_exn "e5" ]
  in
  let tr = Obs.Trace.create () in
  let outcomes =
    Core.Runner.run ~jobs:1 ~tracer:tr ~size:Core.Experiment_def.Reduced specs
  in
  let spans =
    List.filter_map
      (function
        | Obs.Event.Runner_span { experiment; _ } -> Some experiment
        | _ -> None)
      (Obs.Trace.events tr)
  in
  Alcotest.(check (list string)) "one span per experiment, in spec order"
    [ "e1"; "e5" ] spans;
  check_int "outcomes match specs" 2 (List.length outcomes)

(* --- the latch: a disabled trace stays empty, a detached sim is silent --- *)

let test_disabled_is_silent () =
  let o = untraced "cc-flag" in
  check_true "untraced sim holds no tracer"
    (Sim.tracer o.Core.Scenario.sim = None);
  let tr = Obs.Trace.create () in
  Obs.Trace.emit_if_armed tr
    (Obs.Event.Adversary { t = 0; decision = "x"; pid = 0; detail = "" });
  check_int "emit_if_armed without arm drops the event" 0
    (Obs.Trace.length tr)

let suite =
  [
    case "rmr_total sums to outcome total_rmrs" test_rmr_total_matches_outcome;
    case "messages_total sums to outcome total_messages"
      test_messages_total_matches_outcome;
    case "tracing does not perturb the run" test_tracing_does_not_perturb;
    case "parallel map re-raises the lowest-index failure"
      test_parallel_map_lowest_failure;
    case "jsonl golden fixture" test_jsonl_golden;
    case "chrome sink edge-case goldens" test_chrome_edge_goldens;
    case "cc models emit cache events, dsm none" test_cc_emits_cache_events;
    case "call begin/end events balanced" test_call_events_balanced;
    case "adversary decisions traced, replays silent" test_adversary_traced;
    case "explore spans per task, jobs-deterministic" test_explore_spans;
    case "runner spans in spec order" test_runner_spans;
    case "disabled tracing is silent" test_disabled_is_silent;
  ]
