(* The benchmark's workloads: what each one runs, how it is set up, how one
   iteration runs (plain or wrapped for the traced run), and how its output
   is checked.

   Inputs are exactly what a user of the CLI chooses — `separation load`
   for the load workloads, `separation explore` for the explore ones — and
   every search-shape knob of Explore.check stays at its default, so a
   change of default is measured without editing this file. *)

open Smr
module Signaling = Core.Signaling

type load = {
  l_algorithm : (module Signaling.POLLING);
  l_model : Core.Scenario.model_tag;
  l_k : int;
  l_polls : int;
  l_crash : float;
  l_leave : float;
  l_fuel : int;
  l_rmr_per_signal : float;  (** the paper's figure, checked exactly *)
}

type explore = {
  e_algorithm : (module Signaling.POLLING);
  e_n : int;
  e_waiters : int;
  e_polls : int;
}

type kind = Load of load | Explore of explore

(* Negative control: Signal() writes a decoy instead of the flag Poll()
   reads, so a waiter can miss a completed signal.  The explorer must find
   the violation and every iteration must count as failed. *)
module Wrong_variable_cc_flag = struct
  let name = "wrong-variable-cc-flag"
  let description = "negative control: Signal writes the wrong variable"
  let primitives = [ Op.Reads_writes ]
  let flexibility = Signaling.any_flexibility

  type t = { flag : bool Var.t; decoy : bool Var.t }

  let create ctx _cfg =
    { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false;
      decoy = Var.Ctx.bool ctx ~name:"decoy" ~home:Var.Shared false }

  let signal t _p = Program.write t.decoy true
  let poll t _p = Program.read t.flag
end

let catalog name =
  match Core.Algorithms.find_algorithm name with
  | Some a -> a
  | None -> invalid_arg ("unknown catalog algorithm " ^ name)

let cc_flag = catalog "cc-flag"
let dsm_broadcast = catalog "dsm-broadcast"
let default_fuel = Workload.Driver.default_spec.Workload.Driver.fuel

(* `separation load -a cc-flag -m cc-wt -k K --polls 4 --crash-prob 0.02
   --leave-prob 0.1`: one RMR per Signal() under CC. *)
let load_cc ?(fuel = default_fuel) k =
  Load
    { l_algorithm = cc_flag; l_model = `Cc_wt; l_k = k; l_polls = 4;
      l_crash = 0.02; l_leave = 0.1; l_fuel = fuel; l_rmr_per_signal = 1.0 }

(* `separation load -a dsm-broadcast -m dsm -k K`: k RMRs per Signal(). *)
let load_dsm k =
  Load
    { l_algorithm = dsm_broadcast; l_model = `Dsm; l_k = k; l_polls = 2;
      l_crash = 0.0; l_leave = 0.0; l_fuel = default_fuel;
      l_rmr_per_signal = float_of_int k }

(* Timed at jobs 1: on a host with few cores a 2-domain search's wall time
   swings with whatever else runs (every minor collection waits for both
   domains).  The traced run measures jobs 2 as well, for the speedup. *)
let explore ?(algorithm = cc_flag) ~n ~waiters ~polls () =
  Explore
    { e_algorithm = algorithm; e_n = n; e_waiters = waiters; e_polls = polls }

(* The workloads BENCHMARK.json lists, then the negative controls, which
   only the self-test runs.  The load sizes give ~0.15 s
   iterations, so a 20 s run takes over 100 samples and its 90th
   percentile has ten beyond it; their engine state (17 MB and 5 MB) still
   exceeds the private caches. *)
let all =
  [ ("load-cc", load_cc 50_000);
    ("load-dsm", load_dsm 30_000);
    ("explore-sym", explore ~n:5 ~waiters:4 ~polls:2 ());
    ("explore-dsm",
     explore ~algorithm:dsm_broadcast ~n:4 ~waiters:3 ~polls:3 ());
    ("control-mutant",
     explore ~algorithm:(module Wrong_variable_cc_flag) ~n:3 ~waiters:2
       ~polls:2 ());
    ("control-fuel", load_cc ~fuel:1000 2000) ]

let algorithm_name (module A : Signaling.POLLING) = A.name

let describe = function
  | Load l ->
    Printf.sprintf
      "load %s on %s: k=%d, %d polls, crash %g, leave-early %g, fuel %d, \
       poisson:2 arrivals, 8 signals"
      (algorithm_name l.l_algorithm)
      (Core.Scenario.model_tag_name l.l_model)
      l.l_k l.l_polls l.l_crash l.l_leave l.l_fuel
  | Explore e ->
    Printf.sprintf "explore %s: N=%d, %d waiters, %d polls, jobs 1"
      (algorithm_name e.e_algorithm) e.e_n e.e_waiters e.e_polls

(* ---- load ---- *)

type load_prep = {
  lp_scenario : Core.Loadgen.scenario;
  lp_instance : Workload.Driver.instance;
  lp_layout : Var.layout;
  lp_n : int;
  lp_model : Flat_sim.model_spec;
}

(* The scenario `separation load` builds from the same flags. *)
let load_scenario l ~seed =
  let signals = 8 in
  let spec =
    { Workload.Driver.seed;
      waiters = l.l_k;
      polls_per_waiter = l.l_polls;
      signals;
      signal_every = max 1 (4 * l.l_k / signals);
      arrivals = Workload.Arrivals.Poisson 2.0;
      crash_prob = l.l_crash;
      leave_early_prob = l.l_leave;
      fuel = l.l_fuel }
  in
  Core.Loadgen.scenario ~ways:8 ~algorithm:l.l_algorithm ~model:l.l_model spec

let load_setup l ~seed =
  let sc = load_scenario l ~seed in
  let instance, layout, n = Core.Loadgen.prepare sc in
  { lp_scenario = sc; lp_instance = instance; lp_layout = layout; lp_n = n;
    lp_model =
      Core.Loadgen.flat_model ~ways:sc.Core.Loadgen.sc_ways
        sc.Core.Loadgen.sc_model }

let load_run ?counters ?on_cache ?instance p =
  Workload.Driver.run ~ll_ways:p.lp_scenario.Core.Loadgen.sc_ll_ways
    ?counters ?on_cache ~model:p.lp_model ~layout:p.lp_layout ~n:p.lp_n
    (Option.value instance ~default:p.lp_instance)
    p.lp_scenario.Core.Loadgen.sc_spec

let flat_sim_create p =
  ignore
    (Flat_sim.create ~ll_ways:p.lp_scenario.Core.Loadgen.sc_ll_ways
       ~model:p.lp_model ~layout:p.lp_layout ~n:p.lp_n ())

(* Program building, wrapped: each Poll()/Signal() program value the
   driver asks for is one [program.build] span. *)
let traced_instance (i : Workload.Driver.instance) =
  let wrap build pid =
    let st = Spans.state () in
    Spans.enter st Spans.build;
    let p = build pid in
    Spans.leave st;
    p
  in
  { i with
    Workload.Driver.w_poll = wrap i.Workload.Driver.w_poll;
    w_signal = wrap i.Workload.Driver.w_signal }

(* Coherence transactions by action (fetch, invalidate, update,
   roundtrip), then the messages they moved.  The load driver runs on one
   domain, so plain counts suffice. *)
let cc_counter () =
  let counts = Array.make 5 0 in
  let on_cache ~t:_ ~pid:_ ~addr:_ ~action ~messages =
    let i =
      match action with
      | "fetch" -> 0
      | "invalidate" -> 1
      | "update" -> 2
      | _ -> 3
    in
    counts.(i) <- counts.(i) + 1;
    counts.(4) <- counts.(4) + messages
  in
  (counts, on_cache)

let check_load l ~reference (r : Workload.Driver.report) =
  let open Workload.Driver in
  if r.r_fuel_exhausted then Error "fuel exhausted before the run drained"
  else if not r.r_spec_ok then Error "Specification 4.1 violated"
  else if rmrs_per_signal r <> l.l_rmr_per_signal then
    Error
      (Printf.sprintf "rmr/signal %.17g, expected exactly %.17g"
         (rmrs_per_signal r) l.l_rmr_per_signal)
  else
    match reference with
    | Some r0 when compare r r0 <> 0 ->
      Error "simulated totals differ from the first iteration's"
    | _ -> Ok ()

(* ---- explore ---- *)

type explore_prep = {
  ep_layout : Var.layout;
  ep_n : int;
  ep_scripts : (Op.pid * Explore.script) list;
  ep_symmetry : Sim.Pid_set.t;
  ep_model : Cost_model.t;
}

(* Exactly what `separation explore -a A -n N -k W --polls P` builds:
   signaler 0 signals once, each waiter polls until true or P times,
   symmetry from detect_symmetry, DSM accounting. *)
let explore_instance e =
  let ctx = Var.Ctx.create () in
  let waiters = List.init e.e_waiters (fun i -> i + 1) in
  let cfg = Signaling.config ~n:e.e_n ~waiters ~signalers:[ 0 ] in
  let inst = Signaling.instantiate e.e_algorithm ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  (inst, layout, waiters)

let detect_symmetry e (inst : Signaling.instance) layout waiters =
  Explore.detect_symmetry
    ~values:(Analysis.Lint.value_domain ~n:e.e_n ~layout)
    (List.map
       (fun w -> (w, (Signaling.poll_label, inst.Signaling.i_poll w)))
       waiters)

let explore_setup e =
  let inst, layout, waiters = explore_instance e in
  let symmetry = detect_symmetry e inst layout waiters in
  let scripts =
    (0, Explore.of_list [ (Signaling.signal_label, inst.Signaling.i_signal 0) ])
    :: List.map
         (fun w ->
           ( w,
             Explore.repeat ~limit:e.e_polls
               ~until:(fun r -> r = 1)
               (Signaling.poll_label, inst.Signaling.i_poll w) ))
         waiters
  in
  { ep_layout = layout; ep_n = e.e_n; ep_scripts = scripts;
    ep_symmetry = symmetry; ep_model = Cost_model.dsm layout }

let explore_run ?(traced = false) p ~jobs =
  if not traced then
    Explore.check ~commute:Op.commute ~jobs ~symmetry:p.ep_symmetry
      ~layout:p.ep_layout ~model:p.ep_model ~n:p.ep_n ~scripts:p.ep_scripts
      ~property:Signaling.polling_ok ()
  else begin
    (* Every hook the explorer calls back into, wrapped in a span; worker
       domains record into their own Spans state. *)
    let scripts =
      List.map
        (fun (pid, s) ->
          ( pid,
            fun sim p ->
              let st = Spans.state () in
              Spans.enter st Spans.script;
              let r = s sim p in
              Spans.leave st;
              r ))
        p.ep_scripts
    in
    let property sim =
      let st = Spans.state () in
      Spans.enter st Spans.property;
      let r = Signaling.polling_ok sim in
      Spans.leave st;
      r
    in
    let commute a b =
      let st = Spans.state () in
      Spans.enter st Spans.commute;
      let r = Op.commute a b in
      Spans.leave st;
      r
    in
    (* The inner model is the wrapper's state: when its accounting returns
       it unchanged, so does the wrapper, and make_stateful shares it. *)
    let model =
      Cost_model.make_stateful ~name:(Cost_model.name p.ep_model)
        ~account:(fun m pid inv ~wrote ->
          let st = Spans.state () in
          Spans.enter st Spans.account;
          let r = Cost_model.account m pid inv ~wrote in
          Spans.leave st;
          r)
        ~predict:Cost_model.predict p.ep_model
    in
    Explore.check ~commute ~jobs ~symmetry:p.ep_symmetry ~layout:p.ep_layout
      ~model ~n:p.ep_n ~scripts ~property ()
  end

(* Everything in a result but the wall clock. *)
let explore_summary (r : Explore.result) =
  ( r.Explore.histories,
    r.Explore.truncated,
    r.Explore.complete,
    { r.Explore.stats with Explore.wall_s = 0.0 } )

let check_explore ~reference (r : Explore.result) =
  if Option.is_some r.Explore.violation then
    Error "Specification 4.1 violation found"
  else if not r.Explore.complete then Error "search incomplete"
  else
    match reference with
    | Some r0 when compare (explore_summary r) (explore_summary r0) <> 0 ->
      Error "verdict or search statistics differ from the first iteration's"
    | _ -> Ok ()
