(* The open-system workload layer: seeded RNG, arrival processes, streaming
   stats, and the driver's determinism and accounting invariants.

   The load pipeline's contract is that everything observable is a function
   of the scenario (seed included): CI diffs `separation load` stdout
   across runs and --jobs levels, and these tests pin the same property at
   the library level — identical reports, identical rendered tables — plus
   the steady-state allocation bound the flat engine is judged by. *)

open Workload

let check_true = Alcotest.(check bool) "expected true" true
let check_int = Alcotest.(check int)
let case name f = Alcotest.test_case name `Quick f

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 1000 do
    check_true (Rng.next a = Rng.next b)
  done;
  let c = Rng.create 43 in
  check_true (Rng.next (Rng.create 42) <> Rng.next c)

let test_rng_ranges () =
  let r = Rng.create 7 in
  for _ = 1 to 10_000 do
    let i = Rng.int r 13 in
    check_true (i >= 0 && i < 13);
    let f = Rng.float r in
    check_true (f >= 0.0 && f < 1.0);
    check_true (Rng.exponential r ~mean:2.0 >= 0.0)
  done

(* --- stats --- *)

let test_stats_welford () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let m = Stats.summary s in
  check_int "count" 8 m.Stats.count;
  check_true (abs_float (m.Stats.mean -. 5.0) < 1e-9);
  (* population stddev of the classic example is exactly 2 *)
  check_true (abs_float (m.Stats.stddev -. 2.0) < 1e-9);
  check_true (m.Stats.min = 2.0 && m.Stats.max = 9.0);
  let empty = Stats.summary (Stats.create ()) in
  check_int "empty count" 0 empty.Stats.count;
  check_true (empty.Stats.mean = 0.0 && empty.Stats.stddev = 0.0)

(* --- arrivals --- *)

let test_arrivals_gaps () =
  let rng = Rng.create 3 in
  let u = Arrivals.make (Arrivals.Uniform 5) in
  for _ = 1 to 100 do
    check_int "uniform gap" 5 (Arrivals.next_gap u rng)
  done;
  let p = Arrivals.make (Arrivals.Poisson 2.0) in
  let total = ref 0 in
  for _ = 1 to 1000 do
    let g = Arrivals.next_gap p rng in
    check_true (g >= 0);
    total := !total + g
  done;
  (* mean 2.0: a thousand draws land well inside [1, 4] on any seed *)
  check_true (!total > 1000 && !total < 4000);
  let b = Arrivals.make (Arrivals.Bursty { burst = 4; mean_lull = 10.0 }) in
  (* within a burst the gap is 0; the burst-closing gap is >= 1 *)
  let gaps = List.init 12 (fun _ -> Arrivals.next_gap b rng) in
  check_true (List.exists (fun g -> g = 0) gaps);
  check_true (List.exists (fun g -> g >= 1) gaps)

(* --- the driver over the catalog (via Core.Loadgen) --- *)

let scenario ?(algorithm = "cc-flag") ?(model = `Cc_wt) ?(k = 400) ?(seed = 11)
    ?(crash_prob = 0.0) ?(leave_early_prob = 0.0) () =
  let m = Option.get (Core.Algorithms.find_algorithm algorithm) in
  Core.Loadgen.scenario ~ways:2 ~algorithm:m ~model
    { Driver.default_spec with
      seed;
      waiters = k;
      polls_per_waiter = 3;
      signals = 8;
      signal_every = max 1 (4 * k / 8);
      crash_prob;
      leave_early_prob }

let test_driver_deterministic () =
  (* Same scenario, two runs: the reports (floats included) and the
     rendered table bytes must be identical — the library-level half of
     CI's `separation load` same-seed / jobs-invariance diffs. *)
  List.iter
    (fun (algorithm, model) ->
      let sc = scenario ~algorithm ~model ~crash_prob:0.05 ~leave_early_prob:0.1 () in
      let r1 = Core.Loadgen.run sc and r2 = Core.Loadgen.run sc in
      check_true (r1 = r2);
      let t1 = Core.Loadgen.table [ (sc, r1) ]
      and t2 = Core.Loadgen.table [ (sc, r2) ] in
      Alcotest.(check string)
        "table bytes"
        (Core.Results.to_json t1)
        (Core.Results.to_json t2))
    [ ("cc-flag", `Cc_wt); ("dsm-broadcast", `Dsm) ]

let test_driver_seed_sensitivity () =
  let r1 = Core.Loadgen.run (scenario ~seed:1 ~crash_prob:0.1 ())
  and r2 = Core.Loadgen.run (scenario ~seed:2 ~crash_prob:0.1 ()) in
  check_true (r1 <> r2)

let test_driver_accounting_invariants () =
  let k = 500 in
  let sc =
    scenario ~algorithm:"dsm-broadcast" ~model:`Dsm ~k ~crash_prob:0.08
      ~leave_early_prob:0.15 ()
  in
  let r = Core.Loadgen.run sc in
  let open Driver in
  check_int "every waiter joins" k r.r_waiters;
  (* every joined waiter either terminates cleanly or crashed mid-poll *)
  check_int "departures" k (r.r_left + r.r_crashes);
  check_true (r.r_left_early <= r.r_left);
  check_true (r.r_crashes > 0 && r.r_left_early > 0);
  check_true (r.r_polls <= k * 3);
  check_int "polls observed = polls summarized" r.r_polls
    r.r_poll_rmrs.Stats.count;
  check_int "signals all issued" 8 r.r_signals;
  check_true r.r_spec_ok;
  check_true (not r.r_fuel_exhausted);
  check_true (r.r_total_rmrs >= r.r_signaler_rmrs)

let test_driver_spec_verdict_detects_violations () =
  (* The streaming Spec 4.1 check must be able to fail: dsm-queue WITHOUT
     the registration-time memo answers false after a completed Signal()
     when a waiter registers between two signals.  Reproduce that shape
     with a degenerate "algorithm" whose poll always returns false. *)
  let open Smr in
  let ctx = Var.Ctx.create () in
  let cell = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let inst =
    { Driver.w_name = "always-false";
      w_poll = (fun _ -> Program.map (fun _ -> 0) (Program.read cell));
      w_signal = (fun _ -> Program.map (fun () -> 0) (Program.write cell 1)) }
  in
  let spec =
    { Driver.default_spec with
      seed = 5;
      waiters = 20;
      signals = 2;
      signal_every = 4;
      arrivals = Arrivals.Uniform 8 }
  in
  let r = Driver.run ~model:Smr.Flat_sim.Dsm ~layout ~n:21 inst spec in
  check_true (not r.Driver.r_spec_ok)

let test_driver_allocation_bounded () =
  (* Steady state allocates a bounded constant per step (the programs'
     steps and continuations, the driver's bookkeeping), independent of k:
     the engine itself — cells, caches, accounting — is flat arrays and
     allocates nothing, and arming the counter planes adds nothing per
     step either.  The bounds are the measured figures (dev profile:
     ~42 words/step for dsm-broadcast/dsm, ~44 for cc-flag/cc-wt) plus
     slack; minting a debug-name string per vec handle, for one, breaks
     the dsm bound. *)
  let words_per_step ?(counters = false) ~algorithm ~model k =
    let sc = scenario ~algorithm ~model ~k () in
    let counters =
      if counters then begin
        let _, layout, n = Core.Loadgen.prepare sc in
        Some
          (Obs.Counters.create ~n ~size:(Smr.Var.layout_size layout) ())
      end
      else None
    in
    ignore (Core.Loadgen.run ?counters sc) (* warm-up excluded from the window *);
    let w0 = Gc.minor_words () in
    let r = Core.Loadgen.run ?counters sc in
    (Gc.minor_words () -. w0) /. float_of_int r.Driver.r_steps
  in
  let dsm = words_per_step ~algorithm:"dsm-broadcast" ~model:`Dsm in
  let small = dsm 500 and large = dsm 4000 in
  let within name ok = Alcotest.(check bool) name true ok in
  within "dsm-broadcast, k = 500: < 64 words/step" (small < 64.0);
  within "dsm-broadcast, k = 4000: < 64 words/step" (large < 64.0);
  (* constant, not growing with k: allow generous jitter for GC noise *)
  check_true (large < small *. 2.0 +. 16.0);
  let cc ~counters =
    words_per_step ~counters ~algorithm:"cc-flag" ~model:`Cc_wt 4000
  in
  let off = cc ~counters:false and armed = cc ~counters:true in
  within "cc-flag, counters off: < 64 words/step" (off < 64.0);
  within "cc-flag, counters armed: < 64 words/step" (armed < 64.0);
  within "arming counters adds <= 1 word/step" (armed <= off +. 1.0)

let test_timeline_sampled () =
  (* Rendering a history bigger than the caps degrades to a sample with an
     explicit marker, and the default caps leave small runs untouched. *)
  let open Smr in
  let n = 80 in
  let ctx = Var.Ctx.create () in
  let cell = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = ref (Sim.create ~model:(Cost_model.dsm layout) ~layout ~n) in
  for p = 0 to n - 1 do
    for _ = 1 to 10 do
      let s, _ =
        Sim.run_call !sim p ~label:"w"
          (Program.map (fun () -> 0) (Program.write cell p))
      in
      sim := s
    done
  done;
  let r = Timeline.render !sim in
  let contains = Test_util.contains in
  check_true (contains r "[sampled: 64 of 80 process columns shown]");
  (* ticks are counted among the visible columns only: 64 shown processes
     x 10 calls x 3 event ticks (begin, step, return) *)
  check_true (contains r "of 1920 event ticks shown]");
  (* rows: header + 512 event rows + 2 trailers *)
  check_int "row cap respected" (1 + 512 + 2)
    (List.length (String.split_on_char '\n' (String.trim r)));
  (* an uncapped render of the same history has no marker *)
  let full = Timeline.render ~max_cols:100 ~max_rows:10_000 !sim in
  check_true (not (contains full "[sampled:"))

let suite =
  [ case "rng: seeded and deterministic" test_rng_deterministic;
    case "rng: ranges" test_rng_ranges;
    case "stats: welford moments" test_stats_welford;
    case "arrivals: gap laws" test_arrivals_gaps;
    case "driver: same seed, same bytes" test_driver_deterministic;
    case "driver: different seed, different run" test_driver_seed_sensitivity;
    case "driver: accounting invariants under churn"
      test_driver_accounting_invariants;
    case "driver: streaming verdict can fail"
      test_driver_spec_verdict_detects_violations;
    case "driver: steady-state allocation bounded"
      test_driver_allocation_bounded;
    case "timeline: huge histories render sampled" test_timeline_sampled ]
