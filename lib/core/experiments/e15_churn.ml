(* E15: waiter churn — crashes and early leavers under bursty arrivals.

   The open-system driver admits waiters in bursts, crashes a fraction of
   them mid-poll and lets another fraction leave before exhausting their
   poll budget.  The point: the separation survives churn.  cc-flag's
   signaler still pays O(1) RMRs per Signal (crashed waiters' cached copies
   are just epoch-stale; nobody cleans up), while dsm-broadcast keeps
   paying for every slot ever allocated, departed or not.  Spec 4.1 is
   checked streamingly against logical time for every non-crashed poll.

   dsm-queue is back in the matrix: its drain once awaited a
   claimed-but-unpublished slot forever, so a waiter crashing between its
   FAI and its slot publish livelocked the signaler (the paper does not
   consider crashes for it).  The drain now re-reads such a hole once and
   skips it — safe because G is set before the drain and a claimant with
   an unpublished slot has not yet read G (see Dsm_queue.signal) — so the
   signaler survives crash churn while still paying Theta(k) per drain. *)

let default_k = 10_000
let reduced_k = 1_000
let seeds = [ 15; 16; 17 ]
let signals = 24

let claim =
  "Secs. 1/5 under churn: crashes and early leavers do not disturb cc-flag's \
   O(1) RMRs per Signal, while dsm-broadcast keeps paying for every waiter \
   that ever joined; dsm-queue's skip-aware drain survives claimants that \
   crash before publishing and still walks Theta(k) registrations"

let contenders : ((module Signaling.POLLING) * Scenario.model_tag) list =
  [ ((module Cc_flag), `Cc_wt);
    ((module Dsm_broadcast), `Dsm);
    ((module Dsm_queue), `Dsm) ]

let spec_for ~k ~seed =
  { Workload.Driver.default_spec with
    seed;
    waiters = k;
    polls_per_waiter = 4;
    signals;
    signal_every = max 1 (6 * k / signals);
    arrivals = Workload.Arrivals.Bursty { burst = 64; mean_lull = 24.0 };
    crash_prob = 0.1;
    leave_early_prob = 0.2 }

let row (seed, ((module A : Signaling.POLLING), model)) ~k =
  let sc =
    Loadgen.scenario ~ways:2 ~ll_ways:1 ~algorithm:(module A) ~model
      (spec_for ~k ~seed)
  in
  let r = Loadgen.run sc in
  let open Workload.Driver in
  Results.
    [ text r.r_algorithm;
      text (Scenario.model_tag_name model);
      int seed;
      int r.r_waiters;
      int r.r_crashes;
      int r.r_left_early;
      int r.r_polls;
      int r.r_signals;
      float ~digits:2 (rmrs_per_signal r);
      float ~digits:3 (rmrs_per_op r);
      bool r.r_spec_ok ]

let table ?(jobs = 1) ?(k = default_k) () =
  let cells =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) contenders) seeds
  in
  Results.make ~experiment:"e15"
    ~title:
      (Printf.sprintf
         "E15 (churn, flat engine): bursty arrivals with crash_prob=0.1 and \
          leave_early_prob=0.2 at k=%d.  cc-flag's per-Signal cost ignores \
          the churn; dsm-broadcast pays for departed waiters forever"
         k)
    ~claim
    ~params:
      [ ("k", Results.int k);
        ("signals", Results.int signals);
        ("seeds", Results.text (String.concat "," (List.map string_of_int seeds)))
      ]
    ~columns:
      Results.
        [ param "algorithm"; param "model"; param "seed"; measure "arrived";
          measure "crashes"; measure "left_early"; measure "polls";
          measure "signals"; measure "rmr/signal"; measure "rmr/op";
          measure "spec_ok" ]
    (Smr.Parallel.map ~jobs (row ~k) cells)

let shape = function
  | [ t ] ->
    let open Experiment_def in
    let algo_rows name =
      List.filter
        (fun row -> Results.get t ~row "algorithm" = Results.Text name)
        t.Results.rows
    in
    let floats name rows =
      List.filter_map
        (fun row -> Results.to_float (Results.get t ~row name))
        rows
    in
    let ints name rows =
      List.filter_map
        (fun row -> Results.to_int (Results.get t ~row name))
        rows
    in
    let cc = algo_rows "cc-flag"
    and bc = algo_rows "dsm-broadcast"
    and qu = algo_rows "dsm-queue" in
    check (cc <> [] && bc <> [] && qu <> []) "e15: all three contenders must appear"
    >>> fun () ->
    check
      (List.for_all (fun s -> s = signals) (ints "signals" t.Results.rows))
      "e15: every signaler must complete all its Signals (dsm-queue's \
       drain must not livelock on a crashed claimant's hole)"
    >>> fun () ->
    shape_all t "spec_ok" (fun v -> v = Results.Bool true)
    >>> fun () ->
    check
      (List.for_all (fun c -> c > 0) (ints "crashes" t.Results.rows))
      "e15: the crash adversary must actually fire"
    >>> fun () ->
    check
      (List.for_all (fun l -> l > 0) (ints "left_early" t.Results.rows))
      "e15: some waiters must leave early"
    >>> fun () ->
    check
      (List.for_all (fun v -> v <= 4.0) (floats "rmr/signal" cc))
      "e15: churn must not disturb cc-flag's O(1) RMRs per Signal"
    >>> fun () ->
    check
      (List.for_all
         (fun v -> v >= float_of_int default_k /. 8.0)
         (floats "rmr/signal" bc))
      "e15: dsm-broadcast must keep paying Theta(k) per Signal under churn"
    >>> fun () ->
    check
      (List.for_all
         (fun v -> v >= float_of_int default_k /. 2.0)
         (floats "rmr/signal" qu))
      "e15: dsm-queue's drain must keep walking Theta(k) registrations"
  | _ -> Error "e15: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e15";
      title = "waiter churn under bursty arrivals (flat engine, open system)";
      claim;
      shape_note =
        "spec_ok everywhere; every signaler completes all its Signals (no \
         drain livelock); crashes>0 and left>0 in every run; cc-flag \
         rmr/signal <= 4; dsm-broadcast rmr/signal >= k/8; dsm-queue \
         rmr/signal >= k/2";
      run =
        (fun ~jobs size ->
          let k = match size with Default -> default_k | Reduced -> reduced_k in
          [ table ~jobs ~k () ]);
      shape }
