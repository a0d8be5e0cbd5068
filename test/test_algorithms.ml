(* Correctness and complexity tests for every signaling algorithm, under
   deterministic and randomized schedules and under every cost model. *)

open Test_util
open Core

let algorithms = Algorithms.polling_algorithms

let models : Scenario.model_tag list = [ `Dsm; `Cc_wt; `Cc_wb; `Cc_lfcu ]

let name_of (module A : Signaling.POLLING) = A.name

(* Every algorithm, every model, phased schedule: no violations, every
   waiter learns. *)
let phased_cases =
  List.concat_map
    (fun (module A : Signaling.POLLING) ->
      List.map
        (fun model ->
          case
            (Printf.sprintf "%s / %s: phased run is safe and live"
               (name_of (module A))
               (Scenario.model_tag_name model))
            (fun () ->
              let cfg = Algorithms.config_for (module A) ~n:16 in
              let o = Scenario.run_phased (module A) ~model ~cfg () in
              check_int "no violations" 0 (List.length o.Scenario.violations);
              check_int "every waiter learned" 0 o.Scenario.unfinished_waiters))
        models)
    algorithms

(* Every algorithm under randomized schedules: Specification 4.1 holds. *)
let random_props =
  List.map
    (fun (module A : Signaling.POLLING) ->
      qcheck ~count:50
        (Printf.sprintf "%s: spec 4.1 under random schedules" (name_of (module A)))
        QCheck.(triple (int_range 2 12) (int_bound 100_000) (int_bound 120))
        (fun (n, seed, signal_after) ->
          let cfg = Algorithms.config_for (module A) ~n in
          let o =
            Scenario.run_random (module A) ~model:`Dsm ~cfg ~seed ~signal_after ()
          in
          o.Scenario.violations = []))
    algorithms

(* Polls before any signal must return false; after a completed signal, a
   fresh poll must return true.  (Phased already checks this; here we pin
   the end-to-end outcome explicitly per algorithm at one size.) *)

(* --- per-algorithm complexity bounds (DSM unless noted) --- *)

let test_cc_flag_waiter_bound () =
  let cfg = Algorithms.config_for (module Cc_flag) ~n:64 in
  let o = Scenario.run_phased (module Cc_flag) ~model:`Cc_wt ~cfg () in
  check_true "CC waiter O(1)" (o.Scenario.max_waiter_rmrs <= 2);
  check_true "CC signaler O(1)" (o.Scenario.signaler_rmrs <= 2)

let test_cc_flag_wait_free_bound () =
  (* Wait-freedom of the Sec. 5 solution: every Poll() is exactly one step,
     Signal() exactly one step, independent of schedule. *)
  let cfg = Algorithms.config_for (module Cc_flag) ~n:8 in
  let o = Scenario.run_random (module Cc_flag) ~model:`Cc_wt ~cfg ~seed:5 () in
  List.iter
    (fun (c : Smr.History.call) ->
      check_true "single-step calls" (c.Smr.History.c_steps <= 1))
    (Smr.Sim.calls o.Scenario.sim)

let test_dsm_single_waiter_bound () =
  let cfg = Algorithms.config_for (module Dsm_single_waiter) ~n:64 in
  let o = Scenario.run_phased (module Dsm_single_waiter) ~model:`Dsm ~cfg () in
  check_true "waiter O(1) worst-case" (o.Scenario.max_waiter_rmrs <= 3);
  check_true "signaler O(1) worst-case" (o.Scenario.signaler_rmrs <= 3)

let test_dsm_fixed_waiters_signaler_linear () =
  let run n =
    let cfg = Algorithms.config_for (module Dsm_fixed_waiters) ~n in
    (Scenario.run_phased (module Dsm_fixed_waiters) ~model:`Dsm ~cfg ())
      .Scenario.signaler_rmrs
  in
  check_int "signaler pays W at 16" 15 (run 16);
  check_int "signaler pays W at 64" 63 (run 64)

let test_dsm_fixed_waiters_zero_waiter_rmrs () =
  let cfg = Algorithms.config_for (module Dsm_fixed_waiters) ~n:32 in
  let o = Scenario.run_phased (module Dsm_fixed_waiters) ~model:`Dsm ~cfg () in
  check_int "waiters never leave their module" 0 o.Scenario.max_waiter_rmrs

let test_dsm_registration_amortized () =
  (* Partial participation: signaler cost tracks participants, not N. *)
  let cfg = Algorithms.config_for (module Dsm_registration) ~n:128 in
  let o =
    Scenario.run_phased (module Dsm_registration) ~model:`Dsm ~cfg
      ~active_waiters:(List.init 4 (fun i -> i + 1)) ()
  in
  check_true
    (Printf.sprintf "signaler O(k): %d" o.Scenario.signaler_rmrs)
    (o.Scenario.signaler_rmrs <= 8);
  check_true "waiters O(1)" (o.Scenario.max_waiter_rmrs <= 3)

let test_dsm_queue_amortized_flat () =
  let amortized k =
    let cfg = Algorithms.config_for (module Dsm_queue) ~n:128 in
    let o =
      Scenario.run_phased (module Dsm_queue) ~model:`Dsm ~cfg
        ~active_waiters:(List.init k (fun i -> i + 1)) ()
    in
    o.Scenario.amortized
  in
  check_true "flat amortized cost" (amortized 64 < amortized 2 +. 3.)

let test_dsm_fixed_terminating_blocks_without_participation () =
  let cfg = Algorithms.config_for (module Dsm_fixed_terminating) ~n:16 in
  check_true "signal blocks awaiting absent waiters"
    (match
       Scenario.run_phased (module Dsm_fixed_terminating) ~model:`Dsm ~cfg
         ~active_waiters:[ 1 ] ()
     with
    | (_ : Scenario.outcome) -> false
    | exception Failure _ -> true)

let test_registration_race_window () =
  (* The race the paper calls out: a waiter registers while Signal() is in
     flight.  Force the interleaving: the signaler writes S, then the
     waiter's first poll runs to completion, then the signaler finishes.
     The waiter must learn (from S), and later polls stay true. *)
  let ctx = Smr.Var.Ctx.create () in
  let cfg = Signaling.config ~n:4 ~waiters:[ 1; 2 ] ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module Dsm_registration) ctx cfg in
  let layout = Smr.Var.Ctx.freeze ctx in
  let sim =
    Smr.Sim.create ~model:(Smr.Cost_model.dsm layout) ~layout ~n:4
  in
  let sim =
    Smr.Sim.begin_call sim 0 ~label:Signaling.signal_label
      (inst.Signaling.i_signal 0)
  in
  let sim = Smr.Sim.advance sim 0 (* S := true *) in
  let sim, r1 =
    Smr.Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
  in
  check_int "late registrant sees S" 1 r1;
  let sim = Smr.Sim.run_to_idle sim 0 in
  let _, r2 =
    Smr.Sim.run_call sim 2 ~label:Signaling.poll_label (inst.Signaling.i_poll 2)
  in
  check_int "post-signal first poll true" 1 r2

let test_queue_race_window () =
  (* Same race for the queue algorithm: enqueue while the drain is past the
     waiter's slot; the G check must save it. *)
  let ctx = Smr.Var.Ctx.create () in
  let cfg = Signaling.config ~n:4 ~waiters:[ 1; 2 ] ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module Dsm_queue) ctx cfg in
  let layout = Smr.Var.Ctx.freeze ctx in
  let sim = Smr.Sim.create ~model:(Smr.Cost_model.dsm layout) ~layout ~n:4 in
  let sim =
    Smr.Sim.begin_call sim 0 ~label:Signaling.signal_label
      (inst.Signaling.i_signal 0)
  in
  let sim = Smr.Sim.advance sim 0 (* G := true *) in
  let sim = Smr.Sim.advance sim 0 (* read tail = 0: drain sees nobody *) in
  let sim, r1 =
    Smr.Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
  in
  check_int "registrant missed by drain still sees G" 1 r1;
  let sim = Smr.Sim.run_to_idle sim 0 in
  check_true "signal completed" (Smr.Sim.is_idle sim 0)

let test_single_waiter_handshake_race () =
  (* W/S handshake: the waiter announces after the signaler read W = NIL.
     Forced interleaving; the waiter must still learn via S. *)
  let ctx = Smr.Var.Ctx.create () in
  let cfg = Signaling.config ~n:4 ~waiters:[ 1 ] ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module Dsm_single_waiter) ctx cfg in
  let layout = Smr.Var.Ctx.freeze ctx in
  let sim = Smr.Sim.create ~model:(Smr.Cost_model.dsm layout) ~layout ~n:4 in
  (* Signal runs completely before the waiter's first poll: S set, W NIL. *)
  let sim, _ =
    Smr.Sim.run_call sim 0 ~label:Signaling.signal_label (inst.Signaling.i_signal 0)
  in
  let _, r =
    Smr.Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
  in
  check_int "waiter reads S on first poll" 1 r

let test_signaler_may_also_wait () =
  (* Section 4: "Alternately, we can require that waiters and signalers be
     distinct.  This has no effect on the complexity bounds" — the
     algorithms must be safe when the signaler also polls. *)
  List.iter
    (fun (module A : Signaling.POLLING) ->
      let cfg =
        Signaling.config ~n:6 ~waiters:[ 0; 1; 2; 3; 4; 5 ] ~signalers:[ 0 ]
      in
      let o = Scenario.run_random (module A) ~model:`Dsm ~cfg ~seed:31 () in
      check_int
        (Printf.sprintf "%s: no violations with a polling signaler"
           (name_of (module A)))
        0
        (List.length o.Scenario.violations))
    [ (module Cc_flag : Signaling.POLLING); (module Dsm_broadcast);
      (module Dsm_queue); (module Cas_register) ]

(* Section 7's simplified lower bound, as an invariant: once waiters have
   stabilized (their polls are local), a completing Signal() must write
   into every stabilized waiter's memory module — otherwise that waiter's
   next poll would wrongly return false.  Ω(W) RMRs for the signaler is a
   corollary.  Checked for every algorithm whose waiters stabilize. *)
let stabilizing_algorithms : (module Signaling.POLLING) list =
  [ (module Dsm_broadcast); (module Dsm_fixed_waiters);
    (module Dsm_fixed_terminating); (module Dsm_registration);
    (module Dsm_queue); (module Cas_register); (module Llsc_register) ]

let omega_w_cases =
  List.map
    (fun (module A : Signaling.POLLING) ->
      case
        (Printf.sprintf "%s: signal writes every stabilized waiter's module"
           (name_of (module A)))
        (fun () ->
          let n = 12 in
          let cfg = Algorithms.config_for (module A) ~n in
          let o = Scenario.run_phased (module A) ~model:`Dsm ~cfg ~pre_polls:3 () in
          let steps = Smr.Sim.steps o.Scenario.sim in
          let signal_start =
            List.find_map
              (fun (c : Smr.History.call) ->
                if c.Smr.History.c_label = Signaling.signal_label then
                  Some c.Smr.History.c_started
                else None)
              (Smr.Sim.calls o.Scenario.sim)
            |> Option.get
          in
          List.iter
            (fun w ->
              check_true
                (Printf.sprintf "signaler wrote p%d's module" w)
                (List.exists
                   (fun (s : Smr.History.step) ->
                     s.Smr.History.pid = 0 && s.Smr.History.wrote
                     && s.Smr.History.time > signal_start
                     && s.Smr.History.home = Smr.Var.Module w)
                   steps))
            cfg.Signaling.waiters))
    stabilizing_algorithms

(* --- blocking semantics --- *)

let blocking_algorithms : (module Signaling.BLOCKING) list =
  [ (module Dsm_leader);
    (module Signaling.Blocking_of_polling (Cc_flag));
    (module Signaling.Blocking_of_polling (Dsm_queue));
    (module Signaling.Blocking_of_polling (Dsm_registration)) ]

let blocking_cases =
  List.map
    (fun (module B : Signaling.BLOCKING) ->
      case
        (Printf.sprintf "%s: blocking run is safe and live" B.name)
        (fun () ->
          let cfg = default_cfg ~n:10 in
          let o = Scenario.run_blocking (module B) ~model:`Dsm ~cfg ~seed:17 () in
          check_int "no violations" 0 (List.length o.Scenario.violations);
          check_int "every wait returned" 0 o.Scenario.unfinished_waiters))
    blocking_algorithms

let prop_blocking_random =
  List.map
    (fun (module B : Signaling.BLOCKING) ->
      qcheck ~count:25
        (Printf.sprintf "%s: blocking spec under random schedules" B.name)
        QCheck.(pair (int_range 2 8) (int_bound 50_000))
        (fun (n, seed) ->
          let cfg = default_cfg ~n in
          let o = Scenario.run_blocking (module B) ~model:`Dsm ~cfg ~seed () in
          o.Scenario.violations = [] && o.Scenario.unfinished_waiters = 0))
    blocking_algorithms

let test_dsm_leader_follower_cost () =
  let cfg = default_cfg ~n:16 in
  let o = Scenario.run_blocking (module Dsm_leader) ~model:`Dsm ~cfg ~seed:23 () in
  (* All waiters but the leader pay O(1): election TAS + nothing else
     remote (their led flag is local). *)
  let costs =
    List.map (fun w -> Smr.Sim.rmrs o.Scenario.sim w) cfg.Signaling.waiters
  in
  let cheap = List.filter (fun c -> c <= 3) costs in
  check_true
    (Printf.sprintf "at most one expensive waiter (the leader); costs=%s"
       (String.concat "," (List.map string_of_int costs)))
    (List.length cheap >= List.length costs - 1)

(* --- many signalers --- *)

module Multi_queue = Multi_signaler.Make (Dsm_queue)

let test_multi_signaler_safe () =
  let n = 12 in
  let cfg =
    Signaling.config ~n
      ~waiters:(List.init (n - 3) (fun i -> i + 3))
      ~signalers:[ 0; 1; 2 ]
  in
  let o = Scenario.run_phased (module Multi_queue) ~model:`Dsm ~cfg () in
  check_int "no violations" 0 (List.length o.Scenario.violations);
  check_int "all waiters learn" 0 o.Scenario.unfinished_waiters

let prop_multi_signaler_random =
  qcheck ~count:30 "multi-signaler: spec under random schedules"
    QCheck.(pair (int_range 4 10) (int_bound 50_000))
    (fun (n, seed) ->
      let cfg =
        Signaling.config ~n
          ~waiters:(List.init (n - 2) (fun i -> i + 2))
          ~signalers:[ 0; 1 ]
      in
      let o = Scenario.run_random (module Multi_queue) ~model:`Dsm ~cfg ~seed () in
      o.Scenario.violations = [])

let test_transformed_has_no_cas () =
  let cfg = Algorithms.config_for (module Cas_register.Transformed) ~n:8 in
  let o = Scenario.run_phased (module Cas_register.Transformed) ~model:`Dsm ~cfg () in
  check_true "reads/writes only"
    (List.for_all
       (fun (s : Smr.History.step) ->
         match Smr.Op.primitive_class s.Smr.History.inv with
         | Smr.Op.Reads_writes -> true
         | Smr.Op.Comparison | Smr.Op.Fetch_and_phi -> false)
       (Smr.Sim.steps o.Scenario.sim))

let suite =
  phased_cases
  @ random_props
  @ [ case "cc-flag: O(1) RMRs in CC" test_cc_flag_waiter_bound;
      case "cc-flag: wait-free (1-step calls)" test_cc_flag_wait_free_bound;
      case "dsm-single: O(1) worst-case" test_dsm_single_waiter_bound;
      case "dsm-fixed: signaler pays W" test_dsm_fixed_waiters_signaler_linear;
      case "dsm-fixed: waiters pay 0" test_dsm_fixed_waiters_zero_waiter_rmrs;
      case "dsm-registration: O(k) signaler" test_dsm_registration_amortized;
      case "dsm-queue: amortized flat" test_dsm_queue_amortized_flat;
      case "dsm-fixed-term: blocks without participation"
        test_dsm_fixed_terminating_blocks_without_participation;
      case "registration race window" test_registration_race_window;
      case "queue race window" test_queue_race_window;
      case "single-waiter handshake race" test_single_waiter_handshake_race;
      case "multi-signaler safe" test_multi_signaler_safe;
      prop_multi_signaler_random;
      case "transformed algorithm is reads/writes only" test_transformed_has_no_cas;
      case "dsm-leader: followers pay O(1)" test_dsm_leader_follower_cost ]
    @ [ case "signaler may also be a waiter" test_signaler_may_also_wait ]
    @ omega_w_cases
    @ blocking_cases
    @ prop_blocking_random
