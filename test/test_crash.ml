(* Crash-failure tests: the paper's safety properties are crash-tolerant
   (a crashed call is simply never judged), and the simulator's crash
   bookkeeping behaves. *)

open Smr
open Test_util
open Core

let test_crash_lifecycle () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let prog =
    Program.Syntax.(
      let* _ = Program.read x in
      Program.step (Op.Read (Var.addr x)))
  in
  let sim = Sim.begin_call sim 0 ~label:"f" prog in
  let sim = Sim.advance sim 0 in
  let sim = Sim.crash sim 0 in
  check_true "terminated" (Sim.is_terminated sim 0);
  (match Sim.calls_of sim 0 with
  | [ c ] ->
    check_true "call recorded unfinished" (c.History.c_finished = None);
    check_true "no result" (c.History.c_result = None);
    check_int "steps before crash counted" 1 c.History.c_steps
  | _ -> Alcotest.fail "expected one recorded call");
  Alcotest.check_raises "no resurrection"
    (Invalid_argument "Sim.begin_call: process terminated") (fun () ->
      ignore (Sim.begin_call sim 0 ~label:"g" (Program.return 0)))

let test_last_result_after_crash () =
  (* Regression: [last_result] used to return the most recent call's
     result slot even when that call crashed mid-flight, surfacing the
     *previous* call's answer as if it were current.  A crashed latest
     call must yield [None]. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 7 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:1 in
  let sim, r = Sim.run_call sim 0 ~label:"first" (Program.step (Op.Read (Var.addr x))) in
  check_int "first call completed" 7 r;
  check_true "completed call's result visible" (Sim.last_result sim 0 = Some 7);
  let sim =
    Sim.begin_call sim 0 ~label:"second" (Program.step (Op.Read (Var.addr x)))
  in
  let sim = Sim.crash sim 0 in
  check_true "crashed latest call yields None, not the prior result"
    (Sim.last_result sim 0 = None);
  check_int "both calls recorded" 2 (List.length (Sim.calls_of sim 0))

let test_crash_idle_process () =
  let ctx = Var.Ctx.create () in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:1 in
  let sim = Sim.crash sim 0 in
  check_true "idle crash terminates" (Sim.is_terminated sim 0);
  check_int "no call recorded" 0 (List.length (Sim.calls_of sim 0))

let test_crashed_call_not_judged () =
  (* A waiter crashes mid-poll; the spec checker must ignore the pending
     call. *)
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n:4 ~waiters:[ 1; 2 ] ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module Dsm_registration) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:4 in
  let sim =
    Sim.begin_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
  in
  let sim = Sim.advance sim 1 in
  let sim = Sim.crash sim 1 in
  let sim, _ =
    Sim.run_call sim 0 ~label:Signaling.signal_label (inst.Signaling.i_signal 0)
  in
  check_int "no violations with a crashed waiter" 0
    (List.length (Signaling.check_polling (Sim.calls sim)))

(* Random crash injection: under arbitrary waiter crashes at arbitrary
   points, every algorithm still satisfies Specification 4.1, and the
   surviving waiters still learn the signal. *)
let prop_crash_injection (module A : Signaling.POLLING) =
  qcheck ~count:40
    (Printf.sprintf "%s: spec holds under random waiter crashes" A.name)
    QCheck.(triple (int_range 3 10) (int_bound 100_000) (int_bound 1000))
    (fun (n, seed, crash_roll) ->
      let ctx = Var.Ctx.create () in
      let cfg = Algorithms.config_for (module A) ~n in
      let inst = Signaling.instantiate (module A) ctx cfg in
      let layout = Var.Ctx.freeze ctx in
      let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n in
      let rng = Random.State.make [| seed; crash_roll |] in
      let signaled = ref false in
      let behavior sim p : Schedule.action =
        if p = 0 then
          if !signaled then Stop
          else if Sim.clock sim >= 40 then begin
            signaled := true;
            Start (Signaling.signal_label, inst.Signaling.i_signal 0)
          end
          else Pause
        else
          match Sim.last_result sim p with
          | Some 1 -> Stop
          | Some 0 | None ->
            Start (Signaling.poll_label, inst.Signaling.i_poll p)
          | Some _ -> assert false
      in
      (* Interleave normally, but crash a random waiter at a random time
         (possibly mid-call). *)
      let crash_victim = 1 + Random.State.int rng (n - 1) in
      let crash_at = Random.State.int rng 60 in
      let pids = List.init n Fun.id in
      let rec drive sim budget crashed =
        if budget = 0 then sim
        else
          let sim, crashed =
            if (not crashed) && Sim.clock sim >= crash_at
               && not (Sim.is_terminated sim crash_victim) then
              (Sim.crash sim crash_victim, true)
            else (sim, crashed)
          in
          let p = List.nth pids (Random.State.int rng n) in
          let sim =
            if Sim.is_terminated sim p then sim
            else
              match Sim.proc_state sim p with
              | Sim.Running _ -> Sim.advance sim p
              | Sim.Idle -> (
                match behavior sim p with
                | Schedule.Start (label, prog) -> Sim.begin_call sim p ~label prog
                | Schedule.Stop -> Sim.terminate sim p
                | Schedule.Pause -> sim)
              | Sim.Terminated -> sim
          in
          drive sim (budget - 1) crashed
      in
      let sim = drive sim 3000 false in
      Signaling.check_polling (Sim.calls sim) = [])

let crash_props =
  List.map prop_crash_injection
    [ (module Cc_flag : Signaling.POLLING);
      (module Dsm_broadcast);
      (module Dsm_registration);
      (module Dsm_queue);
      (module Cas_register) ]

let test_crash_during_signal_safe () =
  (* The signaler crashes mid-Signal(): some waiters may be flagged and
     others not.  Safety requires only that no Poll() returns true before
     the signal began — which it did — and no Poll() returns false after a
     COMPLETED signal — it never completed.  Both true/false answers are
     legal afterwards. *)
  let ctx = Var.Ctx.create () in
  let cfg = Signaling.config ~n:6 ~waiters:[ 1; 2; 3; 4; 5 ] ~signalers:[ 0 ] in
  let inst = Signaling.instantiate (module Dsm_broadcast) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:6 in
  let sim =
    Sim.begin_call sim 0 ~label:Signaling.signal_label (inst.Signaling.i_signal 0)
  in
  (* Deliver the flag to waiters 1 and 2 only, then crash. *)
  let sim = Sim.advance sim 0 in
  let sim = Sim.advance sim 0 in
  let sim = Sim.advance sim 0 in
  let sim = Sim.crash sim 0 in
  let sim, r1 =
    Sim.run_call sim 1 ~label:Signaling.poll_label (inst.Signaling.i_poll 1)
  in
  let sim, r5 =
    Sim.run_call sim 5 ~label:Signaling.poll_label (inst.Signaling.i_poll 5)
  in
  check_int "flagged waiter sees true" 1 r1;
  check_int "unflagged waiter still false" 0 r5;
  check_int "and the history is spec-clean" 0
    (List.length (Signaling.check_polling (Sim.calls sim)))

let test_crash_in_critical_section_blocks_lock () =
  (* Blocking synchronization is not crash-tolerant: a holder that crashes
     inside the critical section wedges every contender — which is exactly
     why the paper's progress notion (terminating) quantifies only over
     crash-free fair histories. *)
  let ctx = Var.Ctx.create () in
  let lock = Sync.Mcs_lock.create ctx ~n:2 in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n:2 in
  let acquire p = Program.map (fun () -> 0) (Sync.Mcs_lock.acquire lock p) in
  let sim, _ = Sim.run_call sim 0 ~label:"acq" (acquire 0) in
  let sim = Sim.crash sim 0 (* crash while holding the lock *) in
  let sim = Sim.begin_call sim 1 ~label:"acq" (acquire 1) in
  let sim = List.fold_left (fun sim () -> Sim.advance sim 1) sim (List.init 500 (fun _ -> ())) in
  check_true "contender spins forever" (Sim.is_running sim 1)

let suite =
  [ case "crash lifecycle" test_crash_lifecycle;
    case "last_result ignores a crashed latest call" test_last_result_after_crash;
    case "crash in critical section wedges the lock"
      test_crash_in_critical_section_blocks_lock;
    case "crash while idle" test_crash_idle_process;
    case "crashed call not judged" test_crashed_call_not_judged;
    case "crash during signal is safe" test_crash_during_signal_safe ]
  @ crash_props
