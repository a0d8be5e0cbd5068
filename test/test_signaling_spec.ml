(* Tests for the Specification 4.1 checker itself, on synthetic call
   interval lists. *)

open Smr
open Test_util
open Core

let mk_call ~pid ~label ~seq ~started ?finished ?result () =
  { History.c_pid = pid;
    c_label = label;
    c_seq = seq;
    c_started = started;
    c_finished = finished;
    c_result = result;
    c_rmrs = 0;
    c_steps = 0 }

let poll ~pid ~seq ~started ~finished ~result =
  mk_call ~pid ~label:Signaling.poll_label ~seq ~started ~finished
    ~result:(if result then 1 else 0) ()

let signal ~pid ~started ?finished () =
  mk_call ~pid ~label:Signaling.signal_label ~seq:0 ~started ?finished
    ~result:0 ()

let wait ~pid ~started ?finished () =
  mk_call ~pid ~label:Signaling.wait_label ~seq:0 ~started ?finished ~result:0 ()

let test_ok_history () =
  let calls =
    [ poll ~pid:1 ~seq:0 ~started:0 ~finished:1 ~result:false;
      signal ~pid:0 ~started:2 ~finished:3 ();
      poll ~pid:1 ~seq:1 ~started:4 ~finished:5 ~result:true ]
  in
  check_int "no violations" 0 (List.length (Signaling.check_polling calls))

let test_true_without_signal () =
  let calls = [ poll ~pid:1 ~seq:0 ~started:0 ~finished:1 ~result:true ] in
  check_int "flagged" 1 (List.length (Signaling.check_polling calls))

let test_true_with_overlapping_signal_ok () =
  (* Signal has begun (not completed) before the poll returns: legal. *)
  let calls =
    [ signal ~pid:0 ~started:0 ();
      poll ~pid:1 ~seq:0 ~started:1 ~finished:2 ~result:true ]
  in
  check_int "overlap is fine" 0 (List.length (Signaling.check_polling calls))

let test_false_after_completed_signal () =
  let calls =
    [ signal ~pid:0 ~started:0 ~finished:1 ();
      poll ~pid:1 ~seq:0 ~started:2 ~finished:3 ~result:false ]
  in
  match Signaling.check_polling calls with
  | [ Signaling.Poll_false_after_signal (_, _) ] -> ()
  | violations ->
    Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length violations))

let test_false_with_concurrent_signal_ok () =
  (* The signal began but did not complete before the poll began: false is
     a legal answer. *)
  let calls =
    [ signal ~pid:0 ~started:0 ~finished:10 ();
      poll ~pid:1 ~seq:0 ~started:2 ~finished:3 ~result:false ]
  in
  check_int "concurrent signal tolerated" 0
    (List.length (Signaling.check_polling calls))

let test_unfinished_poll_ignored () =
  let calls = [ poll ~pid:1 ~seq:0 ~started:0 ~finished:1 ~result:true ] in
  let pending = { (List.hd calls) with History.c_finished = None } in
  check_int "pending calls not judged" 0
    (List.length (Signaling.check_polling [ pending ]))

let test_blocking_checker () =
  let ok =
    [ signal ~pid:0 ~started:0 (); wait ~pid:1 ~started:1 ~finished:5 () ]
  in
  check_int "wait after signal ok" 0 (List.length (Signaling.check_blocking ok));
  let bad = [ wait ~pid:1 ~started:1 ~finished:5 () ] in
  check_int "wait without signal flagged" 1
    (List.length (Signaling.check_blocking bad));
  let pending = [ wait ~pid:1 ~started:1 () ] in
  check_int "pending wait fine" 0 (List.length (Signaling.check_blocking pending))

let test_validate_config () =
  let flex1 = { Signaling.any_flexibility with max_waiters = Some 1 } in
  check_true "one waiter ok"
    (Signaling.validate_config flex1
       (Signaling.config ~n:4 ~waiters:[ 1 ] ~signalers:[ 0 ])
    = Ok ());
  check_true "two waiters rejected"
    (match
       Signaling.validate_config flex1
         (Signaling.config ~n:4 ~waiters:[ 1; 2 ] ~signalers:[ 0 ])
     with
    | Error _ -> true
    | Ok () -> false);
  let flexs = { Signaling.any_flexibility with max_signalers = Some 1 } in
  check_true "two signalers rejected"
    (match
       Signaling.validate_config flexs
         (Signaling.config ~n:4 ~waiters:[ 2 ] ~signalers:[ 0; 1 ])
     with
    | Error _ -> true
    | Ok () -> false)

let test_validate_config_pids () =
  let flex = Signaling.any_flexibility in
  let expect_error name cfg fragment =
    match Signaling.validate_config flex cfg with
    | Ok () -> Alcotest.failf "%s: expected rejection" name
    | Error msg ->
      check_true
        (Printf.sprintf "%s: %S mentions %S" name msg fragment)
        (contains msg fragment)
  in
  expect_error "waiter pid ≥ n"
    (Signaling.config ~n:3 ~waiters:[ 1; 3 ] ~signalers:[ 0 ])
    "waiter pid 3 out of range";
  expect_error "negative signaler pid"
    (Signaling.config ~n:3 ~waiters:[ 1 ] ~signalers:[ -1 ])
    "signaler pid -1 out of range";
  expect_error "duplicate waiter"
    (Signaling.config ~n:4 ~waiters:[ 1; 2; 1 ] ~signalers:[ 0 ])
    "waiter pid 1 listed more than once";
  expect_error "duplicate signaler"
    (Signaling.config ~n:4 ~waiters:[ 2 ] ~signalers:[ 0; 0 ])
    "signaler pid 0 listed more than once";
  check_true "waiter also a signaler is fine"
    (Signaling.validate_config flex
       (Signaling.config ~n:4 ~waiters:[ 1 ] ~signalers:[ 1 ])
    = Ok ())

let test_instantiate_rejects_bad_config () =
  let ctx = Smr.Var.Ctx.create () in
  let cfg = Signaling.config ~n:4 ~waiters:[ 1; 2 ] ~signalers:[ 0 ] in
  check_true "instantiate validates"
    (match Signaling.instantiate (module Dsm_single_waiter) ctx cfg with
    | (_ : Signaling.instance) -> false
    | exception Invalid_argument _ -> true)

let suite =
  [ case "clean history passes" test_ok_history;
    case "true before any signal flagged" test_true_without_signal;
    case "true with begun signal ok" test_true_with_overlapping_signal_ok;
    case "false after completed signal flagged" test_false_after_completed_signal;
    case "false with concurrent signal ok" test_false_with_concurrent_signal_ok;
    case "pending polls not judged" test_unfinished_poll_ignored;
    case "blocking checker" test_blocking_checker;
    case "config validation" test_validate_config;
    case "config validation rejects bad pids" test_validate_config_pids;
    case "instantiate validates config" test_instantiate_rejects_bad_config ]
