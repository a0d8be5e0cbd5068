(* Exhaustive small-scope verification: every interleaving of small
   signaling configurations satisfies Specification 4.1, and the explorer
   itself counts interleavings correctly. *)

open Smr
open Test_util
open Core

(* The spec as an exploration property. *)
let spec_ok sim = Signaling.check_polling (Sim.calls sim) = []

let ok_scope = function
  | Ok t -> t
  | Error msg -> Alcotest.failf "bad scope: %s" msg

(* The scope most searches here run: signaler 0 calls Signal() once, each
   waiter polls until true or [polls] times. *)
let scope algo ~n ~waiters ~polls =
  ok_scope
    (Exhaustive.make algo (Signaling.config ~n ~waiters ~signalers:[ 0 ]) ~polls)

let scripts_for algo ~n ~waiters ~polls =
  let t = scope algo ~n ~waiters ~polls in
  (Exhaustive.layout t, Exhaustive.scripts t)

(* Searches run without symmetry reduction unless a test names it. *)
let no_symmetry = { Exhaustive.default_search with symmetry = false }

let explore algo ~n ~waiters ~polls =
  Exhaustive.check (scope algo ~n ~waiters ~polls) no_symmetry

let check_no_violation name (r : Explore.result) =
  check_true (name ^ ": no violation") (r.Explore.violation = None);
  check_true (name ^ ": explored something") (r.Explore.histories > 0)

let test_count_basics () =
  (* Two processes, one single-step call each: begin+step per process give
     2 moves each; interleavings of the 4 events with per-process order
     fixed = C(4,2) = 6. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let script p = Explore.of_list [ ("w", Program.step (Op.Write (Var.addr x, p))) ] in
  let n =
    Explore.count ~layout ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ()
  in
  check_int "six interleavings" 6 n

let test_count_respects_cap () =
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let script p =
    Explore.of_list
      (List.init 3 (fun i ->
           (Printf.sprintf "w%d" i, Program.step (Op.Write (Var.addr x, p)))))
  in
  let r =
    Explore.check ~max_histories:10 ~layout ~model:(Cost_model.dsm layout) ~n:2
      ~scripts:[ (0, script 0); (1, script 1) ]
      ~property:(fun _ -> true) ()
  in
  check_int "capped" 10 r.Explore.histories;
  check_false "reported incomplete" r.Explore.complete

let test_truncation_of_spin_loops () =
  (* A spinner that never sees its condition: every branch that keeps
     scheduling it truncates rather than hanging. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let spin = Program.map (fun () -> 0) (Program.await x (fun v -> v > 0)) in
  let r =
    Explore.check ~max_steps_per_history:20 ~layout
      ~model:(Cost_model.dsm layout) ~n:1
      ~scripts:[ (0, Explore.of_list [ ("spin", spin) ]) ]
      ~property:(fun _ -> true) ()
  in
  check_true "truncated branches reported" (r.Explore.truncated > 0);
  check_false "not complete" r.Explore.complete

let test_violation_reported () =
  (* A property that always fails is falsified on the first leaf. *)
  let ctx = Var.Ctx.create () in
  let x = Var.Ctx.int ctx ~name:"x" ~home:Var.Shared 0 in
  let layout = Var.Ctx.freeze ctx in
  let r =
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n:1
      ~scripts:
        [ (0, Explore.of_list [ ("w", Program.step (Op.Write (Var.addr x, 1))) ]) ]
      ~property:(fun _ -> false) ()
  in
  check_true "violation returned" (r.Explore.violation <> None)

(* --- exhaustive spec verification per algorithm --- *)

let test_cc_flag_exhaustive () =
  let r = explore (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "cc-flag" r;
  check_true "fully enumerated" r.Explore.complete

let test_broadcast_exhaustive () =
  let r = explore (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "dsm-broadcast" r;
  check_true "fully enumerated" r.Explore.complete

let test_single_waiter_exhaustive () =
  let r = explore (module Dsm_single_waiter) ~n:2 ~waiters:[ 1 ] ~polls:3 in
  check_no_violation "dsm-single" r;
  check_true "fully enumerated" r.Explore.complete

let test_registration_exhaustive () =
  (* Fully enumerable at one waiter; at two waiters the state space tops
     the cap (~11M interleavings), so that run is a bounded search. *)
  let r = explore (module Dsm_registration) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "dsm-registration (n=2)" r;
  check_true "fully enumerated" r.Explore.complete;
  let r3 = explore (module Dsm_registration) ~n:3 ~waiters:[ 1; 2 ] ~polls:1 in
  check_no_violation "dsm-registration (n=3, capped)" r3

let test_queue_exhaustive () =
  (* The drain's await can spin on a claimed slot, so some branches
     truncate; spec safety must hold on every explored prefix. *)
  let r = explore (module Dsm_queue) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "dsm-queue" r

let test_cas_register_exhaustive () =
  let r = explore (module Cas_register) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "cas-register" r

let test_llsc_register_exhaustive () =
  let r = explore (module Llsc_register) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_no_violation "llsc-register" r

let test_fixed_waiters_exhaustive () =
  let r = explore (module Dsm_fixed_waiters) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_no_violation "dsm-fixed" r;
  check_true "fully enumerated" r.Explore.complete

let test_multi_signaler_exhaustive () =
  (* Two racing signalers (leader election inside Signal()) and one
     waiter: safety over the explored space; the losing signaler's remote
     spin truncates some branches. *)
  let module M = Multi_signaler.Make (Dsm_broadcast) in
  let t =
    ok_scope
      (Exhaustive.make (module M)
         (Signaling.config ~n:3 ~waiters:[ 2 ] ~signalers:[ 0; 1 ])
         ~polls:2)
  in
  (* Bounded search: the remote spin makes the space unbounded, so the cap
     governs runtime.  10k deduplicated/reduced histories cover tens of
     thousands of distinct states — comparable behavioral coverage to the
     400k raw interleavings the naive checker's budget used to buy, at a
     fraction of the time. *)
  let r = Exhaustive.check t { no_symmetry with cap = 10_000 } in
  check_no_violation "multi-signaler" r

(* --- scope validation ---

   A scope the search cannot run is an [Error] naming the bad parameter,
   not an exception out of instantiation.  The scopes are the ones
   `explore -a A -n N -k K --polls P` builds: signaler 0, waiters 1..K. *)

let scope_error (module A : Signaling.POLLING) ~n ~k ~polls =
  match
    Exhaustive.make (module A)
      (Signaling.config ~n ~waiters:(List.init k (fun i -> i + 1)) ~signalers:[ 0 ])
      ~polls
  with
  | Ok _ -> Alcotest.failf "%s -n %d -k %d --polls %d accepted" A.name n k polls
  | Error msg -> msg

let test_scope_dsm_single_two_waiters () =
  let msg = scope_error (module Dsm_single_waiter) ~n:2 ~k:2 ~polls:2 in
  check_true ("names the waiter: " ^ msg) (contains msg "waiter pid 2");
  (* In range, the single-waiter variant still refuses a second waiter. *)
  let msg = scope_error (module Dsm_single_waiter) ~n:3 ~k:2 ~polls:2 in
  check_true ("names the waiter bound: " ^ msg) (contains msg "at most 1 waiter")

let test_scope_bad_waiter_set () =
  let msg = scope_error (module Cc_flag) ~n:2 ~k:3 ~polls:2 in
  check_true ("names the waiter: " ^ msg) (contains msg "waiter pid 2");
  check_true ("names n: " ^ msg) (contains msg "2 process(es)");
  let msg = scope_error (module Cc_flag) ~n:3 ~k:0 ~polls:2 in
  check_true ("names the missing waiters: " ^ msg) (contains msg "waiters:");
  match
    Exhaustive.make (module Cc_flag)
      (Signaling.config ~n:3 ~waiters:[ 0; 1 ] ~signalers:[ 0 ])
      ~polls:2
  with
  | Ok _ -> Alcotest.fail "pid 0 accepted in both roles"
  | Error msg -> check_true ("names the shared pid: " ^ msg) (contains msg "pid 0")

let test_scope_zero_polls () =
  let msg = scope_error (module Cc_flag) ~n:3 ~k:2 ~polls:0 in
  check_true ("names polls: " ^ msg) (contains msg "polls = 0")

(* --- reduction effectiveness, scale, and parallel determinism --- *)

let test_reduction_ratio () =
  (* The reference configuration of the rewrite: dedup + POR must visit at
     least 10x fewer states than the naive enumeration while returning the
     same verdict. *)
  let t = scope (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let run ~dedup ~por =
    Exhaustive.check t { no_symmetry with dedup; por }
  in
  let reduced = run ~dedup:true ~por:true in
  let naive = run ~dedup:false ~por:false in
  check_no_violation "reduced" reduced;
  check_no_violation "naive" naive;
  check_true "reduced complete" reduced.Explore.complete;
  check_true "naive complete" naive.Explore.complete;
  check_true
    (Printf.sprintf "at least 10x fewer states (%d vs %d)"
       reduced.Explore.stats.Explore.states naive.Explore.stats.Explore.states)
    (naive.Explore.stats.Explore.states
    >= 10 * reduced.Explore.stats.Explore.states)

let test_previously_infeasible_scope () =
  (* Three waiters x two polls was far beyond the naive checker's budget
     (hundreds of millions of interleavings); with the reductions the space
     collapses to a few thousand histories and enumerates exhaustively. *)
  let r = explore (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2 in
  check_no_violation "cc-flag (3 waiters)" r;
  check_true "fully enumerated" r.Explore.complete

(* Everything jobs-invariant in a result: all counters plus the violation's
   recorded calls; only [stats.wall_s] may differ between runs. *)
let comparable (r : Explore.result) =
  let s = r.Explore.stats in
  ( ( r.Explore.histories,
      r.Explore.truncated,
      r.Explore.complete,
      Option.map Sim.calls r.Explore.violation ),
    ( s.Explore.states,
      s.Explore.dedup_hits,
      s.Explore.por_prunes,
      s.Explore.tasks,
      s.Explore.max_depth,
      s.Explore.orbit_hits ),
    ( s.Explore.fp_distinct,
      s.Explore.fp_collisions,
      s.Explore.fp_resizes,
      s.Explore.fp_slots ) )

let test_jobs_deterministic () =
  let layout, scripts =
    scripts_for (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  let run jobs =
    Explore.check ~jobs ~layout ~model:(Cost_model.dsm layout) ~n:4 ~scripts
      ~property:spec_ok ()
  in
  let r1 = run 1 and r4 = run 4 in
  check_true "jobs=1 and jobs=4 agree on every field but wall time"
    (comparable r1 = comparable r4)

(* A deliberately broken algorithm: Signal() writes a decoy variable and
   never touches the flag Poll() reads, so every Poll() after a completed
   Signal() still returns false — the second clause of Specification 4.1.
   The checker must find this mutation, and must report the same violating
   history at every parallelism level. *)
module Broken_cc_flag = struct
  let name = "broken-cc-flag"
  let description = "mutation: Signal writes the wrong variable"
  let primitives = [ Op.Reads_writes ]
  let flexibility = Signaling.any_flexibility

  type t = { flag : bool Var.t; decoy : bool Var.t }

  let create ctx _cfg =
    { flag = Var.Ctx.bool ctx ~name:"B" ~home:Var.Shared false;
      decoy = Var.Ctx.bool ctx ~name:"decoy" ~home:Var.Shared false }

  let signal t _p = Program.write t.decoy true
  let poll t _p = Program.read t.flag
end

let test_mutation_caught () =
  let layout, scripts =
    scripts_for (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  let run jobs =
    Explore.check ~jobs ~layout ~model:(Cost_model.dsm layout) ~n:3 ~scripts
      ~property:spec_ok ()
  in
  let violating_calls jobs =
    match (run jobs).Explore.violation with
    | None -> Alcotest.failf "jobs=%d: mutation not caught" jobs
    | Some sim -> Sim.calls sim
  in
  let c1 = violating_calls 1 in
  check_true "violating history non-empty" (c1 <> []);
  check_true "jobs=2 reports the same violating history"
    (violating_calls 2 = c1);
  check_true "jobs=4 reports the same violating history"
    (violating_calls 4 = c1)

(* --- lean vs. full stepping --- *)

let test_lean_matches_full () =
  (* The explorer steps a lean machine by default; exploring with full
     history must change nothing observable: same verdict, same violating
     history (if any), and every jobs-invariant counter identical — the
     property-preservation argument of docs/MODEL.md, "Exploration fast
     path", checked differentially on reference configurations and on a
     mutant that violates the specification. *)
  let run_pair (module A : Signaling.POLLING) ~n ~waiters ~polls =
    let layout, scripts = scripts_for (module A) ~n ~waiters ~polls in
    let run lean =
      Explore.check ~lean ~layout ~model:(Cost_model.dsm layout) ~n ~scripts
        ~property:spec_ok ()
    in
    (run true, run false)
  in
  let check_pair name (lean, full) =
    check_true (name ^ ": every field but wall time agrees")
      (comparable lean = comparable full)
  in
  check_pair "cc-flag" (run_pair (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2);
  check_pair "dsm-single"
    (run_pair (module Dsm_single_waiter) ~n:2 ~waiters:[ 1 ] ~polls:3);
  let lean, full = run_pair (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_pair "broken-cc-flag" (lean, full);
  match (lean.Explore.violation, full.Explore.violation) with
  | Some ls, Some fs ->
    check_true "lean violation machine keeps no step records"
      (Sim.steps ls = []);
    check_true "full violation machine keeps them" (Sim.steps fs <> []);
    (* The CLI renders the lean search's violation from a full re-run. *)
    let t = scope (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
    let r = Exhaustive.check t no_symmetry in
    (match Exhaustive.witness t no_symmetry r with
    | Some ws ->
      check_true "witness keeps step records" (Sim.steps ws <> []);
      check_true "witness is the lean search's violation"
        (Option.map Sim.calls r.Explore.violation = Some (Sim.calls ws))
    | None -> Alcotest.fail "no witness for the mutant")
  | _ -> Alcotest.fail "mutation not caught on both sides"

let test_fast_property_agrees () =
  (* [Signaling.polling_ok] (the allocation-free form the CLI feeds the
     explorer) must be verdict-equivalent to the violation-listing checker
     on both a correct algorithm and a broken one. *)
  let run algo ~n ~waiters property =
    let layout, scripts = scripts_for algo ~n ~waiters ~polls:2 in
    Explore.check ~layout ~model:(Cost_model.dsm layout) ~n ~scripts ~property ()
  in
  let slow = run (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] spec_ok in
  let fast =
    run (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] Signaling.polling_ok
  in
  check_true "same violating history on the mutant"
    (Option.map Sim.calls slow.Explore.violation
    = Option.map Sim.calls fast.Explore.violation);
  check_true "violation actually found" (fast.Explore.violation <> None);
  let clean = run (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] Signaling.polling_ok in
  check_true "clean algorithm stays clean" (clean.Explore.violation = None)

(* --- budget determinism and fingerprint interning --- *)

let test_capped_jobs_deterministic () =
  (* A budget that stops the search mid-tree: the stop point is the leaf
     that reaches the budget, and every number is identical at every
     jobs. *)
  let layout, scripts =
    scripts_for (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  let run jobs =
    Explore.check ~max_histories:50 ~jobs ~layout
      ~model:(Cost_model.dsm layout) ~n:4 ~scripts ~property:spec_ok ()
  in
  let r1 = run 1 in
  check_false "capped" r1.Explore.complete;
  check_int "stops exactly at the budget" 50 r1.Explore.histories;
  check_true "jobs=2 identical" (comparable (run 2) = comparable r1);
  check_true "jobs=4 identical" (comparable (run 4) = comparable r1)

let test_fp_intern_ids () =
  (* Two distinct keys forced onto one hash: distinct, stable, dense ids;
     the collision is counted; ids survive table growth. *)
  let t = Fp_intern.create ~equal:String.equal () in
  let id_a = Fp_intern.intern t ~hash:42 "a" in
  let id_b = Fp_intern.intern t ~hash:42 "b" in
  check_int "first id is 0" 0 id_a;
  check_int "colliding key gets the next id" 1 id_b;
  check_int "two distinct keys" 2 (Fp_intern.distinct t);
  check_int "one collision counted" 1 (Fp_intern.collisions t);
  check_int "re-interning is stable" id_a (Fp_intern.intern t ~hash:42 "a");
  check_int "for both keys" id_b (Fp_intern.intern t ~hash:42 "b");
  check_int "re-interning adds nothing" 2 (Fp_intern.distinct t);
  for i = 2 to 2000 do
    ignore (Fp_intern.intern t ~hash:(i * 7919) (string_of_int i))
  done;
  check_int "ids survive resizes" id_a (Fp_intern.intern t ~hash:42 "a");
  check_int "all keys kept" 2001 (Fp_intern.distinct t)

(* --- symmetry reduction --- *)

(* Like [scripts_for], plus the interchangeable waiters the CLI detects:
   one representative Poll() per waiter, bisimulated over the lint's
   response domain. *)
let scripts_sym algo ~n ~waiters ~polls =
  let t = scope algo ~n ~waiters ~polls in
  (Exhaustive.layout t, Exhaustive.scripts t, Exhaustive.symmetry t)

let test_detect_symmetry () =
  (* cc-flag waiters all read the one shared flag: interchangeable. *)
  let _, _, sym = scripts_sym (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_int "both cc-flag waiters detected" 2 (Sim.Pid_set.cardinal sym);
  check_true "pid 1 in the set" (Sim.Pid_set.mem 1 sym);
  check_true "pid 2 in the set" (Sim.Pid_set.mem 2 sym);
  (* dsm-broadcast waiters each read their own per-pid flag: the poll
     programs differ structurally (distinct addresses), so detection must
     decline rather than prune unsoundly. *)
  let _, _, bsym =
    scripts_sym (module Dsm_broadcast) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "per-pid variables decline detection" 0 (Sim.Pid_set.cardinal bsym);
  (* llsc-register polls issue Ll, which records its pid in the memory
     fingerprint: refused outright. *)
  let _, _, lsym =
    scripts_sym (module Llsc_register) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "Ll declines detection" 0 (Sim.Pid_set.cardinal lsym)

(* With fewer than two candidates nothing is compared: the set is empty
   even though the lone waiter's program is as symmetric as any.  The
   explore CLI reports this case as "not applicable", not as a declined
   comparison. *)
let test_detect_symmetry_needs_two () =
  let _, _, one = scripts_sym (module Cc_flag) ~n:2 ~waiters:[ 1 ] ~polls:2 in
  check_int "one waiter: empty set" 0 (Sim.Pid_set.cardinal one);
  check_int "no candidates: empty set" 0
    (Sim.Pid_set.cardinal (Explore.detect_symmetry ~values:[ 0; 1 ] []));
  let _, _, two = scripts_sym (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  check_int "a second waiter makes the pair comparable" 2
    (Sim.Pid_set.cardinal two)

let test_canonicalization_laws () =
  let open Explore.Testing in
  let symmetry =
    List.fold_left
      (fun s p -> Sim.Pid_set.add p s)
      Sim.Pid_set.empty [ 1; 2; 3 ]
  in
  (* Signaler running, three waiters in pairwise-distinct control states
     (distinct permutation-invariant sort keys, so the canonical form is
     unique and the laws hold exactly, ties aside). *)
  let sample =
    [| running ~label:"Signal" ~seq:0 ~resps_rev:[ 1 ] ~snap:[| 0; 2; 1; 0 |];
       idle ~begun:2 ~last:(Some 1);
       running ~label:"Poll" ~seq:1 ~resps_rev:[ 0 ] ~snap:[| 1; 0; 1; 0 |];
       idle ~begun:0 ~last:None |]
  in
  let canon = fst (canonicalize ~symmetry sample) in
  (* Idempotence: the canonical form is its own representative, found by
     the allocation-free already-sorted fast path. *)
  let canon2, moved2 = canonicalize ~symmetry canon in
  check_true "canonicalize is idempotent" (equal canon canon2);
  check_false "second pass reports no relabeling" moved2;
  (* Invariance: every relabeling of the waiters canonicalizes to the
     same representative — the whole point of orbit reduction. *)
  let perms =
    [ [| 0; 1; 3; 2 |];
      [| 0; 2; 1; 3 |];
      [| 0; 2; 3; 1 |];
      [| 0; 3; 1; 2 |];
      [| 0; 3; 2; 1 |] ]
  in
  List.iteri
    (fun i perm ->
      let c = fst (canonicalize ~symmetry (relabel ~perm sample)) in
      check_true
        (Printf.sprintf "relabeling %d canonicalizes identically" i)
        (equal canon c))
    perms;
  (* Empty symmetry: canonicalization is the identity. *)
  let id, moved = canonicalize ~symmetry:Sim.Pid_set.empty sample in
  check_true "empty symmetry is the identity" (equal id sample);
  check_false "and reports no relabeling" moved

let test_canonicalization_pins_asymmetric_slots () =
  let open Explore.Testing in
  (* All-idle slots (no snapshots), so slot content is position-free and
     [slot_equal] across positions is meaningful.  Waiters 1 and 2 are
     symmetric and unsorted; signaler 0 and outsider 3 must stay put. *)
  let symmetry = Sim.Pid_set.add 1 (Sim.Pid_set.add 2 Sim.Pid_set.empty) in
  let s0 = idle ~begun:5 ~last:(Some 1)
  and w_hi = idle ~begun:2 ~last:(Some 0)
  and w_lo = idle ~begun:1 ~last:None
  and s3 = idle ~begun:7 ~last:(Some 0) in
  let sample = [| s0; w_hi; w_lo; s3 |] in
  let canon, moved = canonicalize ~symmetry sample in
  check_true "a relabeling was applied" moved;
  check_true "signaler slot never moves" (slot_equal canon.(0) s0);
  check_true "non-symmetric waiter slot never moves" (slot_equal canon.(3) s3);
  check_true "symmetric slots were reordered"
    (slot_equal canon.(1) w_lo && slot_equal canon.(2) w_hi);
  (* The flipped array is the same orbit: same canonical form. *)
  let flipped = [| s0; w_lo; w_hi; s3 |] in
  let canon', moved' = canonicalize ~symmetry flipped in
  check_true "orbit twin canonicalizes identically" (equal canon canon');
  check_false "the already-sorted twin needs no relabeling" moved'

let test_symmetry_preserves_verdict () =
  let layout, scripts, symmetry =
    scripts_sym (module Cc_flag) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:2
  in
  check_int "three interchangeable waiters" 3 (Sim.Pid_set.cardinal symmetry);
  let run symmetry =
    Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:4 ~scripts
      ~property:spec_ok ()
  in
  let sym = run symmetry and plain = run Sim.Pid_set.empty in
  check_no_violation "with symmetry" sym;
  check_true "with symmetry: complete" sym.Explore.complete;
  check_no_violation "without" plain;
  check_true "without: complete" plain.Explore.complete;
  check_true "orbit merging happened" (sym.Explore.stats.Explore.orbit_hits > 0);
  check_int "no orbit hits without symmetry" 0
    plain.Explore.stats.Explore.orbit_hits;
  check_true
    (Printf.sprintf "fewer states under symmetry (%d vs %d)"
       sym.Explore.stats.Explore.states plain.Explore.stats.Explore.states)
    (sym.Explore.stats.Explore.states < plain.Explore.stats.Explore.states);
  check_true "fewer orbit representatives than raw states"
    (sym.Explore.stats.Explore.fp_distinct
    < plain.Explore.stats.Explore.fp_distinct)

let test_symmetry_mutation_caught () =
  (* The broken signaler's waiters still run identical Poll() programs, so
     symmetry reduction applies — and must not prune the violation away,
     at any parallelism level. *)
  let layout, scripts, symmetry =
    scripts_sym (module Broken_cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2
  in
  check_int "mutant waiters interchangeable" 2 (Sim.Pid_set.cardinal symmetry);
  let violating_calls jobs =
    let r =
      Explore.check ~jobs ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:3
        ~scripts ~property:spec_ok ()
    in
    match r.Explore.violation with
    | None -> Alcotest.failf "jobs=%d: mutation not caught under symmetry" jobs
    | Some sim -> Sim.calls sim
  in
  let c1 = violating_calls 1 in
  check_true "violating history non-empty" (c1 <> []);
  check_true "jobs=2 agrees" (violating_calls 2 = c1);
  check_true "jobs=4 agrees" (violating_calls 4 = c1)

let test_symmetry_jobs_deterministic () =
  let layout, scripts, symmetry =
    scripts_sym (module Cc_flag) ~n:5 ~waiters:[ 1; 2; 3; 4 ] ~polls:2
  in
  check_int "four interchangeable waiters" 4 (Sim.Pid_set.cardinal symmetry);
  let run jobs =
    Explore.check ~jobs ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:5
      ~scripts ~property:spec_ok ()
  in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check_true "4-waiter scope enumerates exhaustively" r1.Explore.complete;
  check_true "jobs=2 identical" (comparable r2 = comparable r1);
  check_true "jobs=4 identical" (comparable r4 = comparable r1)

(* Exact search counts at the two explorer workloads of the repository
   benchmark, and at the first without symmetry reduction.  Every number
   is a pure function of the scripts (one depth-first pass, one dedup
   table), so any change to the search order, a reduction or the dedup
   keys shows up here on any host. *)
let test_pinned_counts () =
  let pin name (r : Explore.result) ~histories ~states ~dedup_hits
      ~orbit_hits ~por_prunes ~max_depth ~fp_distinct =
    let s = r.Explore.stats in
    check_true (name ^ ": complete, no violation")
      (r.Explore.complete && r.Explore.violation = None);
    check_int (name ^ ": histories") histories r.Explore.histories;
    check_int (name ^ ": states") states s.Explore.states;
    check_int (name ^ ": dedup hits") dedup_hits s.Explore.dedup_hits;
    check_int (name ^ ": orbit hits") orbit_hits s.Explore.orbit_hits;
    check_int (name ^ ": POR prunes") por_prunes s.Explore.por_prunes;
    check_int (name ^ ": max depth") max_depth s.Explore.max_depth;
    check_int (name ^ ": distinct keys") fp_distinct s.Explore.fp_distinct;
    check_int (name ^ ": one task") 1 s.Explore.tasks;
    check_true (name ^ ": collisions at most 1% of distinct keys")
      (100 * s.Explore.fp_collisions <= s.Explore.fp_distinct)
  in
  let layout, scripts, symmetry =
    scripts_sym (module Cc_flag) ~n:5 ~waiters:[ 1; 2; 3; 4 ] ~polls:2
  in
  let check_sym symmetry =
    Explore.check ~symmetry ~layout ~model:(Cost_model.dsm layout) ~n:5
      ~scripts ~property:spec_ok ()
  in
  let sym = check_sym symmetry and nosym = check_sym Sim.Pid_set.empty in
  pin "cc-flag N=5, 4 waiters, symmetry" sym
    ~histories:246 ~states:35_694 ~dedup_hits:21_260 ~orbit_hits:18_773
    ~por_prunes:1_935 ~max_depth:18 ~fp_distinct:10_767;
  pin "cc-flag N=5, 4 waiters, no symmetry" nosym
    ~histories:1_887 ~states:520_070 ~dedup_hits:311_601 ~orbit_hits:0
    ~por_prunes:30_082 ~max_depth:18 ~fp_distinct:170_680;
  check_true "symmetry shrinks the 4-waiter search at least 10x"
    (10 * sym.Explore.stats.Explore.states
    <= nosym.Explore.stats.Explore.states);
  let layout, scripts =
    scripts_for (module Dsm_broadcast) ~n:4 ~waiters:[ 1; 2; 3 ] ~polls:3
  in
  pin "dsm-broadcast N=4, 3 waiters, 3 polls"
    (Explore.check ~layout ~model:(Cost_model.dsm layout) ~n:4 ~scripts
       ~property:spec_ok ())
    ~histories:1_387 ~states:434_220 ~dedup_hits:226_562 ~orbit_hits:0
    ~por_prunes:38_371 ~max_depth:23 ~fp_distinct:161_222

(* --- the reduction lattice --- *)

(* Everything an interval-order property can judge a completed call by:
   its label, ordinal and result, and, per other process, how many of
   that process's calls completed before this one began and how many
   began before this one finished.  The signaler (pid 0) stays pinned;
   the other waiters' entries form a sorted multiset, so the signature is
   invariant under waiter permutation, as symmetry reduction requires. *)
let call_signatures ~n sim =
  let calls = Sim.calls sim in
  List.filter_map
    (fun (c : History.call) ->
      match (c.History.c_finished, c.History.c_result) with
      | Some finished, Some result ->
        let relation q =
          List.fold_left
            (fun (completed, begun) (d : History.call) ->
              if d.History.c_pid <> q then (completed, begun)
              else
                ( (match d.History.c_finished with
                  | Some f when f < c.History.c_started -> completed + 1
                  | Some _ | None -> completed),
                  if d.History.c_started < finished then begun + 1 else begun ))
            (0, 0) calls
        in
        let others =
          List.sort compare
            (List.filter_map
               (fun q ->
                 if q = 0 || q = c.History.c_pid then None else Some (relation q))
               (List.init n Fun.id))
        in
        Some
          ( c.History.c_pid = 0,
            c.History.c_label,
            c.History.c_seq,
            result,
            relation 0,
            others )
      | _ -> None)
    calls

(* One configuration at the scope where the naive search still completes
   (1 signaler, 2 waiters, 2 polls), searchable under any subset of the
   four reductions: dedup, sleep-set POR, symmetry as [detect_symmetry]
   finds it, and the static-indep facts computed from the very programs
   the scripts run.  Each search also returns the signatures of every
   call it saw complete ([call_signatures]). *)
let lattice_search algo =
  let n = 3 in
  let t = scope algo ~n ~waiters:[ 1; 2 ] ~polls:2 in
  let layout = Exhaustive.layout t in
  let search (dedup, por, sym, indep) =
    let seen = Hashtbl.create 64 in
    let property sim =
      List.iter (fun s -> Hashtbl.replace seen s ()) (call_signatures ~n sim);
      spec_ok sim
    in
    let r =
      Explore.check ~dedup ~por
        ~symmetry:(if sym then Exhaustive.symmetry t else Sim.Pid_set.empty)
        ~commute:
          (if indep then Analysis.Independence.commute (Exhaustive.facts t)
           else Op.commute)
        ~layout ~model:(Cost_model.dsm layout) ~n ~scripts:(Exhaustive.scripts t)
        ~property ()
    in
    (r, List.sort compare (List.of_seq (Hashtbl.to_seq_keys seen)))
  in
  (search, Sim.Pid_set.cardinal (Exhaustive.symmetry t))

(* All 16 subsets of the four reductions, and a readable name for each. *)
let lattice_subsets =
  List.init 16 (fun i ->
      (i land 8 <> 0, i land 4 <> 0, i land 2 <> 0, i land 1 <> 0))

let subset_name (dedup, por, sym, indep) =
  match
    List.filter_map
      (fun (on, s) -> if on then Some s else None)
      [ (dedup, "dedup"); (por, "por"); (sym, "symmetry"); (indep, "indep") ]
  with
  | [] -> "naive"
  | l -> String.concat "+" l

(* Every subset's search of one algorithm, run once and shared by the
   lattice cases below; the detected symmetric-waiter count rides along. *)
let lattice_runs algo =
  lazy
    (let search, pids = lattice_search algo in
     (List.map (fun sub -> (sub, search sub)) lattice_subsets, pids))

let cc_flag_lattice = lattice_runs (module Cc_flag)
let broadcast_lattice = lattice_runs (module Dsm_broadcast)
let broken_lattice = lattice_runs (module Broken_cc_flag)

(* Each subset must reach the naive (every reduction off) verdict,
   exhaustively.  A verdict alone is weak evidence on a correct
   algorithm: a reduction that prunes too much still finds no violation.
   So each subset must also see every call signature the naive search
   sees.  A signature nobody saw would make "no call completes with this
   signature" a property within the soundness contract that the naive
   search falsifies and the reduced one does not. *)
let check_safe_lattice runs ~naive_histories ~sym_pids =
  let runs, pids = Lazy.force runs in
  check_int "symmetric waiters detected" sym_pids pids;
  let naive, naive_sigs = List.assoc (false, false, false, false) runs in
  check_int "naive histories" naive_histories naive.Explore.histories;
  List.iter
    (fun (sub, ((r : Explore.result), sigs)) ->
      let name = subset_name sub in
      check_no_violation name r;
      check_true (name ^ ": complete") r.Explore.complete;
      check_true (name ^ ": every naive call signature seen")
        (sigs = naive_sigs))
    runs

let test_lattice_cc_flag () =
  check_safe_lattice cc_flag_lattice ~naive_histories:2_532 ~sym_pids:2

let test_lattice_broadcast () =
  check_safe_lattice broadcast_lattice ~naive_histories:27_478 ~sym_pids:0

let test_lattice_mutant () =
  let runs, pids = Lazy.force broken_lattice in
  check_int "symmetric waiters detected" 2 pids;
  List.iter
    (fun (sub, ((r : Explore.result), _)) ->
      check_true
        (subset_name sub ^ ": mutation caught")
        (r.Explore.violation <> None))
    runs

(* A reduction with nothing to act on is a no-op — symmetry canonicalizes
   only dedup keys, the static facts feed only the POR — so such a subset
   must match the subset without it on every field, for the correct
   algorithms and the mutant alike. *)
let test_lattice_inert_reductions () =
  List.iter
    (fun (algo, runs) ->
      let runs, _ = Lazy.force runs in
      let result sub = fst (List.assoc sub runs) in
      List.iter
        (fun (((dedup, por, sym, indep) as sub), ((r : Explore.result), _)) ->
          let name = algo ^ " " ^ subset_name sub in
          if sym && not dedup then
            check_true (name ^ ": symmetry without dedup is a no-op")
              (comparable r = comparable (result (dedup, por, false, indep)));
          if indep && not por then
            check_true (name ^ ": static facts without POR are a no-op")
              (comparable r = comparable (result (dedup, por, sym, false))))
        runs)
    [ ("cc-flag", cc_flag_lattice);
      ("dsm-broadcast", broadcast_lattice);
      ("broken-cc-flag", broken_lattice) ]

(* --- stats plumbing --- *)

let test_fp_stats_exposed () =
  let r = explore (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let s = r.Explore.stats in
  check_true "distinct keys counted" (s.Explore.fp_distinct > 0);
  check_true "a task allocated intern slots" (s.Explore.fp_slots > 0);
  check_true "intern load kept under 1/2"
    (2 * s.Explore.fp_distinct <= s.Explore.fp_slots);
  (* The state hash is a sum of avalanched slot and cell hashes: O(1)
     incremental maintenance without the per-field-total collisions a sum
     of affine hashes suffers.  Collisions cost a confirming compare,
     never soundness, but they should be rare. *)
  check_true
    (Printf.sprintf "collisions at most 1%% of distinct keys (%d of %d)"
       s.Explore.fp_collisions s.Explore.fp_distinct)
    (100 * s.Explore.fp_collisions <= s.Explore.fp_distinct)

let test_wall_metric_single_source () =
  (* wall_s is computed once: the traced metric must carry the very value
     the result reports, not a second clock read. *)
  let layout, scripts = scripts_for (module Cc_flag) ~n:3 ~waiters:[ 1; 2 ] ~polls:2 in
  let tr = Obs.Trace.create () in
  let r =
    Explore.check ~tracer:tr ~layout ~model:(Cost_model.dsm layout) ~n:3 ~scripts
      ~property:spec_ok ()
  in
  let metric = Obs.Metrics.total (Obs.Trace.metrics tr) "explore_wall_seconds" in
  check_true "explore_wall_seconds equals stats.wall_s exactly"
    (metric = r.Explore.stats.Explore.wall_s)

let suite =
  [ case "interleaving count" test_count_basics;
    case "history cap respected" test_count_respects_cap;
    case "spin loops truncate" test_truncation_of_spin_loops;
    case "violations reported" test_violation_reported;
    case "cc-flag: all interleavings safe" test_cc_flag_exhaustive;
    case "dsm-broadcast: all interleavings safe" test_broadcast_exhaustive;
    case "dsm-single: all interleavings safe" test_single_waiter_exhaustive;
    case "dsm-registration: all interleavings safe" test_registration_exhaustive;
    case "dsm-queue: explored interleavings safe" test_queue_exhaustive;
    case "cas-register: explored interleavings safe" test_cas_register_exhaustive;
    case "llsc-register: explored interleavings safe" test_llsc_register_exhaustive;
    case "dsm-fixed: all interleavings safe" test_fixed_waiters_exhaustive;
    case "multi-signaler: explored interleavings safe" test_multi_signaler_exhaustive;
    case "scope error: dsm-single with two waiters"
      test_scope_dsm_single_two_waiters;
    case "scope error: waiters beyond n, none, or signaling too"
      test_scope_bad_waiter_set;
    case "scope error: zero polls" test_scope_zero_polls;
    case "dedup+por: >=10x fewer states than naive" test_reduction_ratio;
    case "3 waiters x 2 polls enumerates exhaustively"
      test_previously_infeasible_scope;
    case "verdict identical across jobs" test_jobs_deterministic;
    case "mutation caught identically at every jobs" test_mutation_caught;
    case "lean stepping changes nothing observable" test_lean_matches_full;
    case "fast spec property agrees with the checker" test_fast_property_agrees;
    case "capped search identical at every jobs" test_capped_jobs_deterministic;
    case "fingerprint interning: dense stable ids" test_fp_intern_ids;
    case "symmetry detection: sound accept and decline" test_detect_symmetry;
    case "symmetry detection: fewer than two candidates compare nothing"
      test_detect_symmetry_needs_two;
    case "canonicalization: idempotent, orbit-invariant"
      test_canonicalization_laws;
    case "canonicalization: pinned slots never move"
      test_canonicalization_pins_asymmetric_slots;
    case "symmetry preserves the verdict, shrinks the search"
      test_symmetry_preserves_verdict;
    case "mutation caught under symmetry at every jobs"
      test_symmetry_mutation_caught;
    case "4 waiters under symmetry: identical at every jobs"
      test_symmetry_jobs_deterministic;
    case "exact search counts at the benchmark scopes" test_pinned_counts;
    case "reduction lattice: cc-flag, every subset reaches the naive verdict"
      test_lattice_cc_flag;
    case
      "reduction lattice: dsm-broadcast, every subset reaches the naive verdict"
      test_lattice_broadcast;
    case "reduction lattice: broken cc-flag caught under every subset"
      test_lattice_mutant;
    case "reduction lattice: inert reductions change nothing"
      test_lattice_inert_reductions;
    case "intern-table stats exposed and sane" test_fp_stats_exposed;
    case "wall-clock metric has a single source" test_wall_metric_single_source ]
