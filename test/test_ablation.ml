(* Ablations of the adversary's design choices (DESIGN.md decisions 4 and
   6): the stability horizon and the Turán independent-set step. *)

open Smr
open Test_util
open Core

(* A read/write algorithm whose waiters genuinely conflict in part 1: a
   waiter's first poll marks its neighbour's module (a "touch" edge in the
   conflict graph) before settling into local polling.  Signal() still
   broadcasts to everyone, so the algorithm is correct for the hard
   variant. *)
module Neighbor_mark : Signaling.POLLING = struct
  let name = "neighbor-mark"

  let description =
    "broadcast signaling whose registration touches the neighbour's module \
     — manufactures part-1 conflict edges for the ablation tests"

  let primitives = [ Op.Reads_writes ]

  let flexibility = Signaling.any_flexibility

  type t = {
    n : int;
    mark : bool Var.t array; (* mark.(i) homed at module i *)
    v : bool Var.t array;
    registered : bool Var.t array;
  }

  let create ctx (cfg : Signaling.config) =
    let n = cfg.Signaling.n in
    { n;
      mark =
        Var.Ctx.bool_array ctx ~name:"mark" ~home:(fun i -> Var.Module i) n
          (fun _ -> false);
      v =
        Var.Ctx.bool_array ctx ~name:"V" ~home:(fun i -> Var.Module i) n
          (fun _ -> false);
      registered =
        Var.Ctx.bool_array ctx ~name:"registered"
          ~home:(fun i -> Var.Module i)
          n
          (fun _ -> false) }

  let poll t p =
    let open Program.Syntax in
    let* already = Program.read t.registered.(p) in
    if already then Program.read t.v.(p)
    else
      let* () = Program.write t.registered.(p) true in
      let* () = Program.write t.mark.((p + 1) mod t.n) true in
      Program.read t.v.(p)

  let signal t _p =
    Program.seq
      (List.init t.n (fun j -> Program.write t.v.(j) true))
end

let test_neighbor_mark_is_correct () =
  let cfg = Algorithms.config_for (module Neighbor_mark) ~n:12 in
  let o = Scenario.run_phased (module Neighbor_mark) ~model:`Dsm ~cfg () in
  check_int "no violations" 0 (List.length o.Scenario.violations);
  check_int "all learn" 0 o.Scenario.unfinished_waiters

let test_turan_keeps_more_waiters () =
  (* The independent-set step must preserve strictly more stable waiters
     than erasing every conflict participant. *)
  let n = 32 in
  let stable resolution =
    (Adversary.run (module Neighbor_mark) ~n ~resolution ()).Adversary.stable_waiters
  in
  let turan = stable `Independent_set and blunt = stable `Erase_all in
  check_true
    (Printf.sprintf "turan %d > erase-all %d" turan blunt)
    (turan > blunt);
  check_true "turan keeps a constant fraction" (turan >= n / 3)

let test_both_resolutions_force_the_bound () =
  (* Either way, the surviving stable waiters all get goose-chased: the
     amortized cost is the stable count over O(1) participants. *)
  List.iter
    (fun resolution ->
      let r = Adversary.run (module Neighbor_mark) ~n:24 ~resolution () in
      (match r.Adversary.chase with
      | Some c ->
        check_true "chase forced at least the stable count"
          (c.Adversary.signaler_rmrs >= r.Adversary.stable_waiters)
      | None -> Alcotest.fail "no chase");
      check_false "no spec violation" r.Adversary.spec_violated)
    [ `Independent_set; `Erase_all ]

let test_stability_horizon_insensitive () =
  (* DESIGN.md decision 4: for the shipped algorithms, the Def. 6.8
     horizon does not change the adversary's outcome. *)
  let outcome polls =
    let r = Adversary.run (module Dsm_broadcast) ~n:24 ~stability_polls:polls () in
    (r.Adversary.participants, r.Adversary.total_rmrs, r.Adversary.stable_waiters)
  in
  let base = outcome 1 in
  check_true "horizon 3 same" (outcome 3 = base);
  check_true "horizon 6 same" (outcome 6 = base)

let test_timeline_renders () =
  (* The timeline renderer: sanity over a small run. *)
  let cfg = Algorithms.config_for (module Cc_flag) ~n:3 in
  let o = Scenario.run_phased (module Cc_flag) ~model:`Dsm ~cfg () in
  let s = Timeline.render o.Scenario.sim in
  let contains = contains s in
  check_true "mentions every process"
    (List.for_all contains [ "p0"; "p1"; "p2" ]);
  check_true "shows a call begin" (contains "(poll");
  check_true "shows an RMR step" (contains "*")

let suite =
  [ case "neighbor-mark is a correct algorithm" test_neighbor_mark_is_correct;
    case "turan step keeps more waiters than erase-all" test_turan_keeps_more_waiters;
    case "both resolutions force the bound" test_both_resolutions_force_the_bound;
    case "stability horizon insensitive" test_stability_horizon_insensitive;
    case "timeline renders" test_timeline_renders ]
