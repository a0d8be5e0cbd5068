(* E8: Corollary 6.14 — CAS does not help: emulated F&I collapses under
   adversarial contention, and the read/write reductions stay correct. *)

open Smr

let default_n = 128
let default_ks = [ 2; 4; 8; 16; 32; 64 ]
let reduced_n = 64
let reduced_ks = [ 16 ]

let claim =
  "Cor. 6.14: comparison primitives (CAS, LL/SC) reduce to reads/writes, \
   so they cannot beat the lower bound — k colliding registrations cost \
   Θ(k²) RMRs emulated vs Θ(k) with hardware F&I"

(* Drive k waiters so that their registration CASes collide maximally:
   advance everyone to the point of applying the contended operation, then
   release them back-to-back; losers loop and collide again.  With hardware
   F&I there are no losers, so the same treatment costs O(k). *)
let contention_total (module A : Signaling.POLLING) ~n ~k =
  let ctx = Var.Ctx.create () in
  let cfg = Algorithms.config_for (module A) ~n in
  let inst = Signaling.instantiate (module A) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let sim = Sim.create ~model:(Cost_model.dsm layout) ~layout ~n in
  let waiters = List.init k (fun i -> i + 1) in
  let sim =
    List.fold_left
      (fun sim w ->
        Sim.begin_call sim w ~label:Signaling.poll_label
          (inst.Signaling.i_poll w))
      sim waiters
  in
  let is_rmw inv =
    match Op.kind inv with
    | Op.K_cas | Op.K_faa | Op.K_fas | Op.K_tas | Op.K_sc -> true
    | Op.K_read | Op.K_write | Op.K_ll -> false
  in
  (* Advance w until it is about to apply a read-modify-write, or its poll
     completes. *)
  let rec to_rmw sim w fuel =
    if fuel = 0 then failwith "E8.contention: out of fuel"
    else
      match Sim.proc_state sim w with
      | Sim.Idle | Sim.Terminated -> sim
      | Sim.Running _ -> (
        match Sim.peek sim w with
        | Some inv when is_rmw inv -> sim
        | Some _ -> to_rmw (Sim.advance sim w) w (fuel - 1)
        | None -> sim)
  in
  let rec rounds sim guard =
    if guard = 0 then failwith "E8.contention: too many rounds"
    else
      let sim = List.fold_left (fun sim w -> to_rmw sim w 10_000) sim waiters in
      let poised =
        List.filter
          (fun w ->
            match Sim.peek sim w with Some inv -> is_rmw inv | None -> false)
          waiters
      in
      if poised = [] then sim
      else
        (* Release the colliding operations back-to-back. *)
        let sim = List.fold_left (fun sim w -> Sim.advance sim w) sim poised in
        rounds sim (guard - 1)
  in
  let sim = rounds sim ((4 * k) + 8) in
  (* Let every waiter finish its first poll. *)
  let sim = List.fold_left (fun sim w -> Sim.run_to_idle sim w) sim waiters in
  Sim.total_rmrs sim

let contention_row ~n k =
  let per total = Results.float (float_of_int total /. float_of_int k) in
  let cas = contention_total (module Cas_register) ~n ~k in
  let llsc = contention_total (module Llsc_register) ~n ~k in
  let fai = contention_total (module Dsm_queue) ~n ~k in
  Results.
    [ int k; int cas; per cas; int llsc; per llsc; int fai; per fai ]

(* The reduction itself: both transformed algorithms are reads/writes only
   and still correct. *)
let comparison_steps sim =
  List.length
    (List.filter
       (fun (s : History.step) ->
         match Op.kind s.History.inv with
         | Op.K_cas | Op.K_ll | Op.K_sc -> true
         | Op.K_read | Op.K_write | Op.K_faa | Op.K_fas | Op.K_tas -> false)
       (Sim.steps sim))

let reduction_row (module A : Signaling.POLLING) =
  let cfg = Algorithms.config_for (module A) ~n:16 in
  let o = Scenario.run_phased (module A) ~model:`Dsm ~cfg () in
  Results.
    [ text A.name;
      int (comparison_steps o.Scenario.sim);
      int (List.length o.Scenario.violations);
      int o.Scenario.total_rmrs;
      float o.Scenario.amortized ]

let tables ?(jobs = 1) ?(n = default_n) ?(ks = default_ks) () =
  let params =
    [ ("n", Results.int n);
      ("ks", Results.text (String.concat "," (List.map string_of_int ks))) ]
  in
  [ Results.make ~experiment:"e8" ~part:"a"
      ~title:
        "E8a (Cor. 6.14): adversarial contention — k colliding \
         registrations cost Θ(k²) RMRs with CAS- or LL/SC-emulated F&I, \
         Θ(k) with hardware F&I"
      ~claim ~params
      ~columns:
        Results.
          [ param "k"; measure "CAS total"; measure "CAS/waiter";
            measure "LL/SC total"; measure "LL/SC/waiter"; measure "F&I total";
            measure "F&I/waiter" ]
      (Smr.Parallel.map ~jobs (contention_row ~n) ks);
    Results.make ~experiment:"e8" ~part:"b"
      ~title:
        "E8b (Cor. 6.14): the reductions — zero comparison-primitive steps \
         remain, specification still satisfied"
      ~claim ~params
      ~columns:
        Results.
          [ param "algorithm"; measure "CAS/LL/SC steps"; measure "violations";
            measure "total RMRs"; measure "amortized" ]
      (List.map reduction_row
         [ (module Cas_register.Transformed); (module Llsc_register.Transformed) ]) ]

let per_waiter t col =
  List.filter_map Results.to_float (Results.column_values t col)

let shape = function
  | [ a; b ] ->
    let open Experiment_def in
    let cas = per_waiter a "CAS/waiter" in
    let fai = per_waiter a "F&I/waiter" in
    check (List.length cas >= 2) "e8a: need at least two contention levels"
    >>> fun () ->
    let first = List.hd and last l = List.nth l (List.length l - 1) in
    check
      (last cas > 2. *. first cas)
      "e8a: CAS per-waiter cost does not grow superlinearly"
    >>> fun () ->
    check
      (last fai < 1.5 *. first fai +. 1.)
      "e8a: F&I per-waiter cost is not flat"
    >>> fun () ->
    shape_all b "CAS/LL/SC steps" (( = ) (Results.Int 0)) >>> fun () ->
    shape_all b "violations" (( = ) (Results.Int 0))
  | _ -> Error "e8: expected exactly two tables"

let spec =
  Experiment_def.
    { id = "e8";
      title = "CAS contention blowup and the read/write reductions";
      claim;
      shape_note =
        "CAS per-waiter cost grows with k while F&I stays flat; the \
         transformed algorithms execute zero comparison steps and satisfy \
         the spec";
      run =
        (fun ~jobs size ->
          let n, ks =
            match size with
            | Default -> (default_n, default_ks)
            | Reduced -> (reduced_n, reduced_ks)
          in
          tables ~jobs ~n ~ks ());
      shape }
