(* E12: finite caches (Sec. 8) — ideal-cache RMR bounds are underestimates
   once the working set outgrows the cache. *)

open Smr

let default_n = 16
let default_capacities = [ 1; 2; 4; 8 ]
let reduced_n = 8
let reduced_capacities = [ 1; 4 ]

let claim =
  "Sec. 8: with a finite LRU cache repeated polls miss again, so the \
   ideal-cache RMR counts underestimate real machines"

(* A waiter whose poll touches several variables (the queue algorithm's
   registration path) under shrinking caches: with an ideal cache the
   post-registration polls are free; with capacity 1 the working set
   thrashes. *)
let run_capacity ~n capacity =
  let cfg = Algorithms.config_for (module Dsm_queue) ~n in
  (* Build the model directly: Scenario's tags don't carry capacity. *)
  let ctx = Var.Ctx.create () in
  let inst = Signaling.instantiate (module Dsm_queue) ctx cfg in
  let layout = Var.Ctx.freeze ctx in
  let model =
    Cc.model ~protocol:Cc.Write_through ~interconnect:Cc.Bus ?capacity ~n ()
  in
  let sim = Sim.create ~model ~layout ~n in
  (* Each waiter polls four times before the signal: under an ideal cache,
     polls 2-4 are all cache hits. *)
  let sim =
    List.fold_left
      (fun sim round ->
        ignore round;
        List.fold_left
          (fun sim w ->
            fst
              (Sim.run_call sim w ~label:Signaling.poll_label
                 (inst.Signaling.i_poll w)))
          sim cfg.Signaling.waiters)
      sim [ 0; 1; 2; 3 ]
  in
  let sim, _ =
    Sim.run_call sim 0 ~label:Signaling.signal_label (inst.Signaling.i_signal 0)
  in
  Sim.total_rmrs sim

let table ?(jobs = 1) ?(n = default_n) ?(capacities = default_capacities) () =
  let ideal = run_capacity ~n None in
  let finite =
    Smr.Parallel.map ~jobs (fun c -> (c, run_capacity ~n (Some c))) capacities
  in
  let rows =
    List.map
      (fun (c, rmrs) ->
        Results.
          [ text (string_of_int c);
            int rmrs;
            float (float_of_int rmrs /. float_of_int ideal) ])
      finite
    @ [ Results.[ text "ideal"; int ideal; float 1.0 ] ]
  in
  Results.make ~experiment:"e12"
    ~title:
      (Printf.sprintf
         "E12 (Sec. 8): dsm-queue polls under CC with finite caches (N=%d) \
          — LRU eviction makes repeated polls miss again, so the \
          ideal-cache RMR counts underestimate real machines"
         n)
    ~claim
    ~params:
      [ ("n", Results.int n);
        ("capacities",
         Results.text (String.concat "," (List.map string_of_int capacities))) ]
    ~columns:
      Results.[ param "capacity"; measure "total RMRs"; measure "vs ideal" ]
    rows

let shape = function
  | [ t ] ->
    let open Experiment_def in
    shape_all t "vs ideal" (fun v ->
        match Results.to_float v with Some r -> r >= 1. | None -> false)
    >>> fun () ->
    let ratio cap =
      List.find_map
        (fun row ->
          if Results.get t ~row "capacity" = Results.Text cap then
            Results.to_float (Results.get t ~row "vs ideal")
          else None)
        t.Results.rows
    in
    check
      (match (ratio "1", ratio "ideal") with
      | Some thrash, Some ideal -> thrash > ideal
      | _ -> false)
      "e12: a capacity-1 cache should cost strictly more than the ideal cache"
  | _ -> Error "e12: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e12";
      title = "finite LRU caches vs the ideal-cache RMR counts";
      claim;
      shape_note =
        "every finite capacity costs at least the ideal cache; capacity 1 \
         costs strictly more";
      run =
        (fun ~jobs size ->
          let n, capacities =
            match size with
            | Default -> (default_n, default_capacities)
            | Reduced -> (reduced_n, reduced_capacities)
          in
          [ table ~jobs ~n ~capacities () ]);
      shape }
