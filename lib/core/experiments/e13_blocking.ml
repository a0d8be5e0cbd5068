(* E13: blocking semantics (Sec. 7's Wait() solutions). *)

let default_n = 24
let default_seed = 11
let reduced_n = 12

let claim =
  "Sec. 7, blocking semantics: spin-wrapped cc-flag busy-waits remotely in \
   DSM; dsm-leader concentrates the cost in one elected waiter; every \
   Wait() returns after the Signal()"

let row ~n ~seed ((module B : Signaling.BLOCKING), model) =
  let cfg = Algorithms.config_for_blocking ~n in
  let o = Scenario.run_blocking (module B) ~model ~cfg ~seed () in
  Results.
    [ text B.name;
      text (Scenario.model_tag_name model);
      int o.Scenario.max_waiter_rmrs;
      int o.Scenario.signaler_rmrs;
      int o.Scenario.total_rmrs;
      int o.Scenario.unfinished_waiters;
      int (List.length o.Scenario.violations) ]

let table ?(jobs = 1) ?(n = default_n) ?(seed = default_seed) () =
  let points =
    List.concat_map
      (fun (module B : Signaling.BLOCKING) ->
        List.map
          (fun model -> ((module B : Signaling.BLOCKING), model))
          [ `Dsm; `Cc_wt ])
      Algorithms.blocking_algorithms
  in
  Results.make ~experiment:"e13"
    ~title:
      (Printf.sprintf
         "E13 (Sec. 7, blocking semantics): Wait() solutions under a \
          randomized schedule (N=%d).  Spin-wrapped cc-flag busy-waits \
          remotely in DSM (waiter RMRs grow with the wait — unbounded in \
          general); dsm-leader concentrates the cost in one elected \
          waiter and keeps followers local; every Wait() returns after \
          the Signal()"
         n)
    ~claim
    ~params:[ ("n", Results.int n); ("seed", Results.int seed) ]
    ~columns:
      Results.
        [ param "algorithm"; param "model"; measure "waiter max";
          measure "signaler"; measure "total"; measure "unfinished";
          measure "violations" ]
    (Smr.Parallel.map ~jobs (row ~n ~seed) points)

let shape = function
  | [ t ] ->
    let open Experiment_def in
    shape_all t "violations" (( = ) (Results.Int 0)) >>> fun () ->
    shape_all t "unfinished" (( = ) (Results.Int 0))
  | _ -> Error "e13: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e13";
      title = "blocking Wait() solutions under randomized schedules";
      claim;
      shape_note = "every Wait() returns (no unfinished waiters), no violations";
      run =
        (fun ~jobs size ->
          let n = match size with Default -> default_n | Reduced -> reduced_n in
          [ table ~jobs ~n () ]);
      shape }
