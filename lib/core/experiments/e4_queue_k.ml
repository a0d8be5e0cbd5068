(* E4: the queue solution is O(1) amortized for every participation level k. *)

let default_n = 128
let default_ks = [ 1; 2; 4; 8; 16; 32; 64; 127 ]
let reduced_n = 64
let reduced_ks = [ 1; 16; 63 ]

let claim =
  "Sec. 7: dsm-queue keeps amortized RMRs O(1) at every participation \
   level k"

let row ~n k =
  let cfg = Algorithms.config_for (module Dsm_queue) ~n in
  let active_waiters = Some (List.init k (fun i -> i + 1)) in
  let o =
    Scenario.run_phased (module Dsm_queue) ~model:`Dsm ~cfg ?active_waiters ()
  in
  Results.
    [ int k;
      int o.Scenario.signaler_rmrs;
      int o.Scenario.total_rmrs;
      int o.Scenario.participants;
      float o.Scenario.amortized ]

let table ?(jobs = 1) ?(n = default_n) ?(ks = default_ks) () =
  Results.make ~experiment:"e4"
    ~title:
      (Printf.sprintf
         "E4 (Sec. 7): dsm-queue with k of %d waiters participating — \
          amortized RMRs stay O(1) for every k"
         (n - 1))
    ~claim
    ~params:
      [ ("n", Results.int n);
        ("ks", Results.text (String.concat "," (List.map string_of_int ks))) ]
    ~columns:
      Results.
        [ param "k"; measure "signaler"; measure "total"; measure "parts";
          measure "amortized" ]
    (Smr.Parallel.map ~jobs (row ~n) ks)

let shape = function
  | [ t ] ->
    let amortized =
      List.filter_map Results.to_float (Results.column_values t "amortized")
    in
    let lo = List.fold_left Float.min Float.infinity amortized in
    let hi = List.fold_left Float.max Float.neg_infinity amortized in
    Experiment_def.check
      (amortized <> [] && hi -. lo < 2.)
      "e4: amortized RMRs are not flat across k"
  | _ -> Error "e4: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e4";
      title = "dsm-queue is O(1) amortized at every k";
      claim;
      shape_note = "amortized column flat across all k (spread < 2 RMRs)";
      run =
        (fun ~jobs size ->
          let n, ks =
            match size with
            | Default -> (default_n, default_ks)
            | Reduced -> (reduced_n, reduced_ks)
          in
          [ table ~jobs ~n ~ks () ]);
      shape }
