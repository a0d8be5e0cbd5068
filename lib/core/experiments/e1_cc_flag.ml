(* E1: Section 5 upper bound — the CC flag is O(1) RMRs/process. *)

let default_ns = [ 2; 4; 8; 16; 32; 64; 128; 256 ]
let reduced_ns = [ 64 ]

let claim =
  "Sec. 5: the single-Boolean cc-flag algorithm costs O(1) RMRs per process \
   in the CC model"

let row n =
  let cfg = Algorithms.config_for (module Cc_flag) ~n in
  let o = Scenario.run_phased (module Cc_flag) ~model:`Cc_wt ~cfg () in
  Results.
    [ int n;
      int o.Scenario.max_waiter_rmrs;
      int o.Scenario.signaler_rmrs;
      int o.Scenario.total_rmrs;
      float o.Scenario.amortized;
      int (List.length o.Scenario.violations) ]

let table ?(jobs = 1) ?(ns = default_ns) () =
  Results.make ~experiment:"e1"
    ~title:
      "E1 (Sec. 5): cc-flag under CC write-through — per-process RMRs must \
       stay O(1) as N grows"
    ~claim
    ~params:[ ("ns", Results.text (String.concat "," (List.map string_of_int ns))) ]
    ~columns:
      Results.
        [ param "N"; measure "waiter max"; measure "signaler"; measure "total";
          measure "amortized"; measure "violations" ]
    (Smr.Parallel.map ~jobs row ns)

let shape = function
  | [ t ] ->
    let open Experiment_def in
    shape_all t "violations" (fun v -> v = Results.Int 0) >>> fun () ->
    (match Results.column_values t "waiter max" with
    | [] -> Error "e1: no rows"
    | v :: rest ->
      check
        (List.for_all (( = ) v) rest)
        "e1: waiter max varies with N — per-process cost is not flat")
  | _ -> Error "e1: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e1";
      title = "cc-flag is O(1) RMRs per process under CC";
      claim;
      shape_note = "flat in N: identical waiter-max at every N, no violations";
      run =
        (fun ~jobs size ->
          let ns = match size with Default -> default_ns | Reduced -> reduced_ns in
          [ table ~jobs ~ns () ]);
      shape }
