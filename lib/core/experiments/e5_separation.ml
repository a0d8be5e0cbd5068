(* E5: the cross-model matrix — the separation itself. *)

let default_n = 64
let reduced_n = 32

let claim =
  "Secs. 1/5/7: cc-flag is O(1) per process in every CC variant and Θ(N) \
   under DSM — the complexity separation between the two models"

let models = [ `Dsm; `Cc_wt; `Cc_wb; `Cc_lfcu ]

(* Worst per-process RMRs / amortized, or why the run did not finish; kept
   as one display cell so the matrix stays readable. *)
let cell ~n (module A : Signaling.POLLING) model =
  let cfg = Algorithms.config_for (module A) ~n in
  match Algorithms.run_or_blocks (module A) ~model ~cfg () with
  | Ok o ->
    Printf.sprintf "%d / %s"
      (max o.Scenario.max_waiter_rmrs o.Scenario.signaler_rmrs)
      (Results.render_value (Results.float o.Scenario.amortized))
  | Error why -> why

let row ~n (module A : Signaling.POLLING) =
  Results.text A.name
  :: List.map (fun m -> Results.text (cell ~n (module A) m)) models

let table ?(jobs = 1) ?(n = default_n) () =
  Results.make ~experiment:"e5"
    ~title:
      (Printf.sprintf
         "E5 (Secs. 1/5/7): worst per-process RMRs / amortized RMRs, per \
          model (N=%d).  cc-flag: O(1) in every CC column, Θ(N) under DSM \
          — the separation"
         n)
    ~claim
    ~params:[ ("n", Results.int n) ]
    ~columns:
      (Results.param "algorithm"
      :: List.map (fun m -> Results.measure (Scenario.model_tag_name m)) models)
    (Smr.Parallel.map ~jobs (row ~n) Algorithms.polling_algorithms)

let parse cell =
  try Scanf.sscanf cell "%d / %f" (fun w a -> Some (w, a)) with _ -> None

(* The separation reads off the matrix as documented in EXPERIMENTS.md:
   cc-flag is O(1) in every CC column; its bounded-polling DSM run is
   still strictly costlier (E2 is the unbounded-amortized witness); and
   dsm-queue's worst per-process DSM cost is Θ(N) (the signaler walks the
   queue). *)
let shape = function
  | [ t ] -> (
    let n =
      match List.assoc_opt "n" t.Results.params with
      | Some (Results.Int n) -> n
      | _ -> 0
    in
    let cell algorithm model =
      match Results.rows_where t "algorithm" (Results.Text algorithm) with
      | [ row ] -> parse (Results.to_text (Results.get t ~row model))
      | _ -> None
    in
    match
      ( cell "cc-flag" "dsm", cell "cc-flag" "cc-wt", cell "cc-flag" "cc-wb",
        cell "cc-flag" "cc-lfcu", cell "dsm-queue" "dsm" )
    with
    | Some (_, dsm_am), Some (wt, wt_am), Some (wb, _), Some (lfcu, _),
      Some (queue_worst, _) ->
      let open Experiment_def in
      check
        (wt <= 4 && wb <= 4 && lfcu <= 4)
        "e5: cc-flag worst per-process RMRs not O(1) in every CC column"
      >>> fun () ->
      check (dsm_am > wt_am)
        "e5: cc-flag should be strictly costlier under DSM than under CC"
      >>> fun () ->
      check (queue_worst >= n)
        "e5: dsm-queue worst per-process DSM cost should be Θ(N)"
    | _ -> Error "e5: missing or unparsable matrix cells")
  | _ -> Error "e5: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e5";
      title = "the cross-model separation matrix";
      claim;
      shape_note =
        "cc-flag worst-case per-process RMRs <= 4 in every CC column, its \
         bounded-polling DSM run strictly costlier, and dsm-queue's worst \
         DSM cost >= N (E2 is the unbounded-amortized witness)";
      run =
        (fun ~jobs size ->
          let n = match size with Default -> default_n | Reduced -> reduced_n in
          [ table ~jobs ~n () ]);
      shape }
