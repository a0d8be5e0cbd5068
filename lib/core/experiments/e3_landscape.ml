(* E3: the Section 7 landscape under DSM, full and partial participation. *)

open Smr

let default_n = 64
let default_partial = 8
let reduced_n = 32
let reduced_partial = 4

let claim =
  "Sec. 7: under DSM the landscape splits — O(W)-signaler algorithms keep \
   amortized O(1) only under full participation; cc-flag spins remotely; \
   dsm-fixed-term blocks when waiters are absent"

let columns =
  Results.
    [ param "algorithm"; measure "waiter max"; measure "signaler";
      measure "total"; measure "parts"; measure "amortized"; measure "space";
      measure "violations" ]

let row ~n ~active_count (module A : Signaling.POLLING) =
  let cfg = Algorithms.config_for (module A) ~n in
  let active_waiters =
    match A.flexibility.Signaling.max_waiters with
    | Some 1 -> None
    | _ ->
      if active_count >= n - 1 then None
      else Some (List.init active_count (fun i -> i + 1))
  in
  match Algorithms.run_or_blocks (module A) ~model:`Dsm ~cfg ?active_waiters () with
  | Ok o ->
    Results.
      [ text A.name;
        int o.Scenario.max_waiter_rmrs;
        int o.Scenario.signaler_rmrs;
        int o.Scenario.total_rmrs;
        int o.Scenario.participants;
        float o.Scenario.amortized;
        (* Shared cells allocated: the paper's Sec. 9 notes the CC solution
           needs O(1) space, the DSM ones Θ(N). *)
        int (Var.layout_size (Sim.layout o.Scenario.sim));
        int (List.length o.Scenario.violations) ]
  | Error why ->
    Results.(text A.name :: text why :: List.init 6 (fun _ -> text "-"))

let landscape ~jobs ~n ~active_count =
  Smr.Parallel.map ~jobs (row ~n ~active_count) Algorithms.polling_algorithms

let tables ?(jobs = 1) ?(n = default_n) ?(partial = default_partial) () =
  let params = [ ("n", Results.int n); ("partial", Results.int partial) ] in
  [ Results.make ~experiment:"e3" ~part:"a"
      ~title:
        (Printf.sprintf
           "E3a (Sec. 7): DSM landscape, full participation (N=%d, all \
            waiters poll)"
           n)
      ~claim ~params ~columns
      (landscape ~jobs ~n ~active_count:(n - 1));
    Results.make ~experiment:"e3" ~part:"b"
      ~title:
        (Printf.sprintf
           "E3b (Sec. 7): DSM landscape, partial participation (N=%d, only \
            %d waiters poll) — O(W)-signaler algorithms lose amortized \
            O(1); dsm-fixed-term blocks awaiting the absent waiters"
           n partial)
      ~claim ~params ~columns
      (landscape ~jobs ~n ~active_count:partial) ]

let shape = function
  | [ full; partial ] ->
    let open Experiment_def in
    shape_all full "violations" (fun v ->
        v = Results.Int 0 || v = Results.Text "-")
    >>> fun () ->
    check
      (match Results.rows_where partial "algorithm" (Results.Text "dsm-fixed-term") with
      | [ row ] -> Results.get partial ~row "waiter max" = Results.Text "blocks"
      | _ -> false)
      "e3b: dsm-fixed-term should block under partial participation"
  | _ -> Error "e3: expected exactly two tables"

let spec =
  Experiment_def.
    { id = "e3";
      title = "DSM landscape, full vs partial participation";
      claim;
      shape_note =
        "no violations under full participation; dsm-fixed-term blocks in \
         the partial-participation table";
      run =
        (fun ~jobs size ->
          let n, partial =
            match size with
            | Default -> (default_n, default_partial)
            | Reduced -> (reduced_n, reduced_partial)
          in
          tables ~jobs ~n ~partial ());
      shape }
