(* E2: Section 6 lower bound — the adversary forces unbounded amortized
   RMRs on read/write algorithms, and fails against F&I. *)

let default_ns = [ 8; 16; 32; 64; 128 ]
let reduced_ns = [ 32 ]

let claim =
  "Thm. 6.2: no reads/writes algorithm solves signaling with O(1) amortized \
   RMRs in DSM; the F&I queue blocks the adversary's erasures"

let row ((module A : Signaling.POLLING), n) =
  let r = Adversary.run (module A) ~n () in
  let chase_rmrs, blocked =
    match r.Adversary.chase with
    | Some c -> (c.Adversary.signaler_rmrs, c.Adversary.chase_erase_failures)
    | None -> (0, 0)
  in
  Results.
    [ text A.name;
      int n;
      int r.Adversary.stable_waiters;
      int chase_rmrs;
      int blocked;
      int r.Adversary.participants;
      float r.Adversary.amortized;
      bool r.Adversary.part1_regular;
      bool (not r.Adversary.spec_violated) ]

let table ?(jobs = 1) ?(ns = default_ns) () =
  let points =
    List.concat_map
      (fun n ->
        [ ((module Dsm_broadcast : Signaling.POLLING), n);
          ((module Dsm_queue : Signaling.POLLING), n) ])
      ns
  in
  Results.make ~experiment:"e2"
    ~title:
      "E2 (Sec. 6, Thm. 6.2): the mechanized adversary vs a reads/writes \
       algorithm (amortized grows ~N) and vs the F&I queue (erasures \
       blocked, amortized flat)"
    ~claim
    ~params:[ ("ns", Results.text (String.concat "," (List.map string_of_int ns))) ]
    ~columns:
      Results.
        [ param "algorithm"; param "N"; measure "stable";
          measure "signaler RMRs"; measure "blocked"; measure "parts";
          measure "amortized"; measure "regular"; measure "spec ok" ]
    (Smr.Parallel.map ~jobs row points)

let amortized_of t name =
  List.filter_map
    (fun row ->
      Results.to_float (Results.get t ~row "amortized"))
    (Results.rows_where t "algorithm" (Results.Text name))

let shape = function
  | [ t ] ->
    let open Experiment_def in
    shape_all t "spec ok" (( = ) (Results.Bool true)) >>> fun () ->
    let broadcast = amortized_of t "dsm-broadcast" in
    let queue = amortized_of t "dsm-queue" in
    check (List.length broadcast >= 2 && List.length queue >= 2)
      "e2: need at least two sizes per algorithm"
    >>> fun () ->
    let first = List.hd and last l = List.nth l (List.length l - 1) in
    check
      (last broadcast > first broadcast +. 5.)
      "e2: read/write amortized does not grow with N"
    >>> fun () ->
    check
      (Float.abs (last queue -. first queue) < 2.)
      "e2: F&I amortized is not flat"
  | _ -> Error "e2: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e2";
      title = "the Sec. 6 adversary vs reads/writes and vs F&I";
      claim;
      shape_note =
        "amortized grows with N for dsm-broadcast, stays flat for dsm-queue; \
         the specification holds throughout";
      run =
        (fun ~jobs size ->
          let ns = match size with Default -> default_ns | Reduced -> reduced_ns in
          [ table ~jobs ~ns () ]);
      shape }
