(* E7: the Section 3 mutual-exclusion landscape. *)

open Smr

let default_ns = [ 2; 4; 8; 16; 32 ]
let default_entries = 4
let reduced_ns = [ 8 ]
let reduced_entries = 2

let claim =
  "Sec. 3: the classical mutual-exclusion RMR landscape — TAS/TTAS/ticket/\
   bakery grow with N, Yang-Anderson ~log N, MCS O(1) in both models, \
   Anderson/CLH local-spin in CC only"

let model_of tag layout =
  match tag with
  | `Dsm -> Cost_model.dsm layout
  | `Cc -> Cc.model ~protocol:Cc.Write_through ~interconnect:Cc.Bus ~n:0 ()

let row ~entries ((module L : Sync.Mutex_intf.LOCK), n) =
  (* A seeded random schedule: a deterministic round-robin would hand
     Anderson's lock slot i to process i every time, making its array
     spins accidentally local in DSM. *)
  let run tag =
    Sync.Lock_runner.run (module L) ~model_of:(model_of tag) ~n ~entries
      ~policy:(Schedule.Random_seed 42) ()
  in
  let cc = run `Cc and dsm = run `Dsm in
  Results.
    [ text L.name;
      int n;
      float ~digits:1 cc.Sync.Lock_runner.avg_rmrs_per_passage;
      float ~digits:1 dsm.Sync.Lock_runner.avg_rmrs_per_passage;
      bool
        (cc.Sync.Lock_runner.mutual_exclusion_held
        && dsm.Sync.Lock_runner.mutual_exclusion_held) ]

let table ?(jobs = 1) ?(ns = default_ns) ?(entries = default_entries) () =
  let points =
    List.concat_map
      (fun (module L : Sync.Mutex_intf.LOCK) ->
        List.map (fun n -> ((module L : Sync.Mutex_intf.LOCK), n)) ns)
      Algorithms.locks
  in
  Results.make ~experiment:"e7"
    ~title:
      (Printf.sprintf
         "E7 (Sec. 3): mutual exclusion under contention (%d \
          entries/process, seeded random steps) — TAS/TTAS/ticket/bakery \
          spin or scan remotely and grow with N, Yang-Anderson ~log N, \
          MCS O(1) in both models, Anderson/CLH local-spin in CC only"
         entries)
    ~claim
    ~params:
      [ ("ns", Results.text (String.concat "," (List.map string_of_int ns)));
        ("entries", Results.int entries) ]
    ~columns:
      Results.
        [ param "lock"; param "N"; measure "CC RMR/passage";
          measure "DSM RMR/passage"; measure "mutex held" ]
    (Smr.Parallel.map ~jobs (row ~entries) points)

let shape = function
  | [ t ] ->
    Experiment_def.shape_all t "mutex held" (( = ) (Results.Bool true))
  | _ -> Error "e7: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e7";
      title = "mutual-exclusion RMR landscape";
      claim;
      shape_note = "mutual exclusion holds for every lock in both models";
      run =
        (fun ~jobs size ->
          let ns, entries =
            match size with
            | Default -> (default_ns, default_entries)
            | Reduced -> (reduced_ns, reduced_entries)
          in
          [ table ~jobs ~ns ~entries () ]);
      shape }
