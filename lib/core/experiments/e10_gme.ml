(* E10: group mutual exclusion (related-work context: the
   Hadzilacos-Danek separation the paper discusses). *)

open Smr

let default_ns = [ 4; 8; 16; 32 ]
let default_entries = 3
let reduced_ns = [ 8 ]
let reduced_entries = 2

let claim =
  "Sec. 1/3 context: two-session group mutual exclusion — the session lock \
   admits same-session concurrency where the mutex reduction cannot"

let model_of tag layout =
  match tag with
  | `Dsm -> Cost_model.dsm layout
  | `Cc -> Cc.model ~protocol:Cc.Write_through ~interconnect:Cc.Bus ~n:0 ()

let algorithms : (module Sync.Gme_intf.GME) list =
  [ (module Sync.Gme_mutex);
    (module Sync.Gme_session_lock);
    (module Sync.Gme_lightswitch.As_gme) ]

let row ~entries ((module G : Sync.Gme_intf.GME), n) =
  let run tag =
    Sync.Gme_runner.run (module G) ~model_of:(model_of tag) ~n ~entries
      ~sessions:2 ~policy:(Schedule.Random_seed 42) ()
  in
  let cc = run `Cc and dsm = run `Dsm in
  Results.
    [ text G.name;
      int n;
      float ~digits:1 cc.Sync.Gme_runner.avg_rmrs_per_passage;
      float ~digits:1 dsm.Sync.Gme_runner.avg_rmrs_per_passage;
      int dsm.Sync.Gme_runner.max_concurrency;
      bool (cc.Sync.Gme_runner.safe && dsm.Sync.Gme_runner.safe) ]

let table ?(jobs = 1) ?(ns = default_ns) ?(entries = default_entries) () =
  let points =
    List.concat_map
      (fun (module G : Sync.Gme_intf.GME) ->
        List.map (fun n -> ((module G : Sync.Gme_intf.GME), n)) ns)
      algorithms
  in
  Results.make ~experiment:"e10"
    ~title:
      (Printf.sprintf
         "E10 (Sec. 1/3 context): two-session group mutual exclusion, %d \
          entries/process — the session lock admits same-session \
          concurrency where the mutex reduction cannot; the Danek-\
          Hadzilacos tight bounds (CC O(log N) vs DSM Ω(N)) are out of \
          scope, the landscape is context"
         entries)
    ~claim
    ~params:
      [ ("ns", Results.text (String.concat "," (List.map string_of_int ns)));
        ("entries", Results.int entries) ]
    ~columns:
      Results.
        [ param "algorithm"; param "N"; measure "CC RMR/passage";
          measure "DSM RMR/passage"; measure "max conc"; measure "safe" ]
    (Smr.Parallel.map ~jobs (row ~entries) points)

let shape = function
  | [ t ] -> Experiment_def.shape_all t "safe" (( = ) (Results.Bool true))
  | _ -> Error "e10: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e10";
      title = "two-session group mutual exclusion landscape";
      claim;
      shape_note = "every GME algorithm is safe in both models";
      run =
        (fun ~jobs size ->
          let ns, entries =
            match size with
            | Default -> (default_ns, default_entries)
            | Reduced -> (reduced_ns, reduced_entries)
          in
          [ table ~jobs ~ns ~entries () ]);
      shape }
