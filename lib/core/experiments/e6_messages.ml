(* E6: Section 8 — RMRs vs. coherence messages ("exchange rate"). *)

open Smr

let default_ns = [ 8; 32; 128 ]
let reduced_ns = [ 32 ]

let claim =
  "Sec. 8: an RMR is not a message — a bus broadcasts one message per \
   action while a limited directory sends superfluous invalidations, so \
   the messages-per-RMR exchange rate depends on the interconnect"

let interconnects = [ Cc.Bus; Cc.Directory_precise; Cc.Directory_limited 4 ]

let row (n, ic) =
  let cfg = Algorithms.config_for (module Cc_flag) ~n in
  let model = `Cc (Cc.Write_through, ic) in
  let o = Scenario.run_phased (module Cc_flag) ~model ~cfg () in
  Results.
    [ int n;
      text (Cc.interconnect_name ic);
      int o.Scenario.total_rmrs;
      int o.Scenario.total_messages;
      float
        (if o.Scenario.total_rmrs = 0 then 0.
         else
           float_of_int o.Scenario.total_messages
           /. float_of_int o.Scenario.total_rmrs) ]

let table ?(jobs = 1) ?(ns = default_ns) () =
  let points =
    List.concat_map (fun n -> List.map (fun ic -> (n, ic)) interconnects) ns
  in
  Results.make ~experiment:"e6"
    ~title:
      "E6 (Sec. 8): cc-flag RMRs vs. coherence messages under different \
       interconnects — a bus broadcasts one message per action; a limited \
       directory sends superfluous invalidations, so messages/RMR grows"
    ~claim
    ~params:[ ("ns", Results.text (String.concat "," (List.map string_of_int ns))) ]
    ~columns:
      Results.
        [ param "N"; param "interconnect"; measure "RMRs"; measure "messages";
          measure "msgs/RMR" ]
    (Smr.Parallel.map ~jobs row points)

let messages_for t ~interconnect =
  List.filter_map
    (fun row -> Results.to_int (Results.get t ~row "messages"))
    (Results.rows_where t "interconnect" (Results.Text interconnect))

let shape = function
  | [ t ] ->
    let open Experiment_def in
    shape_all t "msgs/RMR" (fun v ->
        match Results.to_float v with Some r -> r >= 1. | None -> false)
    >>> fun () ->
    let bus = messages_for t ~interconnect:(Cc.interconnect_name Cc.Bus) in
    let dir =
      messages_for t
        ~interconnect:(Cc.interconnect_name Cc.Directory_precise)
    in
    check
      (List.length bus = List.length dir
      && List.for_all2 (fun b d -> d > b) bus dir)
      "e6: the directory should send more messages than the bus at every N"
  | _ -> Error "e6: expected exactly one table"

let spec =
  Experiment_def.
    { id = "e6";
      title = "RMRs vs. coherence messages per interconnect";
      claim;
      shape_note =
        "msgs/RMR >= 1 everywhere; precise directory outgoing messages \
         exceed the bus's at every N";
      run =
        (fun ~jobs size ->
          let ns = match size with Default -> default_ns | Reduced -> reduced_ns in
          [ table ~jobs ~ns () ]);
      shape }
