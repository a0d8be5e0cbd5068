(* The domain-parallel experiment runner; see the .mli. *)

type outcome = {
  spec : Experiment_def.spec;
  tables : Results.table list;
  shape : (unit, string) result option;
}

let default_jobs = Smr.Parallel.default_jobs

let run ?jobs ?tracer ?(size = Experiment_def.Default) specs =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let outcomes =
    Smr.Parallel.map ~jobs
      (fun (spec : Experiment_def.spec) ->
        (* Point-level fan-out inside spec.run degrades to sequential when
           this map already runs it on a worker domain (see
           Smr.Parallel.map). *)
        let tables = spec.run ~jobs size in
        let shape =
          match size with
          | Experiment_def.Default -> Some (spec.shape tables)
          | Experiment_def.Reduced -> None
        in
        { spec; tables; shape })
      specs
  in
  (* Experiment spans are emitted here, after the parallel map, in spec
     order, with synthetic ticks (cumulative row counts) — never from
     worker domains — so traces are byte-identical for every [jobs]. *)
  (match tracer with
  | None -> ()
  | Some tr ->
    ignore
      (List.fold_left
         (fun t_acc o ->
           let rows =
             List.fold_left
               (fun acc (tb : Results.table) -> acc + List.length tb.Results.rows)
               0 o.tables
           in
           let t_end = t_acc + rows in
           Obs.Trace.emit tr
             (Obs.Event.Runner_span
                { t0 = t_acc; t1 = t_end;
                  experiment = o.spec.Experiment_def.id;
                  tables = List.length o.tables; rows });
           t_end)
         0 outcomes));
  outcomes

let tables outcomes = List.concat_map (fun o -> o.tables) outcomes

let failed_shapes outcomes =
  List.filter_map
    (fun o ->
      match o.shape with
      | Some (Error why) -> Some (o.spec.Experiment_def.id, why)
      | Some (Ok ()) | None -> None)
    outcomes
