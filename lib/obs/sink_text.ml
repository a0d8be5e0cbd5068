(* Human-oriented text sink: one deterministic line per event, in the
   vocabulary of Smr.Timeline but covering the whole event schema
   (timeline draws only op cells; this also shows calls, cache traffic,
   adversary decisions, and explorer/runner spans). *)

let tick t = Printf.sprintf "t=%04d" t

let line (ev : Event.t) =
  match ev with
  | Event.Op_step e ->
    Printf.sprintf "%s p%d op    %-5s %s@%s -> %d%s%s (%s)" (tick e.t) e.pid
      e.kind e.var
      (Event.home_label e.home)
      e.response
      (if e.rmr then " [rmr]" else "")
      (if e.messages > 0 then Printf.sprintf " msgs=%d" e.messages else "")
      e.model
  | Event.Call_begin e ->
    Printf.sprintf "%s p%d call+ %s#%d" (tick e.t) e.pid e.label e.seq
  | Event.Call_end e ->
    Printf.sprintf "%s p%d call- %s#%d = %d (rmrs=%d, steps=%d)" (tick e.t)
      e.pid e.label e.seq e.result e.rmrs e.steps
  | Event.Call_crash e ->
    Printf.sprintf "%s p%d crash %s#%d (rmrs=%d, steps=%d)" (tick e.t) e.pid
      e.label e.seq e.rmrs e.steps
  | Event.Proc_exit e ->
    Printf.sprintf "%s p%d exit %s" (tick e.t) e.pid
      (if e.crashed then "(crashed)" else "(done)")
  | Event.Cache e ->
    Printf.sprintf "%s p%d cache %-10s a%d copies=%d msgs=%d (%s/%s)"
      (tick e.t) e.pid e.action e.addr e.copies e.messages e.protocol
      e.interconnect
  | Event.Adversary e ->
    let who = if e.pid < 0 then "" else Printf.sprintf " p%d" e.pid in
    let detail = if e.detail = "" then "" else " " ^ e.detail in
    Printf.sprintf "%s adversary %s%s%s" (tick e.t) e.decision who detail
  | Event.Explore_task e ->
    Printf.sprintf
      "explore task %d: t=[%d,%d] states=%d dedup=%d por=%d histories=%d \
       truncated=%d depth=%d"
      e.task e.t0 e.t1 e.states e.dedup_hits e.por_prunes e.histories
      e.truncated e.max_depth
  | Event.Runner_span e ->
    Printf.sprintf "runner %s: t=[%d,%d] tables=%d rows=%d" e.experiment e.t0
      e.t1 e.tables e.rows

let to_string events =
  String.concat "" (List.map (fun ev -> line ev ^ "\n") events)
