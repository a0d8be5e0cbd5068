(* The repository benchmark: one workload per invocation, timed over a
   fixed wall-clock budget, every iteration's output checked.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--spans-out FILE]
     bench.exe --self-test

   --trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
   again with every layer call wrapped in a span (Spans) and prints the
   per-layer metrics.  The last stdout line is the result object; the line
   before it records the workload, its inputs, the seed and the samples.
   perfbench/run.py builds this executable from source and runs it. *)

open Smr
open Workloads

(* ---- measurement ---- *)

type sample = { time_s : float; cpu_s : float; words : float }

let now_s () = float_of_int (Spans.now_ns ()) *. 1e-9

(* Minor words of every domain, joined worker domains included;
   Gc.minor_words would count the calling domain only. *)
let minor_words_all () = (Gc.quick_stat ()).Gc.minor_words

(* Each measured call starts from a collected heap, so one iteration's
   garbage is never billed to the next.  A sample has wall and CPU time:
   the end-to-end figures use the process's CPU time, because every timed
   workload runs on one domain and, on a small shared host, wall time also
   counts the time the process was not scheduled. *)
let measure f =
  Gc.full_major ();
  let w0 = minor_words_all () in
  let c0 = Sys.time () in
  let t0 = Spans.now_ns () in
  let r = f () in
  let t1 = Spans.now_ns () in
  let c1 = Sys.time () in
  let w1 = minor_words_all () in
  ( r,
    { time_s = float_of_int (t1 - t0) *. 1e-9;
      cpu_s = c1 -. c0;
      words = w1 -. w0 } )

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let wall_times samples = List.map (fun s -> s.time_s) samples
let cpu_times samples = List.map (fun s -> s.cpu_s) samples
let words samples = List.map (fun s -> s.words) samples

(* Set-up is repeated and the median of its samples reported; the last
   product is kept.  A sample times a batch of consecutive set-ups, as
   many as make the batch last at least a millisecond, so microsecond
   set-ups are not lost in clock and scheduling noise.  At least 5
   samples, then more up to ~1 s or 101 samples. *)
let repeat_setup f =
  let batch b =
    Gc.full_major ();
    let t0 = now_s () in
    let x = ref (f ()) in
    for _ = 2 to b do
      x := f ()
    done;
    ((now_s () -. t0) /. float_of_int b, !x)
  in
  let rec calibrate b =
    let t, _ = batch b in
    if t *. float_of_int b >= 1e-3 || b >= 1 lsl 16 then b
    else calibrate (2 * b)
  in
  let b = calibrate 1 in
  let started = now_s () in
  let rec go acc n =
    let t, x = batch b in
    let acc = t :: acc in
    if n + 1 >= 5 && (now_s () -. started >= 1.0 || n + 1 >= 101) then
      (median acc, x)
    else go acc (n + 1)
  in
  go [] 0

(* Run [round] until [seconds] have passed, at least once. *)
let rounds ~seconds round =
  let deadline = now_s () +. seconds in
  let rec go () =
    round ();
    if now_s () < deadline then go ()
  in
  go ()

(* ---- correctness tally ---- *)

type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }
let quiet = ref false

let verdict what = function
  | Ok () -> tally.attempted <- tally.attempted + 1
  | Error msg ->
    tally.attempted <- tally.attempted + 1;
    tally.failed <- tally.failed + 1;
    if tally.failed <= 5 && not !quiet then
      Printf.eprintf "perfbench: %s: %s\n%!" what msg

(* One checked iteration: [f] returns the output and what was measured
   alongside it.  The output must pass [check] against the first output
   checked (the reference later ones must reproduce), then [extra] on the
   pair; either failing fails the iteration.  Returns the pair, or [None]
   when the iteration raised. *)
let checked ?(extra = fun _ -> Ok ()) what check reference f =
  match f () with
  | (r, _) as x ->
    verdict what
      (Result.bind (check ~reference:!reference r) (fun () -> extra x));
    if Option.is_none !reference then reference := Some r;
    Some x
  | exception e ->
    verdict what (Error (Printexc.to_string e));
    None

let require ok msg = if ok then Ok () else Error msg

(* ---- metrics ---- *)

let end_to_end_units =
  [ ("setup_s", "s"); ("run_p50_s", "s"); ("run_p90_s", "s");
    ("alloc_mwords", "Mwords"); ("peak_heap_mb", "MB") ]

let per_layer_units =
  [ ("error_rate", "ratio"); ("loadgen.prepare_s", "s");
    ("program.builds", "count"); ("program.build_ns", "ns");
    ("program.build_words", "words"); ("flat_sim.create_s", "s");
    ("flat_sim.steps", "count"); ("flat_sim.self_ns_per_step", "ns");
    ("flat_sim.self_words_per_step", "words");
    ("flat_sim.bytes_per_process", "B"); ("cc.fetch", "count");
    ("cc.invalidate", "count"); ("cc.update", "count");
    ("cc.roundtrip", "count"); ("cc.messages", "count");
    ("workload.rmr_per_signal", "rmr"); ("workload.rmr_per_op", "rmr");
    ("workload.crashes", "count"); ("workload.left_early", "count");
    ("workload.poll_latency_mean", "ticks"); ("obs.counters_ratio", "ratio");
    ("obs.counters_words_per_step", "words"); ("explore.states", "count");
    ("explore.dedup_hits", "count"); ("explore.por_prunes", "count");
    ("explore.orbit_hits", "count"); ("explore.histories", "count");
    ("explore.tasks", "count"); ("explore.max_depth", "count");
    ("explore.fp_distinct", "count"); ("explore.fp_collisions", "count");
    ("explore.fp_slots", "count"); ("explore.states_per_s", "1/s");
    ("explore.dedup_ratio", "ratio"); ("explore.words_per_state", "words");
    ("explore.self_s", "s"); ("symmetry.detect_s", "s");
    ("symmetry.pids", "count"); ("explore.script_calls", "count");
    ("explore.script_ns", "ns"); ("signaling.property_calls", "count");
    ("signaling.property_ns", "ns"); ("op.commute_calls", "count");
    ("op.commute_ns", "ns"); ("cost_model.account_calls", "count");
    ("cost_model.account_ns", "ns"); ("parallel.speedup", "ratio");
    ("trace.overhead_ratio", "ratio"); ("trace.iteration_s", "s") ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- untraced run: the end-to-end metrics ---- *)

let run_plain kind ~seed ~seconds =
  (* Set up, one warm-up iteration (checked, not timed), then timed
     iterations until the budget is spent. *)
  let timed what setup run check =
    let setup_s, p = repeat_setup setup in
    let reference = ref None in
    let iterate () =
      checked what check reference (fun () -> measure (fun () -> run p))
    in
    ignore (iterate ());
    let samples = ref [] in
    rounds ~seconds (fun () ->
        Option.iter (fun (_, s) -> samples := s :: !samples) (iterate ()));
    (setup_s, !samples)
  in
  let setup_s, samples =
    match kind with
    | Load l ->
      timed "load" (fun () -> load_setup l ~seed) load_run (check_load l)
    | Explore e ->
      timed "explore"
        (fun () -> explore_setup e)
        (fun p -> explore_run p ~jobs:1)
        check_explore
  in
  let metrics =
    [ ("setup_s", setup_s);
      ("run_p50_s", median (cpu_times samples));
      ("run_p90_s", percentile 0.9 (cpu_times samples));
      ("alloc_mwords", median (words samples) /. 1e6);
      ("peak_heap_mb", peak_heap_mb ()) ]
  in
  (metrics, List.rev samples)

(* ---- traced run: the per-layer metrics ---- *)

(* Every span on one domain nests under the iteration span, so the
   layers' self times plus the iteration's own self time (the residual no
   wrapper covers) must add up to the iteration exactly. *)
let additive (t : Spans.totals) =
  let self = Array.fold_left ( + ) 0 t.Spans.t_self_ns in
  let whole = t.Spans.t_total_ns.(Spans.iteration) in
  require (self = whole)
    (Printf.sprintf "layer self times sum to %d ns, iteration took %d ns" self
       whole)

(* Run [f] as one traced iteration (fresh accumulators, root span on this
   domain) and return its output, sample and per-layer totals. *)
let traced_iteration f =
  Spans.reset ();
  let r, s =
    measure (fun () ->
        let st = Spans.state () in
        Spans.enter st Spans.iteration;
        let r = f () in
        Spans.leave st;
        r)
  in
  (r, s, Spans.totals ())

let ns_per_call (t : Spans.totals) layer =
  ratio
    (float_of_int t.Spans.t_total_ns.(layer))
    (float_of_int t.Spans.t_calls.(layer))

let traced_load l ~seed ~seconds =
  let prepare_s, p = repeat_setup (fun () -> load_setup l ~seed) in
  let create_s, () = repeat_setup (fun () -> flat_sim_create p) in
  let create_words =
    let w0 = Gc.minor_words () in
    flat_sim_create p;
    Gc.minor_words () -. w0
  in
  let reference = ref None in
  let check = check_load l in
  ignore
    (checked "load warm-up" check reference (fun () ->
         measure (fun () -> load_run p)));
  let traced = traced_instance p.lp_instance in
  let counters =
    Obs.Counters.create ~n:p.lp_n ~size:(Var.layout_size p.lp_layout) ()
  in
  let plain = ref [] and armed = ref [] and traced_s = ref [] in
  let traced_totals = ref [] and cc_ref = ref None in
  (* The planes and on_cache observe the same coherence traffic (the
     planes bill a write-through round trip as a fetch), and both must
     agree with the driver's totals. *)
  let counters_agree ((r : Workload.Driver.report), _) =
    let total = Obs.Counters.total counters in
    let open Workload.Driver in
    Result.bind
      (require
         (total Obs.Counters.Rmr = r.r_total_rmrs
         && total Obs.Counters.Rmr + total Obs.Counters.Local = r.r_steps
         && total Obs.Counters.Crash = r.r_crashes)
         "counter planes disagree with the driver's totals")
      (fun () ->
        match !cc_ref with
        | None -> Ok ()
        | Some cc ->
          require
            (total Obs.Counters.Fetch = cc.(0) + cc.(3)
            && total Obs.Counters.Invalidate = cc.(1)
            && total Obs.Counters.Update = cc.(2)
            && Obs.Counters.total_messages counters = cc.(4))
            "counter planes disagree with the on_cache counts")
  in
  rounds ~seconds (fun () ->
      Option.iter
        (fun (_, s) -> plain := s :: !plain)
        (checked "load" check reference (fun () ->
             measure (fun () -> load_run p)));
      let cc, on_cache = cc_counter () in
      let same_traffic (_, (_, t)) =
        Result.bind (additive t) (fun () ->
            match !cc_ref with
            | None -> Ok ()
            | Some c0 ->
              require (c0 = cc)
                "coherence counts differ between traced iterations")
      in
      Option.iter
        (fun (_, (s, t)) ->
          traced_s := s :: !traced_s;
          traced_totals := t :: !traced_totals;
          if Option.is_none !cc_ref then cc_ref := Some cc)
        (checked ~extra:same_traffic "load traced" check reference (fun () ->
             let r, s, t =
               traced_iteration (fun () ->
                   load_run ~on_cache ~instance:traced p)
             in
             (r, (s, t))));
      Obs.Counters.reset counters;
      Option.iter
        (fun (_, s) -> armed := s :: !armed)
        (checked ~extra:counters_agree "load counters" check reference
           (fun () -> measure (fun () -> load_run ~counters p))));
  let r0 =
    match !reference with Some r -> r | None -> failwith "no load iteration ran"
  in
  let open Workload.Driver in
  let steps = float_of_int r0.r_steps in
  let traced = !traced_totals in
  let build_calls, build_words =
    match traced with
    | [] -> (0.0, 0.0)
    | t :: _ ->
      let calls = float_of_int t.Spans.t_calls.(Spans.build) in
      (calls, ratio (float_of_int t.Spans.t_words.(Spans.build)) calls)
  in
  let cc = Option.value !cc_ref ~default:(Array.make 5 0) in
  let med_plain = median (wall_times !plain) in
  [ ("loadgen.prepare_s", prepare_s);
    ("program.builds", build_calls);
    ("program.build_ns",
     median (List.map (fun t -> ns_per_call t Spans.build) traced));
    ("program.build_words", build_words);
    ("flat_sim.create_s", create_s);
    ("flat_sim.steps", steps);
    (* Driver.run's self time is the flat engine plus the driver loop;
       Flat_sim.create, timed on its own, is taken out. *)
    ("flat_sim.self_ns_per_step",
     median
       (List.map
          (fun t ->
            ratio
              (float_of_int t.Spans.t_self_ns.(Spans.iteration)
              -. (create_s *. 1e9))
              steps)
          traced));
    ("flat_sim.self_words_per_step",
     ratio
       (median (words !plain) -. (build_words *. build_calls) -. create_words)
       steps);
    ("flat_sim.bytes_per_process", float_of_int r0.r_bytes_per_process);
    ("cc.fetch", float_of_int cc.(0));
    ("cc.invalidate", float_of_int cc.(1));
    ("cc.update", float_of_int cc.(2));
    ("cc.roundtrip", float_of_int cc.(3));
    ("cc.messages", float_of_int cc.(4));
    ("workload.rmr_per_signal", rmrs_per_signal r0);
    ("workload.rmr_per_op", rmrs_per_op r0);
    ("workload.crashes", float_of_int r0.r_crashes);
    ("workload.left_early", float_of_int r0.r_left_early);
    ("workload.poll_latency_mean", r0.r_poll_latency.Workload.Stats.mean);
    ("obs.counters_ratio", ratio (median (wall_times !armed)) med_plain);
    ("obs.counters_words_per_step",
     ratio (median (words !armed) -. median (words !plain)) steps);
    ("trace.overhead_ratio", ratio (median (wall_times !traced_s)) med_plain);
    ("trace.iteration_s", median (wall_times !traced_s)) ]

let traced_explore e ~seconds =
  let detect_s, _ =
    let inst, layout, waiters = explore_instance e in
    repeat_setup (fun () -> detect_symmetry e inst layout waiters)
  in
  let _, p = repeat_setup (fun () -> explore_setup e) in
  let reference = ref None in
  let jobs1_calls = ref None in
  (* A traced jobs-1 iteration has one domain, so its spans add up; every
     traced iteration, at either jobs, makes the hook calls the first one
     made, whichever domains made them. *)
  let traced_ok ~jobs (t : Spans.totals) =
    let same_calls () =
      match !jobs1_calls with
      | None -> Ok ()
      | Some c0 ->
        require (c0 = t.Spans.t_calls)
          "hook call counts differ from the first traced iteration's"
    in
    if jobs = 1 then Result.bind (additive t) same_calls else same_calls ()
  in
  (* One checked iteration at [jobs]; its sample goes to [acc] and, when
     traced, its per-layer totals are returned. *)
  let pass ~traced ~jobs acc =
    let run () =
      if traced then
        let r, s, t =
          traced_iteration (fun () -> explore_run ~traced p ~jobs)
        in
        (r, (s, Some t))
      else
        let r, s = measure (fun () -> explore_run p ~jobs) in
        (r, (s, None))
    in
    let extra (_, (_, t)) =
      match t with Some t -> traced_ok ~jobs t | None -> Ok ()
    in
    match
      checked ~extra (Printf.sprintf "explore jobs %d" jobs) check_explore
        reference run
    with
    | None -> None
    | Some (_, (s, t)) ->
      acc := s :: !acc;
      t
  in
  ignore (pass ~traced:false ~jobs:1 (ref []));
  let plain = ref [] and traced_s = ref [] and plain2 = ref [] in
  let traced_totals = ref [] in
  rounds ~seconds (fun () ->
      ignore (pass ~traced:false ~jobs:1 plain);
      Option.iter
        (fun t ->
          if Option.is_none !jobs1_calls then
            jobs1_calls := Some t.Spans.t_calls;
          traced_totals := t :: !traced_totals)
        (pass ~traced:true ~jobs:1 traced_s);
      (* The same search on two domains: the speedup, and the hooks called
         from worker domains counted in per-domain accumulators. *)
      ignore (pass ~traced:false ~jobs:2 plain2);
      ignore (pass ~traced:true ~jobs:2 (ref [])));
  let r0 =
    match !reference with
    | Some r -> r
    | None -> failwith "no explore iteration ran"
  in
  let st = r0.Explore.stats in
  let f = float_of_int in
  let states = f st.Explore.states in
  let med_plain = median (wall_times !plain) in
  let traced = !traced_totals in
  let seconds_of field =
    median (List.map (fun t -> f (field t).(Spans.iteration) *. 1e-9) traced)
  in
  let layer name layer =
    [ ( name ^ "_calls",
        match traced with [] -> 0.0 | t :: _ -> f t.Spans.t_calls.(layer) );
      (name ^ "_ns", median (List.map (fun t -> ns_per_call t layer) traced)) ]
  in
  [ ("explore.states", states);
    ("explore.dedup_hits", f st.Explore.dedup_hits);
    ("explore.por_prunes", f st.Explore.por_prunes);
    ("explore.orbit_hits", f st.Explore.orbit_hits);
    ("explore.histories", f r0.Explore.histories);
    ("explore.tasks", f st.Explore.tasks);
    ("explore.max_depth", f st.Explore.max_depth);
    ("explore.fp_distinct", f st.Explore.fp_distinct);
    ("explore.fp_collisions", f st.Explore.fp_collisions);
    ("explore.fp_slots", f st.Explore.fp_slots);
    ("explore.states_per_s", ratio states med_plain);
    ("explore.dedup_ratio", ratio (f st.Explore.dedup_hits) states);
    ("explore.words_per_state", ratio (median (words !plain)) states);
    ("explore.self_s", seconds_of (fun t -> t.Spans.t_self_ns));
    ("symmetry.detect_s", detect_s);
    ("symmetry.pids", f (Sim.Pid_set.cardinal p.ep_symmetry));
    ("parallel.speedup", ratio med_plain (median (wall_times !plain2)));
    ("trace.overhead_ratio", ratio (median (wall_times !traced_s)) med_plain);
    ("trace.iteration_s", seconds_of (fun t -> t.Spans.t_total_ns)) ]
  @ layer "explore.script" Spans.script
  @ layer "signaling.property" Spans.property
  @ layer "op.commute" Spans.commute
  @ layer "cost_model.account" Spans.account

let run_traced kind ~seed ~seconds =
  let measured =
    match kind with
    | Load l -> traced_load l ~seed ~seconds
    | Explore e -> traced_explore e ~seconds
  in
  let error_rate =
    ratio (float_of_int tally.failed) (float_of_int (max 1 tally.attempted))
  in
  (* Layers a workload does not run read 0. *)
  List.map
    (fun (name, _) ->
      ( name,
        if name = "error_rate" then error_rate
        else Option.value (List.assoc_opt name measured) ~default:0.0 ))
    per_layer_units

(* ---- output ---- *)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    Printf.eprintf "perfbench: metric %s is not finite; reporting 0\n%!" name;
    "0"
  end

let json_string s = Printf.sprintf "%S" s

let result_line metrics units =
  let fields =
    List.map
      (fun (name, unit) ->
        let v = Option.value (List.assoc_opt name metrics) ~default:nan in
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number name v) (json_string unit))
      units
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (tally.failed = 0 && tally.attempted > 0)
    tally.attempted tally.failed
    (String.concat ", " fields)

let info_line ~name ~kind ~seed ~trace ~samples ~spans_out =
  Printf.sprintf
    "{\"workload\": %s, \"inputs\": %s, \"seed\": %d, \"seeded\": %b, \
     \"trace\": %d, \"iterations_timed\": %d, \"samples_s\": [%s], \
     \"samples_cpu_s\": [%s]%s}"
    (json_string name) (json_string (describe kind)) seed
    (match kind with Load _ -> true | Explore _ -> false)
    (if trace then 1 else 0)
    (List.length samples)
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%.6f" s.time_s) samples))
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%.6f" s.cpu_s) samples))
    (match spans_out with
    | Some path -> Printf.sprintf ", \"spans\": %s" (json_string path)
    | None -> "")

let run_workload ~name ~kind ~seed ~seconds ~trace ~spans_out =
  tally.attempted <- 0;
  tally.failed <- 0;
  let print line = if not !quiet then print_endline line in
  if trace then begin
    let metrics = run_traced kind ~seed ~seconds in
    Option.iter Spans.write_chrome spans_out;
    print (info_line ~name ~kind ~seed ~trace ~samples:[] ~spans_out);
    print (result_line metrics per_layer_units)
  end
  else begin
    let metrics, samples = run_plain kind ~seed ~seconds in
    print (info_line ~name ~kind ~seed ~trace ~samples ~spans_out:None);
    print (result_line metrics end_to_end_units)
  end;
  (tally.attempted, tally.failed)

(* ---- self-test: small positives must pass, negative controls fail ---- *)

let self_test () =
  let cases =
    [ ("load-cc (k=2000)", load_cc 2000, true);
      ("load-dsm (k=1000)", load_dsm 1000, true);
      ("explore-sym (N=3)", explore ~n:3 ~waiters:2 ~polls:2 (), true);
      ("explore-dsm (N=3)",
       explore ~algorithm:dsm_broadcast ~n:3 ~waiters:2 ~polls:2 (), true);
      ("control-mutant", List.assoc "control-mutant" all, false);
      ("control-fuel", List.assoc "control-fuel" all, false) ]
  in
  let bad = ref 0 in
  quiet := true;
  List.iter
    (fun (name, kind, should_pass) ->
      List.iter
        (fun trace ->
          let attempted, failed =
            run_workload ~name ~kind ~seed:1 ~seconds:0.0 ~trace
              ~spans_out:None
          in
          let ok =
            attempted > 0 && if should_pass then failed = 0 else failed > 0
          in
          if not ok then begin
            incr bad;
            Printf.printf
              "self-test %s (trace %b): %d of %d iterations failed, expected \
               %s\n%!"
              name trace failed attempted
              (if should_pass then "none" else "some")
          end)
        [ false; true ])
    cases;
  Printf.printf "perfbench self-test: %d of %d cases as expected\n"
    ((2 * List.length cases) - !bad)
    (2 * List.length cases);
  exit (if !bad = 0 then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and spans_out = ref "" and self = ref false in
  let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the load workloads' inputs");
      ("--seconds", Arg.Set_float seconds, "S measuring budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1)");
      ("--spans-out", Arg.Set_string spans_out,
       "FILE write the traced run's spans (Chrome trace JSON)");
      ("--self-test", Arg.Set self, " run the small and negative controls") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !self then self_test ();
  match List.assoc_opt !workload all with
  | None ->
    Printf.eprintf "perfbench: unknown workload %S; valid: %s\n" !workload
      (String.concat ", " (List.map fst all));
    exit 2
  | Some kind ->
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "perfbench: --trace must be 0 or 1";
      exit 2
    end;
    ignore
      (run_workload ~name:!workload ~kind ~seed:!seed ~seconds:!seconds
         ~trace:(!trace = 1)
         ~spans_out:(if !spans_out = "" then None else Some !spans_out))
