(* Regenerates the golden JSON fixtures pinned by test_experiments.ml and
   test_lint.ml.

   Run from the repository root after an intentional change to the JSON
   format or to the experiment numbers:

     dune exec test/golden/gen.exe

   then review the diff before committing. *)

let fixtures =
  [ ( "test/golden/e1_small.json",
      fun () ->
        Core.Results.to_json (Core.E1_cc_flag.table ~ns:[ 2; 4 ] ()) ^ "\n" );
    ( "test/golden/e4_small.json",
      fun () ->
        Core.Results.to_json (Core.E4_queue_k.table ~n:16 ~ks:[ 1; 2; 4 ] ())
        ^ "\n" );
    ( "test/golden/lint.json",
      (* Byte-identical to `separation lint --json`, so CI can diff the
         command's raw output against this file. *)
      fun () ->
        let reports = Core.Lint_catalog.run ~n:4 () in
        let commute = Analysis.Commute_check.run () in
        Core.Results.to_json_many
          [ Core.Lint_catalog.lint_table reports;
            Core.Lint_catalog.commute_table commute ] );
    ( "test/golden/trace_cc_flag.jsonl",
      (* Byte-identical to `separation trace -a cc-flag -n 4 --format
         jsonl`, so CI can diff the command's raw output against this
         file; test_trace.ml pins the same bytes from the library side. *)
      fun () ->
        let m = Option.get (Core.Algorithms.find_algorithm "cc-flag") in
        let module A = (val m : Core.Signaling.POLLING) in
        let tr = Obs.Trace.create () in
        let cfg = Core.Algorithms.config_for m ~n:4 in
        let _ =
          Core.Scenario.run_phased (module A) ~model:`Dsm ~cfg ~tracer:tr ()
        in
        Obs.Sink_jsonl.to_string (Obs.Trace.events tr) );
    (* Chrome sink edge cases, pinned by test_trace.ml: an empty stream
       still renders a loadable document; a single event carries exactly
       its own track metadata; simultaneous events from two pids keep
       emission order at one tick. *)
    ("test/golden/chrome_empty.json", fun () -> Obs.Sink_chrome.to_string []);
    ( "test/golden/chrome_single.json",
      fun () ->
        Obs.Sink_chrome.to_string
          [ Obs.Event.Op_step
              { t = 1; pid = 0; kind = "write"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = true;
                rmr = true; messages = 1; model = "cc-wt"; call_seq = 0 } ] );
    ( "test/golden/chrome_two_pids_same_tick.json",
      fun () ->
        Obs.Sink_chrome.to_string
          [ Obs.Event.Op_step
              { t = 3; pid = 0; kind = "write"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = true;
                rmr = true; messages = 1; model = "cc-wt"; call_seq = 0 };
            Obs.Event.Op_step
              { t = 3; pid = 1; kind = "read"; addr = 0; var = "B";
                home = Obs.Event.Shared; response = 1; wrote = false;
                rmr = false; messages = 0; model = "cc-wt"; call_seq = 2 } ] );
    ( "test/golden/chrome_cells.json",
      (* The flat-path cells track group: same-tick traffic from two pids
         on two lanes, plus a lone roundtrip — the shape `separation
         profile --chrome-out` exports. *)
      fun () ->
        Obs.Sink_chrome.cells_to_string
          ~cell_name:(Printf.sprintf "B (a%d)")
          [ { Obs.Sink_chrome.ce_t = 2; ce_pid = 0; ce_addr = 0;
              ce_action = "invalidate"; ce_messages = 3 };
            { Obs.Sink_chrome.ce_t = 2; ce_pid = 1; ce_addr = 1;
              ce_action = "fetch"; ce_messages = 1 };
            { Obs.Sink_chrome.ce_t = 5; ce_pid = 2; ce_addr = 0;
              ce_action = "roundtrip"; ce_messages = 1 } ] ) ]

let () =
  List.iter
    (fun (path, render) ->
      let oc = open_out_bin path in
      output_string oc (render ());
      close_out oc;
      Printf.printf "wrote %s\n" path)
    fixtures
