(* Rendering-layer tests: CSV quoting (RFC 4180) and the typed Results
   layer (construction, accessors, CSV/JSON renderers). *)

open Test_util
open Core

(* --- CSV quoting --- *)

let csv_of_cell c =
  (* Render a one-cell table and strip the header line and the trailing
     newline, leaving exactly the quoted cell (which may itself contain
     newlines, so no line splitting here). *)
  let csv =
    Results.to_csv
      (Results.make ~experiment:"ex" ~title:"t" ~claim:"c"
         ~columns:[ Results.param "h" ]
         [ [ Results.text c ] ])
  in
  let prefix = "h\n" in
  if
    String.length csv >= String.length prefix + 1
    && String.sub csv 0 (String.length prefix) = prefix
    && csv.[String.length csv - 1] = '\n'
  then
    String.sub csv (String.length prefix)
      (String.length csv - String.length prefix - 1)
  else Alcotest.failf "unexpected CSV shape: %S" csv

let test_csv_plain () =
  check_true "plain cell unquoted" (csv_of_cell "abc" = "abc");
  check_true "empty cell unquoted" (csv_of_cell "" = "")

let test_csv_comma () =
  check_true "comma quoted" (csv_of_cell "x,y" = "\"x,y\"")

let test_csv_quote () =
  check_true "quote doubled and quoted"
    (csv_of_cell "say \"hi\"" = "\"say \"\"hi\"\"\"")

let test_csv_newline () =
  check_true "LF quoted" (csv_of_cell "a\nb" = "\"a\nb\"")

let test_csv_cr () =
  (* RFC 4180: a bare CR must be quoted too, not only LF. *)
  check_true "CR quoted" (csv_of_cell "a\rb" = "\"a\rb\"");
  check_true "CRLF quoted" (csv_of_cell "a\r\nb" = "\"a\r\nb\"")

(* --- Results: a small table exercising every value constructor --- *)

let sample () =
  Results.make ~experiment:"ex" ~part:"a" ~title:"sample" ~claim:"claim"
    ~params:[ ("n", Results.int 4) ]
    ~columns:Results.[ param "k"; measure "m"; measure "ok"; measure "who" ]
    Results.
      [ [ int 1; float 1.5; bool true; text "p,q" ];
        [ int 2; float ~digits:3 0.125; bool false; text "r" ] ]

let test_results_make_validates () =
  check_true "ragged row rejected"
    (match
       Results.make ~experiment:"ex" ~title:"t" ~claim:"c"
         ~columns:[ Results.param "a" ]
         [ [ Results.int 1; Results.int 2 ] ]
     with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_results_accessors () =
  let t = sample () in
  check_true "rows_where finds row"
    (match Results.rows_where t "k" (Results.Int 2) with
    | [ row ] -> Results.get t ~row "who" = Results.Text "r"
    | _ -> false);
  check_true "column_values in order"
    (List.filter_map Results.to_int (Results.column_values t "k") = [ 1; 2 ]);
  check_true "to_float accepts Int"
    (Results.to_float (Results.int 3) = Some 3.);
  check_true "get unknown column raises"
    (match Results.get t ~row:(List.hd t.Results.rows) "nope" with
    | exception Not_found -> true
    | _ -> false)

let test_results_render () =
  check_true "bool renders yes" (Results.render_value (Results.bool true) = "yes");
  check_true "float keeps digits"
    (Results.render_value (Results.float ~digits:3 0.125) = "0.125");
  check_true "default two digits"
    (Results.render_value (Results.float 1.5) = "1.50")

let test_results_csv () =
  let csv = Results.to_csv (sample ()) in
  check_true "csv matches"
    (csv = "k,m,ok,who\n1,1.50,yes,\"p,q\"\n2,0.125,no,r\n")

let test_results_json () =
  let json = Results.to_json (sample ()) in
  (* Spot-check the stable rendering rules rather than pinning the whole
     document (the golden tests in test_experiments.ml do that). *)
  check_true "part present" (String.length json > 0);
  check_true "fixed decimals in JSON"
    (List.exists
       (fun line ->
         line = "    {\"k\": 2, \"m\": 0.125, \"ok\": false, \"who\": \"r\"}")
       (String.split_on_char '\n' json));
  check_true "text escaped"
    (let j =
       Results.to_json
         (Results.make ~experiment:"ex" ~title:"quote \"q\"" ~claim:"c"
            ~columns:[ Results.param "a" ]
            [ [ Results.text "b\\c" ] ])
     in
     contains j "quote \\\"q\\\"" && contains j "b\\\\c")

let test_results_json_many () =
  let t = sample () in
  let many = Results.to_json_many [ t; t ] in
  check_true "array document"
    (String.length many > 3
    && many.[0] = '['
    && String.sub many (String.length many - 2) 2 = "]\n");
  check_true "empty list renders" (Results.to_json_many [] = "[]\n")

let suite =
  [ case "csv plain cells" test_csv_plain;
    case "csv comma quoted" test_csv_comma;
    case "csv quote doubled" test_csv_quote;
    case "csv newline quoted" test_csv_newline;
    case "csv carriage return quoted" test_csv_cr;
    case "results make validates widths" test_results_make_validates;
    case "results typed accessors" test_results_accessors;
    case "results value rendering" test_results_render;
    case "results csv" test_results_csv;
    case "results json rendering" test_results_json;
    case "results json array" test_results_json_many ]
