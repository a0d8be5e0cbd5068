(* Typed experiment results.

   The experiments build these tables; text/CSV/JSON are pure views.
   JSON emission is hand-rolled (the dependency footprint stays fmt-only)
   and deliberately boring: fixed key order, fixed float rendering, so the
   output is stable byte-for-byte across runs and across --jobs levels. *)

type value =
  | Int of int
  | Float of { value : float; digits : int }
  | Bool of bool
  | Text of string

type kind = Param | Measure

type column = { name : string; kind : kind }

type table = {
  experiment : string;
  part : string option;
  title : string;
  claim : string;
  params : (string * value) list;
  columns : column list;
  rows : value list list;
}

let make ~experiment ?part ~title ~claim ?(params = []) ~columns rows =
  let width = List.length columns in
  List.iteri
    (fun i row ->
      if List.length row <> width then
        invalid_arg
          (Printf.sprintf "Results.make %s: row %d has %d cells, expected %d"
             experiment i (List.length row) width))
    rows;
  { experiment; part; title; claim; params; columns; rows }

let param name = { name; kind = Param }
let measure name = { name; kind = Measure }

let int i = Int i
let float ?(digits = 2) value = Float { value; digits }
let bool b = Bool b
let text s = Text s

let render_value = function
  | Int i -> string_of_int i
  | Float { value; digits } -> Printf.sprintf "%.*f" digits value
  | Bool b -> if b then "yes" else "no"
  | Text s -> s

(* --- typed access --- *)

let col_index t name =
  let rec go i = function
    | [] -> raise Not_found
    | c :: _ when c.name = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 t.columns

let get t ~row name = List.nth row (col_index t name)

let column_values t name =
  let i = col_index t name in
  List.map (fun row -> List.nth row i) t.rows

let rows_where t name v =
  let i = col_index t name in
  List.filter (fun row -> List.nth row i = v) t.rows

let to_int = function Int i -> Some i | Float _ | Bool _ | Text _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float { value; _ } -> Some value
  | Bool _ | Text _ -> None

let to_bool = function Bool b -> Some b | Int _ | Float _ | Text _ -> None

let to_text = render_value

(* --- renderers --- *)

(* Aligned text: every cell, the last included, is padded to its column's
   width, under a dashed rule. *)
let pp ppf t =
  let header = List.map (fun c -> c.name) t.columns in
  let rows = List.map (List.map render_value) t.rows in
  let w = Array.make (List.length header) 0 in
  List.iter
    (List.iteri (fun i c -> w.(i) <- max w.(i) (String.length c)))
    (header :: rows);
  let line cells =
    let padded =
      List.mapi
        (fun i c -> c ^ String.make (w.(i) - String.length c) ' ')
        cells
    in
    Fmt.pf ppf "  %s@." (String.concat "  " padded)
  in
  Fmt.pf ppf "%s@." t.title;
  line header;
  line (List.map (fun width -> String.make width '-') (Array.to_list w));
  List.iter line rows

let print t = pp Fmt.stdout t

let to_string t = Fmt.str "%a" pp t

(* RFC-4180 CSV: quote cells containing separators, quotes or line breaks
   (both LF and CR — bare CR is a record separator to some readers). *)
let csv_cell c =
  if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n' || ch = '\r') c
  then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' c) ^ "\""
  else c

let to_csv t =
  let line cells = String.concat "," (List.map csv_cell cells) in
  String.concat "\n"
    (line (List.map (fun c -> c.name) t.columns)
    :: List.map (fun row -> line (List.map render_value row)) t.rows)
  ^ "\n"

(* JSON: escape the mandatory characters, pass UTF-8 through. *)
let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_string s = "\"" ^ json_escape s ^ "\""

let json_value = function
  | Int i -> string_of_int i
  | Float { value; digits } -> Printf.sprintf "%.*f" digits value
  | Bool b -> if b then "true" else "false"
  | Text s -> json_string s

let json_fields ~indent t =
  let pad = String.make indent ' ' in
  let columns =
    List.map
      (fun c ->
        Printf.sprintf "{\"name\": %s, \"kind\": %s}" (json_string c.name)
          (json_string (match c.kind with Param -> "param" | Measure -> "measure")))
      t.columns
  in
  let params =
    List.map
      (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_value v))
      t.params
  in
  let row cells =
    "{"
    ^ String.concat ", "
        (List.map2
           (fun c v -> Printf.sprintf "%s: %s" (json_string c.name) (json_value v))
           t.columns cells)
    ^ "}"
  in
  [ ("experiment", json_string t.experiment);
    ("part", (match t.part with Some p -> json_string p | None -> "null"));
    ("title", json_string t.title);
    ("claim", json_string t.claim);
    ("params", "{" ^ String.concat ", " params ^ "}");
    ("columns", "[" ^ String.concat ", " columns ^ "]");
    ("rows",
     if t.rows = [] then "[]"
     else
       "[\n" ^ pad ^ "    "
       ^ String.concat (",\n" ^ pad ^ "    ") (List.map row t.rows)
       ^ "\n" ^ pad ^ "  ]")
  ]

let json_object ~indent fields =
  let pad = String.make indent ' ' in
  pad ^ "{\n"
  ^ String.concat ",\n"
      (List.map
         (fun (k, v) -> Printf.sprintf "%s  %s: %s" pad (json_string k) v)
         fields)
  ^ "\n" ^ pad ^ "}"

let to_json t = json_object ~indent:0 (json_fields ~indent:0 t) ^ "\n"

let to_json_many ts =
  match ts with
  | [] -> "[]\n"
  | ts ->
    "[\n"
    ^ String.concat ",\n"
        (List.map (fun t -> json_object ~indent:2 (json_fields ~indent:2 t)) ts)
    ^ "\n]\n"
