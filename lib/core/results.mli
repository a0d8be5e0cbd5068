(** Typed experiment results.

    Every experiment produces one or more {!table}s: a grid of typed
    {!value}s under named columns, tagged with the experiment id, the paper
    claim it regenerates, and the table-level parameter bindings of the run
    (N, k, model, ...).  Renderers turn a table into aligned text,
    RFC-4180 CSV, or a stable JSON document. *)

type value =
  | Int of int
  | Float of { value : float; digits : int }
      (** Rendered with exactly [digits] decimals in every format. *)
  | Bool of bool  (** Rendered [yes]/[no] in text and CSV, a JSON boolean. *)
  | Text of string

(** Whether a column is a parameter binding of the run (N, k, algorithm,
    model, ...) or a measured quantity. *)
type kind = Param | Measure

type column = { name : string; kind : kind }

type table = private {
  experiment : string;  (** registry id, e.g. ["e1"] *)
  part : string option;
      (** distinguishes sub-tables of one experiment, e.g. ["a"]/["b"] *)
  title : string;  (** the full human title printed above the text table *)
  claim : string;  (** one-line paper-section claim *)
  params : (string * value) list;
      (** table-level parameter bindings, e.g. [("n", Int 64)] *)
  columns : column list;
  rows : value list list;  (** each row aligned with [columns] *)
}

val make :
  experiment:string ->
  ?part:string ->
  title:string ->
  claim:string ->
  ?params:(string * value) list ->
  columns:column list ->
  value list list ->
  table
(** Raises [Invalid_argument] if a row's width differs from [columns]. *)

val param : string -> column
val measure : string -> column

val int : int -> value
val float : ?digits:int -> float -> value
(** [digits] defaults to 2. *)

val bool : bool -> value
val text : string -> value

val render_value : value -> string
(** The text/CSV cell for a value. *)

(** {1 Typed access (for expected-shape predicates)} *)

val get : table -> row:value list -> string -> value
(** Cell of [row] under the column named [string].  Raises [Not_found] if
    the table has no such column. *)

val column_values : table -> string -> value list
(** One value per row. *)

val rows_where : table -> string -> value -> value list list
(** The rows whose cell under the named column equals the given value. *)

val to_int : value -> int option
val to_float : value -> float option
(** Succeeds on [Int] and [Float]. *)

val to_bool : value -> bool option
val to_text : value -> string

(** {1 Renderers} *)

val pp : table Fmt.t
(** The title line, then the header, a dashed rule and the rows, each cell
    padded to its column's width. *)

val print : table -> unit
(** {!pp} on stdout. *)

val to_string : table -> string
(** {!pp} into a string. *)

val to_csv : table -> string
(** Header + rows (no title), RFC-4180 quoting. *)

val to_json : table -> string
(** One table as a stable JSON object: keys in fixed order
    ([experiment], [part], [title], [claim], [params], [columns], [rows]);
    rows are objects keyed by column name; [Float] values keep their fixed
    decimal rendering.  Deterministic byte-for-byte for a given table. *)

val to_json_many : table list -> string
(** A JSON array of {!to_json} objects, in list order. *)
