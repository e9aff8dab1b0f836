(** Minimal JSON tree, emitter and parser.

    The observability layer's one serialization format: traces, metrics
    and machine-readable reports all go through {!t}. The emitter always
    produces valid JSON (floats keep a decimal point or exponent so they
    parse back as floats; non-finite floats degrade to [null]); the parser
    accepts exactly the JSON grammar (objects, arrays, strings with
    escapes incl. [\uXXXX], numbers, booleans, null) — enough for
    round-trip tests and for linting our own emitted files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) rendering. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document ([Error] carries a position-annotated
    message). Numbers without [.]/[e] parse as [Int], others as [Float]. *)

val member : string -> t -> t option
(** Field lookup on [Obj] (None on other constructors). *)

val write_file : string -> t -> unit
(** Write the compact rendering plus a trailing newline. *)
