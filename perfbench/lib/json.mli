(** A minimal JSON value with a hand-written emitter and parser (no JSON
    library is installed).  The emitter writes result records; the parser
    reads them back, and [BENCHMARK.json], for the compare command. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** One line.  Integral numbers print without a fraction, others with 17
    significant digits; NaN and infinities print as [null]. *)

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input or trailing characters. *)

val member : string -> t -> t option
(** Field of an object; [None] for a missing key or a non-object. *)

val to_float : t -> float option
val to_str : t -> string option
