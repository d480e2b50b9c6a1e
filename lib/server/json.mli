(** Minimal JSON: just enough for the line-delimited serve protocol.

    The toolkit writes JSON by hand in several places ({!Obs.Trace_export},
    the bench harness); the server additionally needs to *read* it.  This
    is a small total parser over complete values — no streaming, no
    extensions — and a canonical printer.  Integers are kept exact as
    OCaml [int]s; a number with a fraction or exponent becomes [Float]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** Whole-string parse (surrounding whitespace allowed); [Error] carries
    a position-annotated message. *)

val to_string : t -> string
(** Compact one-line rendering (no newlines — safe as one protocol
    line). *)

(** Pieces of {!to_string}, for replies rendered straight into a
    buffer without building a tree. *)

val write_string : Buffer.t -> string -> unit
(** The rendering of [Str s]: quoted and escaped. *)

val write_int : Buffer.t -> int -> unit
(** The rendering of [Int i]. *)

(** {1 Accessors} — all total. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] on anything else or when absent. *)

val to_int : t -> int option
val to_str : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val str_field : string -> t -> string option
val int_field : string -> t -> int option
