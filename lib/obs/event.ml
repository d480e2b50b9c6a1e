type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Begin of { name : string; cat : string; args : (string * value) list }
  | End
  | Instant of { name : string; cat : string; args : (string * value) list }
  | Counter of { name : string; cat : string; args : (string * value) list }

type t = { ts : int64; kind : kind }

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Bool b -> string_of_bool b
