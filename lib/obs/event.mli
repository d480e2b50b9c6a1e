(** Trace events.

    A track's buffer holds a flat sequence of events; hierarchy is
    implicit in the [Begin]/[End] nesting, exactly as in the Chrome
    [trace_event] duration-event model.  An [End] closes the most recent
    open [Begin] of its track. *)

type value = Int of int | Float of float | Str of string | Bool of bool

type kind =
  | Begin of { name : string; cat : string; args : (string * value) list }
  | End
  | Instant of { name : string; cat : string; args : (string * value) list }
  | Counter of { name : string; cat : string; args : (string * value) list }
      (** a sampled multi-series value (Chrome [ph:"C"] counter track):
          each arg is one series at this timestamp — used for the
          attribution category tracks *)

type t = { ts : int64; kind : kind }

val value_to_string : value -> string
