(** An assembled MiniRISC program.

    Instructions are indexed from 0; instruction [i] lives at byte address
    [base + 4*i].  Labels map symbolic names to instruction indices.  The
    program entry is an instruction index (conventionally the label
    ["main"]). *)

type t = private {
  name : string;
  code : Instr.t array;
  labels : (string * int) list;  (** sorted by index *)
  entry : int;
  base : int;
      (** base byte address of the code segment: 0 for every program
          {!make} builds; store keys fingerprint it *)
}

val make :
  name:string ->
  code:Instr.t array ->
  labels:(string * int) list ->
  ?entry:string ->
  unit ->
  t
(** [make] validates that every branch/jump/call target is a known label,
    that [entry] (default ["main"], falling back to index 0 when absent)
    exists, and that label indices are in range.  The program keeps its
    own copy of [code]: a program never changes after [make] (caches
    keyed by a program's physical identity rely on it), so the [code]
    array of a program must never be written.
    @raise Invalid_argument on any violation. *)

val length : t -> int

val instr : t -> int -> Instr.t
(** @raise Invalid_argument when out of range. *)

val label_index : t -> string -> int
(** @raise Not_found for unknown labels. *)

val label_at : t -> int -> string option
(** The (first) label naming instruction index [i], if any. *)

val addr_of_index : t -> int -> int
(** Byte address of instruction [i]. *)

val index_of_addr : t -> int -> int
(** Inverse of {!addr_of_index}.
    @raise Invalid_argument if the address is unaligned or out of range. *)

val word_size : int
(** Bytes per instruction / memory word (4). *)

val pp : Format.formatter -> t -> unit
