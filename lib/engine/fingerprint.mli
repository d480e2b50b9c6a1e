(** Structural fingerprints for memoization keys.

    A fingerprint is built by feeding typed atoms into an accumulator and
    digesting the canonical byte rendering (MD5).  Every atom is
    length/tag-prefixed, so distinct atom sequences cannot collide by
    concatenation ambiguity — ["ab" ^ "c"] and ["a" ^ "bc"] fingerprint
    differently.  Callers are responsible for feeding *all* inputs their
    computation depends on; {!Core.Memo} builds keys from (program,
    annotations, platform configuration) renderings. *)

type t

val create : unit -> t
val string : t -> string -> unit
val int : t -> int -> unit
val ints : t -> int list -> unit
val bool : t -> bool -> unit

val digest : t -> string
(** Hex MD5 of everything fed so far (does not reset the accumulator). *)

val of_strings : string list -> string
(** One-shot: fingerprint a list of string atoms. *)
