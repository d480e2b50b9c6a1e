(** Abstract cache set states for LRU must/may/persistence analyses
    (Ferdinand-style abstract interpretation, the technique Section 2.1 of
    the paper describes for history-based components).

    Ages are 0 (most recently used) to [assoc-1]; in [Must] and [May]
    states a line reaching age [assoc] is dropped, in [Pers] states it
    saturates at [assoc], meaning "possibly evicted since first load".

    - [Must] ages are upper bounds: a tracked line is guaranteed resident.
    - [May] ages are lower bounds: an untracked line (with the set's
      universe flag clear) is guaranteed absent.  The universe flag records
      that an access with statically-unknown address may have brought any
      line into the set.
    - [Pers] ages are upper bounds including the virtual eviction age.

    States are immutable and share their unchanged parts: an operation
    that changes nothing returns its input itself. *)

type kind = Must | May | Pers

type t

val empty : Config.t -> kind -> t
(** Cold cache: platform contract is that caches are invalidated at task
    start, so cold is the concrete initial state, not an assumption. *)

val config : t -> Config.t
val kind : t -> kind

val equal : t -> t -> bool
val join : t -> t -> t
(** @raise Invalid_argument when kinds or configs differ. *)

val access_line : t -> int -> t
(** Access to a known memory line (line number, not byte address). *)

val access_one_of : ?uncertain:bool -> t -> int list -> t
(** Access to exactly one of the given candidate lines: the join of the
    one-line updates of [t].  With [~uncertain:true] the access may also
    not happen at all, and the result is
    [join (access_one_of t lines) t].  Either way only the sets the
    candidates map to are rebuilt; the others are shared with [t].
    @raise Invalid_argument on an empty candidate list. *)

val access_line_guided : t -> must:t -> int -> t
(** [Pers] only: Cullmann-style must-guided persistence update.  The
    accessed line's *must*-age bounds its true LRU position, so only
    persistence ages strictly below it need to grow; a line absent from
    the must state may miss, aging everything.  This keeps persistence
    both sound under joins (unlike the textbook update, see
    {!access_line}'s unconditional-aging rationale) and precise for
    loops cycling through several same-set lines.
    @raise Invalid_argument when [t] is not a [Pers] state or [must] not
    a [Must] state. *)

val access_one_of_guided : ?uncertain:bool -> t -> must:t -> int list -> t
(** {!access_one_of} with the guided update: the join of the
    {!access_line_guided} updates of [t], with [t] joined in too when
    [uncertain]. *)

val access_unknown : t -> t
(** Access to a statically unknown line. *)

val havoc : t -> t
(** Arbitrary foreign activity (a call to an analyzed-separately callee, or
    an unanalyzed co-runner): [Must] forgets everything, [May] sets the
    universe flag everywhere, [Pers] saturates every age. *)

val age_of_line : t -> int -> int option
val contains_line : t -> int -> bool
val universe : t -> set:int -> bool
(** Always [false] for [Must]/[Pers]. *)

val lines : t -> int list
(** All tracked lines, sorted. *)

val lines_of_set : t -> set:int -> int list

val shift_set : t -> set:int -> int -> t
(** Age every line of [set] by the given amount (shared-cache interference:
    Hardy et al.'s conflict-aging).  In [Must]/[May] lines pushed beyond
    [assoc-1] are dropped; in [Pers] they saturate. *)

val pp : Format.formatter -> t -> unit
