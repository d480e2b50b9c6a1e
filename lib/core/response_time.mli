(** Scheduling-level composition.

    {2 Non-preemptive fixed-priority response-time analysis}

    The classic recurrence for tasks sharing one core:
    [R = C_i + B_i + sum_{j in hp(i)} ceil(R / T_j) * C_j], with blocking
    [B_i] = the longest lower-priority WCET (non-preemptive).

    {2 Task-lifetime refinement (Li et al., Section 4.1)}

    One task per core, released at a static offset.  Two tasks interfere
    in the shared L2 only if their execution windows
    [[offset, offset + R)] can overlap.  WCETs depend on conflicts,
    conflicts on windows, windows on WCETs — iterated from the
    all-overlap assumption, which is pessimistic at every step, so each
    iterate is a sound bound and the windows shrink monotonically. *)

type np_task = { name : string; wcet : int; period : int }

val non_preemptive_response_times :
  np_task list -> (string * int option) list
(** Tasks ordered by decreasing priority (head = highest).  [None] when
    the recurrence diverges past the period (unschedulable). *)

type lifetime_result = {
  wcets : int option array;  (** per core *)
  windows : (int * int) option array;  (** [offset, offset + wcet) *)
  iterations : int;
  overlaps : bool array array;
}

val lifetime_refinement :
  ?memo:Memo.t -> Multicore.system -> offsets:int array -> lifetime_result
(** Joint-analysis WCETs refined by release windows, over at most 10
    iterations.  [memo] is passed to the per-iteration
    {!Multicore.analyze_joint} calls — the fixpoint re-analyzes tasks
    whose overlap sets stabilized, which the cache then serves for
    free.
    @raise Invalid_argument if offsets and tasks disagree in length. *)
