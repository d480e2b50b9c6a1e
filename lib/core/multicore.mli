(** The paper's three approach families (Section 3), orchestrated over a
    task set with one task per core.  Every [analyze_*] entry point
    takes an optional [?memo] ({!Memo.t}); when given, per-task analyses
    are served from the shared result cache with mode-appropriate salts
    for the closure-bearing L2 configurations (bypass sets, lock
    selections), and results are bit-identical to the unmemoized path:

    - {!analyze_oblivious}: single-core analysis that *ignores* resource
      sharing — the unsafe baseline Section 2.2 warns about; experiment T2
      shows simulated executions exceeding these "bounds".
    - {!analyze_joint}: joint analysis of the shared L2 (Section 4.1):
      every co-runner's cache footprint ages this task's lines; optional
      single-usage bypass (Hardy et al.) and an overlap predicate for
      task-lifetime refinement (Li et al., computed by {!Response_time}).
      The shared bus is bounded by the system's (analysable) arbiter.
    - {!analyze_partitioned}: statically-controlled sharing / isolation
      (Sections 4.2, 5.3): each core gets a private L2 slice
      (columnization or bankization) and the arbiter bound; no co-runner
      knowledge needed.
    - {!analyze_locked}: statically locked shared L2 (Suhendra & Mitra):
      contents chosen globally by greedy profit, every access trivially
      classified.

    Every slot is bounded as a thin back end over its task's
    mode-invariant {!Context.t}: the caller's [?ctxs], or, without
    them, contexts the call builds for itself with {!contexts}, one per
    distinct task.  One back end per distinct slot: a slot whose
    context is physically an earlier slot's, on a platform
    {!Platform.equivalent} to that slot's, takes the earlier slot's
    {!Wcet.t} with its own [platform] field instead of running the back
    end again.  The closures a mode puts in a platform (bypass probes,
    lock selections, dynamic-lock functions) are built once per
    distinct context, so equal tasks get equal closures.  An N-core
    group of one task on a symmetric arbiter therefore costs one front
    end and one back end per mode (two for static locking: the
    selection, then the bound); a weighted arbiter, whose waits differ
    per core, or co-runner conflicts that differ per slot keep their
    own.  Results are bit-identical to analyzing every slot on a
    context of its own, the reference the tests check sharing
    against.
    @raise Invalid_argument if [ctxs] has no context for an occupied
    slot. *)

type system = {
  latencies : Pipeline.Latencies.t;
  l1i : Cache.Config.t;
  l1d : Cache.Config.t;
  l2 : Cache.Config.t;
  arbiter : Interconnect.Arbiter.t;
  refresh : Interconnect.Arbiter.refresh_policy;
  tasks : (Isa.Program.t * Dataflow.Annot.t) option array;  (** per core *)
}

val default_system :
  cores:int -> tasks:(Isa.Program.t * Dataflow.Annot.t) option array -> system
(** Round-robin bus, 4-set/2-way L1s (16B lines), 64-set/4-way shared L2,
    burst refresh — a deliberately small hierarchy so workloads exercise
    misses. *)

type contexts = Context.t option array
(** One mode-invariant {!Context.t} per occupied core slot. *)

val contexts : ?facts:Context.facts Lazy.t array -> system -> contexts
(** Build the task set's contexts once, sharing one context between
    slots that run the physically-same (program, annot) pair.  Passing
    the result as [?ctxs] to every [analyze_*] call of a sweep makes the
    whole 8-mode sweep pay one front end per distinct task, where each
    call without them builds its own.  [facts] holds one entry per
    slot, the {!Context.facts} of that slot's task: each context is then
    built over them (forced here) instead of over fresh facts, so a
    caller that also analyzes the task under other L1 geometries pays
    its program facts once.  Not domain-safe: build one per worker
    domain.
    @raise Invalid_argument if a slot's facts were built for another
    program. *)

val analyze_oblivious :
  ?memo:Memo.t ->
  ?ctxs:contexts ->
  ?refine:Refine.config ->
  system ->
  Wcet.t option array
(** Every [analyze_*] entry point also takes [?refine]: per-task
    infeasible-path refinement ({!Wcet.analyze} with [?refine]), with
    the budget appended to the memo salt ({!Refine.salt}) so refined and
    unrefined results never share a cache entry.  Shared contexts carry
    the candidate cuts, so an 8-mode refining sweep computes them once
    per distinct task. *)

val analyze_joint :
  ?memo:Memo.t ->
  ?ctxs:contexts ->
  ?refine:Refine.config ->
  system ->
  ?bypass:bool ->
  ?overlaps:(int -> int -> bool) ->
  unit ->
  Wcet.t option array
(** Two phases.  Phase 1 finds each task's L2 footprint (and whether it
    touches unknown lines) under zero conflicts; phase 2 analyzes each
    task on a shared L2 whose conflict counts are the combined
    footprints of the co-runners it overlaps.  Phase 1 reads the
    footprint off the context's multilevel fixpoints
    ({!Context.multilevel}), under the bypass key phase 2 finds them by,
    and runs no back end.

    [overlaps i j] (default: always) — whether the tasks of cores [i] and
    [j] can execute concurrently; non-overlapping tasks do not conflict. *)

val bypass_lines :
  ?ctx:Context.t -> system -> Isa.Program.t * Dataflow.Annot.t -> int list
(** The single-usage L2 lines of a task (the compiler-directed bypass set
    of Hardy et al.), exposed so validation runs can configure the
    simulator's bypass the same way the joint analysis assumed it.  The
    task's flow facts come from [ctx], or without it from a context
    built here on the system's L1 geometry. *)

val analyze_partitioned :
  ?memo:Memo.t ->
  ?ctxs:contexts ->
  ?refine:Refine.config ->
  system ->
  scheme:Cache.Partition.scheme ->
  Wcet.t option array

val static_lock_selection :
  ?memo:Memo.t -> ?ctxs:contexts -> system -> Cache.Locking.selection
(** The global greedy selection {!analyze_locked} locks (profits from
    the oblivious analyses' block counts), exposed so validation runs
    can preload the simulator's L2 with exactly the lines the analysis
    assumed. *)

val analyze_locked :
  ?memo:Memo.t ->
  ?ctxs:contexts ->
  ?refine:Refine.config ->
  system ->
  Wcet.t option array
(** Static locking: one global selection for the whole run
    ({!static_lock_selection}).  The selection heuristic itself stays
    unrefined under [?refine], so refined and unrefined sweeps lock the
    same lines. *)

val analyze_locked_dynamic :
  ?memo:Memo.t ->
  ?ctxs:contexts ->
  ?refine:Refine.config ->
  system ->
  Wcet.t option array
(** Dynamic locking (Suhendra & Mitra): per-task, per-outermost-loop
    selections with a reload cost charged on region entry.  A task uses
    the whole locked capacity while its region runs, so hot loops can own
    the cache — the reason dynamic locking beats static in their study.
    Analysis-level comparison only (the simulator does not reprogram lock
    bits at run time). *)

val wcets : Wcet.t option array -> int option array

val machine_config :
  system -> l2:Sim.Machine.l2_config -> Sim.Machine.config
(** The concrete machine matching the system, for validation runs. *)
