(** Differential soundness oracle: static bounds vs. simulated cycles.

    For every generated program the oracle asserts the execution-time
    sandwich [BCET <= observed <= WCET] of the repo's platform contract:
    the observed side comes from {!Sim.Machine} (the concrete machine),
    the bound sides from {!Core.Wcet}/{!Core.Bcet}/{!Core.Multicore}
    (the analyses), configured to describe *the same* machine.

    Modes and what each validates:
    - [Solo]: five single-core platform shapes (no L2, private L2, tiny
      L1s, distributed DRAM refresh, method cache), full sandwich per
      shape.
    - [Oblivious]: the interference-oblivious baseline.  Its bound is
      only claimed for a task owning the machine, so it is validated
      against a *solo* run — under contention it can be exceeded (that
      is experiment T2's point, not a soundness bug).
    - [Joint]/[Bypass]: joint shared-L2 analysis (without/with
      single-usage bypass) vs. a contended run of the whole task group
      on the shared-L2 machine, co-runner interference included.
    - [Columnized]/[Bankized]: partitioned L2 slices vs. a contended run
      on the sliced machine.
    - [Locked]: statically locked shared L2; the simulator's L2 is
      preloaded with the same global selection the analysis chose.
    - [Dynamic]: dynamic locking is analysis-level only (the machine
      does not reprogram lock bits at run time), so its bound is checked
      analytically against the task's BCET, never against a run.

    BCET is computed once per task on the interference-free private
    platform: it lower-bounds every execution on every mode, contended
    ones included. *)

(** {!Core.Mode.t}, re-exported for [bench/ledger] until its benchmark
    follow-up names modes through {!Core.Mode}. *)
type mode = Core.Mode.t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

val all_modes : mode list
(** {!Core.Mode.all}, kept for [bench/ledger] until the same follow-up. *)

val mode_name : mode -> string
(** {!Core.Mode.name}, kept for [bench/ledger] until the same follow-up. *)

type interp = [ `Block | `Reference | `Both ]
(** Which simulator interpreter the observed side runs on.  [`Both]
    runs the block interpreter *and* the per-instruction reference,
    cross-checks every field the block interpreter guarantees bit-exact
    (all of them on a halted run), reports any mismatch as an
    ["interpreter divergence: ..."] violation, and uses the reference
    result for the sandwich. *)

type engine = [ `Context | `Fresh ]
(** Which analysis engine computes the bound side.  [`Context] (the
    default) builds one mode-invariant {!Core.Context.t} per task and
    shares it across every mode's back end and the BCET side —
    the campaign's dominant cost becomes one front end per task.
    [`Fresh] re-runs the full front-to-back analysis per mode (the
    pre-context path, kept selectable as the differential oracle);
    both engines produce bit-identical reports. *)

type check = {
  mode : mode;
  shape : string;  (** platform/sub-configuration label *)
  task : string;
  core : int;
  bcet : int;
  wcet : int;  (** refined when the campaign ran with [?refine] *)
  unrefined : int option;
      (** the cut-free bound under [?refine] ([Wcet.unrefined_wcet]);
          [None] otherwise.  The sandwich always checks the {e refined}
          bound, so a campaign with [?refine] is also its soundness
          oracle: observed > refined WCET is a violation. *)
  observed : int option;  (** [None] for analytic-only checks *)
  a_vec : Pipeline.Cost.Vec.t;
      (** category decomposition of [wcet] (the root procedure's
          [wcet_vec]; zero when the analysis failed) *)
  o_vec : Pipeline.Cost.Vec.t option;
      (** the simulated core's observed attribution, when a run exists *)
}

type violation = {
  v_mode : mode;
  v_shape : string;
  v_task : string;
  v_core : int;
  reason : string;
  source : string;  (** assembly text of the offending program *)
}

type report = {
  checks : check list;
  violations : violation list;
  errors : string list;  (** infrastructure failures (pool job died) *)
}

val check_solo :
  ?memo:Core.Memo.t ->
  ?checkpoint:(unit -> unit) ->
  ?interp:interp ->
  ?engine:engine ->
  ?refine:Refine.config ->
  ?facts:Core.Context.facts Lazy.t ->
  Generator.t ->
  report
(** The five [Solo] shapes for one program.  Under the [`Context]
    engine the shapes share one context per L1 geometry (three for the
    five shapes), all built over one {!Core.Context.facts} value:
    [facts] when given (it must be the program's), else the check's
    own.  It is forced inside each shape's guard, so a front end that
    fails is a violation of each shape.  [checkpoint] is called between
    shapes (pass {!Engine.Pool.check} for cooperative timeouts).
    [refine] turns on infeasible-path refinement on the WCET side
    (salted memo entries, see {!Core.Multicore}); the sandwich then
    validates the refined bound against the simulator. *)

val check_group :
  ?memo:Core.Memo.t ->
  ?checkpoint:(unit -> unit) ->
  ?interp:interp ->
  ?engine:engine ->
  ?refine:Refine.config ->
  ?facts:Core.Context.facts Lazy.t array ->
  modes:mode list ->
  Generator.t array ->
  report
(** One task group (one task per core, 1..4 cores) through every
    requested contended mode ([Solo] entries are ignored here).
    [Columnized] needs at most as many cores as the L2 has ways (4).
    Under the [`Context] engine, [facts] (one entry per task, as for
    {!Core.Multicore.contexts}) lets the group's contexts share the
    program facts a {!check_solo} of the same task already forced. *)

type mode_stats = {
  s_mode : mode;
  s_checks : int;
  s_violations : int;
  s_min_ratio : float;  (** min over checks of WCET / observed *)
  s_mean_ratio : float;
  s_max_ratio : float;
  s_gap : Pipeline.Cost.Vec.t;
      (** summed per-category pessimism [a_vec - o_vec] over the mode's
          simulated checks *)
  s_dominant_gap : Pipeline.Cost.category option;
      (** [Vec.dominant s_gap]; [None] for analytic-only modes *)
  s_mean_reduction : float option;
      (** mean of [(unrefined - wcet) / unrefined] over the mode's
          checks; [None] unless the campaign ran with [?refine] *)
}

type campaign = {
  seed : int;
  count : int;
  cores : int;
  modes : mode list;
  report : report;
  stats : mode_stats list;
  memo_stats : Engine.Lru.stats option;
}

val run_campaign :
  ?params:Generator.params ->
  ?modes:mode list ->
  ?cores:int ->
  ?workers:int ->
  ?memo:Core.Memo.t ->
  ?timeout_ns:int64 ->
  ?interp:interp ->
  ?engine:engine ->
  ?refine:Refine.config ->
  seed:int ->
  count:int ->
  unit ->
  campaign
(** Generates programs [0..count-1] of [seed], groups them into task
    sets of [cores] (default 4; the last group wraps around to fill its
    cores), and fans one {!Engine.Pool} job per group over [workers]
    domains.  Each job builds one lazy {!Core.Context.facts} per task
    slot and passes it to the task's {!check_solo} and to
    {!check_group}, so a task's solo and group contexts share one
    front end.  Results are deterministic at any worker count.
    @raise Invalid_argument if [count <= 0] or [cores] outside 1..4. *)

val csv_header : string
(** [mode,shape,task,core,bcet,observed,wcet,ratio,dominant_gap,unrefined]
    — exposed separately so the CLI can emit (and flush) it before the
    campaign runs: a killed run leaves a parseable CSV. *)

val csv_rows : report -> string
(** One row per check; [dominant_gap] names the category dominating
    [a_vec - o_vec] (empty for analytic-only checks). *)

val csv_of_report : report -> string
(** [csv_header ^ csv_rows]. *)
