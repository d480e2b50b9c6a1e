(** Per-approach-mode analysis wiring for the service.

    The serve protocol names the eight approach modes of {!Core.Mode};
    this module maps a (mode, cores, kind, task) request to a distilled
    {!Store.Entry.t} and to the store key that caches it.

    Co-runner convention: the contended modes analyze a task *group*
    with the requested program on every core (the same convention
    [paratime attribute] uses); the served bound is core 0's.

    Key discipline: the key covers everything the bound depends on —
    kind x mode x core count x a fingerprint of the system configuration
    x annotation fingerprint x program fingerprint.  [Solo] requests key
    through {!Core.Memo.key} on the actual (pure) platform; the
    multicore modes fingerprint {!Core.Multicore.default_system}'s
    concrete parameters plus the mode name, which pins the per-core
    platforms *and* the mode-derived closures (lock selections, bypass
    sets) because those are deterministic functions of the system and
    task group.  Nothing closure-bearing is ever persisted behind an
    under-descriptive key — the salt discipline of {!Core.Memo}, carried
    over. *)

type kind = Wcet | Bcet

val kind_name : kind -> string
val kind_of_string : string -> (kind, string) result

val store_key :
  ?refine:Refine.config ->
  mode:Core.Mode.t ->
  cores:int ->
  kind:kind ->
  Dataflow.Annot.t ->
  Isa.Program.t ->
  string
(** [refine] salts the key ({!Refine.salt}) so refined and unrefined
    bounds never share a store entry — on both the {!Core.Memo.key}
    (solo) and fingerprint (multicore) paths. *)

(** {1 Context packs}

    A request's mode-invariant front end: the task group's
    {!Core.Multicore.contexts} for the contended modes plus one solo
    context (the solo platform's L1 geometry differs from the system's,
    so the two cannot be shared).  Every entry point below analyzes from
    one pack, built lazily: a single mode builds one front end, a whole
    sweep two, and a request that fails before any analysis none. *)

type pack

val pack : cores:int -> Isa.Program.t * Dataflow.Annot.t -> pack
(** The pack of a (cores, task) request; nothing is built until a mode
    needs it.  Not domain-safe: use a pack on one domain. *)

val system : pack -> Core.Multicore.system
(** The request's task group: the requested program on every core. *)

val contexts : pack -> Core.Multicore.contexts
(** The contended modes' contexts (built on first use), for callers that
    pair an analysis with other work taking [?ctxs], such as
    {!Core.Mode.runs}.
    @raise Core.Wcet.Not_analysable when the front end rejects the
    task. *)

val analyze_mode :
  ?refine:Refine.config ->
  mode:Core.Mode.t ->
  kind:kind ->
  pack ->
  (Store.Entry.t, string) result
(** One mode of the pack's request, for callers that keep the pack for
    more work on the same task (as [paratime attribute] does).  Errors
    as {!analyze}. *)

val analyze :
  ?refine:Refine.config ->
  mode:Core.Mode.t ->
  cores:int ->
  kind:kind ->
  Isa.Program.t * Dataflow.Annot.t ->
  (Store.Entry.t, string) result
(** [Error] for: BCET under a contended mode (only [Solo] has a defined
    best case here), a task set the analysis rejects
    ({!Core.Wcet.Not_analysable}), or a mode yielding no core-0 result.
    {!analyze_mode} on a fresh pack; bit-identical to
    {!Core.Wcet.analyze} for [Solo] and to the mode's
    [Core.Multicore.analyze_*] call building its own contexts
    otherwise.  Runs on the calling domain —
    the server submits it to {!Engine.Service}. *)

val analyze_all :
  ?modes:Core.Mode.t list ->
  ?refine:Refine.config ->
  cores:int ->
  kind:kind ->
  Isa.Program.t * Dataflow.Annot.t ->
  (Core.Mode.t * (Store.Entry.t, string) result) list
(** The multi-mode op behind [mode:"all"]: one entry per requested mode
    (default: all eight, in {!Core.Mode.all} order), all from one
    pack.  Each mode's result is bit-identical to the corresponding
    single-mode {!analyze} call; per-mode failures surface as that
    mode's [Error] without aborting the rest. *)
