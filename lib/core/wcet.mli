(** Single-task static WCET analysis: the full pipeline of Section 2.1 of
    the paper — CFG reconstruction, value & loop-bound analysis, cache
    analyses (L1, and the platform's L2 view), per-block worst-case costs
    with arbiter bounds, and IPET path analysis — composed bottom-up over
    the call graph (recursion rejected).

    The task's root procedure starts with cold caches (platform contract);
    callees are analyzed with unknown cache entry states and their WCETs
    are folded into the cost of the calling block.  [Persistent] accesses
    are charged as hits per execution plus one worst-case miss per
    procedure execution. *)

type proc_result = {
  name : string;
  wcet : int;  (** includes callee WCETs and persistence penalties *)
  ipet : Ipet.result;
  loop_bounds : Dataflow.Loop_bounds.bound list;
  block_costs : int array;
  ps_penalty : int;
  attrib : Pipeline.Cost.Vec.t array;
      (** per-block *own* cost vector: the block's per-execution cost
          decomposed over the five attribution categories, excluding
          callee WCETs (which [wcet_vec] folds in and the attribution
          layer redistributes to the callee's own blocks).
          [Vec.total attrib.(b) + callee wcet = block_costs.(b)]
          bit-exactly. *)
  overhead_vec : Pipeline.Cost.Vec.t;
      (** one-time costs per procedure execution (persistence first-miss
          penalties, method-cache loads); its total is
          [ps_penalty + mc_penalty]. *)
  wcet_vec : Pipeline.Cost.Vec.t;
      (** full category decomposition of [wcet]:
          [Vec.total wcet_vec = wcet] bit-exactly.  In shared-L2 mode the
          cost delta caused by co-runner conflict demotions is charged to
          the [Bus] category. *)
  refine : Ipet.refine_stats option;
      (** the CEGAR session behind this procedure's bound; [None] when
          the analysis ran without [?refine] *)
}

type t = {
  program : Isa.Program.t;
  callgraph : Cfg.Callgraph.t;  (** the context's ({!Context.callgraph}) *)
  platform : Platform.t;
  procs : (string * proc_result) list;  (** bottom-up order *)
  wcet : int;  (** the root procedure's WCET (refined when [?refine]) *)
  unrefined_wcet : int option;
      (** under [?refine], the root WCET of a parallel cut-free pipeline
          (callee fold-in included), so [wcet <= unrefined_wcet] always —
          the tightening the refinement bought.  [None] otherwise. *)
  multilevels : (string * Cache.Multilevel.t) list;
      (** per procedure, when the platform has an L2: the task's L2-level
          behaviour — footprints for shared-cache composition *)
}

exception Not_analysable of string
(** Irreducible loops, recursion, unboundable loops without annotations,
    or a non-analysable arbiter.  Implemented as a rebinding of
    {!Context.Not_analysable}: front-end failures raised while building
    a context are the same exception. *)

val analyze_with :
  ?bypass_key:string ->
  ?refine:Refine.config ->
  ctx:Context.t ->
  Platform.t ->
  t
(** The thin per-mode back end: consumes a prebuilt mode-invariant
    {!Context.t} and computes only what depends on the platform's L2
    mode and arbiter — the L2 view, per-block cost vectors, and the IPET
    re-solve through the context's prepared constraint system
    ({!Ipet.solve_prepared}), so every mode after the first skips the
    front end and the simplex phase-1 work.  Results are bit-identical
    to {!analyze} over the same program and platform.

    [bypass_key] follows the {!Memo} salt discipline for shared-L2
    platforms whose [bypass] closure is not constant-false: it keys the
    context's multilevel-fixpoint memo (see {!Context.multilevel}); omit
    it to compute that fixpoint fresh.

    @raise Invalid_argument when the platform's L1/method-cache geometry
    differs from the context's ({!Context.check_compatible}).
    @raise Not_analysable as {!analyze}. *)

val analyze :
  ?annot:Dataflow.Annot.t ->
  ?refine:Refine.config ->
  Platform.t ->
  Isa.Program.t ->
  t
(** @raise Not_analysable with a human-readable reason.

    [refine] turns on infeasible-path refinement: each procedure's IPET
    solve becomes the CEGAR session of {!Ipet.refine_prepared} over the
    context's shared {!Refine.candidates}, and a parallel cut-free
    pipeline fills [unrefined_wcet].  Off (the default) the analysis is
    bit-identical to previous releases.

    Each phase runs inside an {!Obs.span} of [cat:"phase"]: [cfg-build],
    [cfg-loops], [value-analysis] and [loop-bounds] while the context's
    facts are built, [cache-analysis] for the L1 and L2 fixpoints, then
    [block-costs] and [ipet-solve].  {!Obs.Summary} folds them per name.
    Without a sink installed they cost one atomic load each.

    Every procedure's IPET system is solved by the one LP stack of
    {!Lp.Ilp} over the context's prepared tableau; [Ipet.model] exposes
    the solved model so a test or benchmark can check the optimum with a
    differential solver. *)

val footprint : t -> Cache.Shared.conflicts option
(** Combined L2 footprint of the whole task (None without L2). *)

val proc_wcet : t -> string -> int
(** @raise Not_found for unknown procedures. *)
