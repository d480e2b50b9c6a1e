(** Mode-invariant analysis context, in two layers.

    The survey's approach families differ only below the L1: in how the
    shared L2 and the bus are partitioned, locked, bypassed or
    arbitrated.  So each program is bounded under many configurations
    whose front ends largely coincide, and the context splits that
    front end by what it depends on:

    - {!facts}, built once per (program, annotations): the callgraph in
      bottom-up order and the call clobbers; per procedure the CFG,
      dominators, loops, interval value analysis (in both the
      interprocedurally-refined and plain flavors), loop bounds,
      mutually exclusive block pairs and entry kind; and, on demand, the
      prepared objective-free IPET systems ({!Ipet.prepare}) and the
      refinement candidates.  Nothing here reads a cache geometry.
    - {!t}, built per L1 geometry over a facts value: the L1i/L1d ACS
      fixpoints (or the method-cache analysis), the per-procedure L2
      access lists and the multilevel memo.  Its {!proc} records carry
      the geometry-free fields too, physically shared with the facts, so
      consumers read one record.

    Between modes only the L2 view, arbiter costs and IPET objective
    coefficients change, so an 8-mode sweep over one context pays the
    front end once.  The fuzz oracle goes one step further: per pool
    job it builds one facts value per task slot and hands it to the
    task's three solo L1 geometries and to the group's system geometry,
    so a task pays its program facts once instead of four times.
    [Server_lib.Modes.pack] does not share facts between its solo and
    group contexts: the ledger's traced replay of [analyze_all] builds
    the two separately and requires the same per-pass work counts as
    the real sweep.

    Neither layer is domain-safe: lazy fields and memo tables are
    unsynchronized, so facts and contexts are built and used within one
    call or one pool job (the parallel fuzz/batch layers fan out at task
    granularity, so each worker builds its own).  Nothing keyed on
    program identity outlives that scope. *)

exception Not_analysable of string
(** The front end rejected the program (recursive call cycle,
    irreducible loop, missing loop bound...).  {!Wcet.Not_analysable}
    is the same exception (rebound), so existing handlers catch both. *)

type facts
(** The geometry-free program facts of one (program, annotations). *)

type proc = {
  name : string;
  graph : Cfg.Graph.t;
  dom : Cfg.Dominators.t;
  loops : Cfg.Loops.t;
  va : Dataflow.Value_analysis.result;
      (** interprocedurally refined ([call_clobbers]) — the flavor
          {!Wcet.analyze} consumes *)
  va_plain : Dataflow.Value_analysis.result Lazy.t;
      (** the sound default (every register forgotten at calls) — the
          flavor the {!Multicore} bypass/locking helpers consume.  The
          two yield different access-target sets, so both are kept to
          preserve bit-identity of each consumer: over the generated
          programs of seeds 1–40, indices 0–99, reading [va] instead
          gave other L2 access targets for 33 of 4,000 and another
          bypass set for 6 (none of the 19 catalog programs moved).
          Seed 5, index 64 loses line 65,538 from its bypass set; a
          test pins that program.  The two differ only at a [Call], so
          for a procedure whose graph has no call [va_plain] is [va]
          itself. *)
  loop_bounds : Dataflow.Loop_bounds.bound list;
  entry : Cache.Analysis.entry_state;
  l1i : Cache.Analysis.t option;  (** [None] on method-cache platforms *)
  l1d : Cache.Analysis.t;
  mutually_exclusive : (Cfg.Block.id * Cfg.Block.id) list;
  ipet_wcet : Ipet.prepared Lazy.t;
  ipet_bcet : Ipet.prepared Lazy.t;
  refine_candidates : Refine.cut list Lazy.t;
      (** mode-invariant semantic conflict cuts ({!Refine.candidates}
          over [va]), computed once and shared by every refining mode *)
  l2_access_memo :
    (int * int * int, Cfg.Block.id -> Cache.Analysis.access list) Hashtbl.t;
}

type t = {
  facts : facts;  (** possibly shared with contexts of other geometries *)
  program : Isa.Program.t;
  root : string;
  l1i_config : Cache.Config.t;
  l1d_config : Cache.Config.t;
  method_cache : Cache.Method_cache.config option;
  mc_analysis : (Cache.Method_cache.config * Cache.Method_cache.analysis) option;
  procs : (string * proc) list;  (** bottom-up order *)
  multilevel_memo :
    (string * (int * int * int) * string, Cache.Multilevel.t) Hashtbl.t;
}

val facts : ?annot:Dataflow.Annot.t -> Isa.Program.t -> facts
(** Compute the program facts.  Emits one balanced [cat:"ctx"] span
    named ["facts.build"] around the [cfg-build], [cfg-loops],
    [value-analysis] and [loop-bounds] phase spans.  The IPET systems,
    refinement candidates and plain value analysis are computed on first
    use, once for every context built over these facts.
    @raise Not_analysable for a recursive call cycle, an irreducible
    loop or a missing loop bound. *)

val of_facts :
  facts ->
  l1i:Cache.Config.t ->
  l1d:Cache.Config.t ->
  ?method_cache:Cache.Method_cache.config ->
  unit ->
  t
(** The per-geometry context over existing facts: the L1 (or
    method-cache) analyses only.  Emits one balanced [cat:"ctx"] span
    named ["ctx.build"].  Contexts of different geometries built over
    one facts value share its fields physically. *)

val build :
  ?annot:Dataflow.Annot.t ->
  l1i:Cache.Config.t ->
  l1d:Cache.Config.t ->
  ?method_cache:Cache.Method_cache.config ->
  Isa.Program.t ->
  t
(** {!of_facts} over freshly built {!facts}: one ["facts.build"] and
    one ["ctx.build"] span per call, however many modes consume the
    result.
    @raise Not_analysable exactly where {!Wcet.analyze} would. *)

val of_platform : ?annot:Dataflow.Annot.t -> Platform.t -> Isa.Program.t -> t
(** {!build} over the geometry fields of a platform (everything else in
    the platform is mode-specific and ignored). *)

val callgraph : t -> Cfg.Callgraph.t
(** The call graph the facts were built from: every procedure's CFG,
    physically the [graph] of its {!proc}. *)

val proc : t -> string -> proc
(** @raise Invalid_argument on an unknown procedure name. *)

val compatible : t -> Platform.t -> bool
(** Whether the platform's L1/method-cache geometry matches the
    context's (the precondition of {!Wcet.analyze_with}). *)

val check_compatible : t -> Platform.t -> unit
(** @raise Invalid_argument when {!compatible} is false. *)

val combined_l2_accesses :
  include_fetches:bool ->
  Cache.Config.t ->
  Cfg.Graph.t ->
  Dataflow.Value_analysis.result ->
  Cfg.Block.id ->
  Cache.Analysis.access list
(** L2 accesses of a block: instruction fetches interleaved with the
    instruction's data accesses, in program order, targets in L2
    geometry.  Data accesses are indexed by instruction once — O(f + d)
    per block rather than the quadratic per-fetch filter. *)

val l2_accesses :
  t -> proc -> Cache.Config.t -> Cfg.Block.id -> Cache.Analysis.access list
(** The procedure's combined L2 access lists in the given L2 geometry,
    memoized per geometry and per block. *)

val multilevel :
  t ->
  proc ->
  config:Cache.Config.t ->
  ?bypass_key:string ->
  ?bypass:(int -> bool) ->
  unit ->
  Cache.Multilevel.t
(** The L2 multilevel fixpoint for a procedure under a geometry and a
    bypass predicate.  Memoized per (procedure, geometry, [bypass_key]);
    [bypass_key] follows the {!Memo} salt discipline — it must encode
    the [bypass] closure's semantics, and with no key the fixpoint is
    computed fresh and never shared.  Modes that differ only in how the
    fixpoint's result is post-processed (private, shared-with-conflicts,
    locked) share one entry. *)
