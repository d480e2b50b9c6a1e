(** Multi-level cache analysis: composes an L1 analysis with an L2
    analysis through cache access classifications (CAC), following Hardy &
    Puaut's approach referenced in Section 4.1 of the paper.  The L2
    analysis is the L1 engine, {!Analysis.level}, run over the accesses
    that may miss L1 with CAC- and bypass-aware steps; each access keeps
    its L2 must ages, and a [Persistent] one its persistence ages.

    An access reaches L2 only when it misses L1:
    - L1 [Always_hit] -> [Never] accesses L2;
    - L1 [Always_miss] -> [Always] accesses L2;
    - L1 [Persistent]/[Not_classified] -> [Uncertain]: the L2 abstract
      state joins the updated and non-updated states.

    Optionally, *single-usage* lines bypass L2 entirely (the
    compiler-directed scheme of Hardy et al. that shrinks a task's shared
    footprint): bypassed accesses never update the L2 state and are
    [Always_miss] at L2. *)

type cac = Always | Never | Uncertain

type access_info = {
  instr : int;
  kind : Analysis.kind;
  target : Analysis.target;  (** in L2 line geometry *)
  cac : cac;
  l2_class : Analysis.classification;
  must_ages : (int * int option) list;
      (** per candidate line: its L2 must-age at the access, if tracked *)
  pers_ages : (int * int option) list;
      (** [] unless the access is [Persistent]; then per candidate line
          its L2 persistence age at the access, which
          {!Shared.interfere} ages by the co-runners' conflicts *)
}

type t

val analyze :
  Config.t ->
  Cfg.Graph.t ->
  entry:Analysis.entry_state ->
  cac_of:(Analysis.access -> cac) ->
  l2_accesses:(Cfg.Block.id -> Analysis.access list) ->
  ?bypass:(int -> bool) ->
  unit ->
  t
(** [l2_accesses] enumerates, per block and in program order, every access
    that may reach L2 — typically the interleaved instruction fetches and
    data accesses, with targets in L2 geometry.  [cac_of] assigns each of
    them its cache access classification, usually from the L1 analyses via
    {!cac_of_l1_analysis}. *)

val cac_of_l1_analysis : Analysis.t -> Analysis.access -> cac
(** Derive the CAC from the matching L1 analysis: AH -> Never, AM ->
    Always, PS/NC -> Uncertain; accesses unknown to the L1 analysis are
    assumed to always reach L2. *)

val config : t -> Config.t

val classification :
  t -> ?kind:Analysis.kind -> int -> Analysis.classification
(** L2 classification for the access at an instruction index (default kind
    [Fetch]).  [Never] accesses answer [Always_hit] (they are satisfied by
    L1; the pipeline model charges them nothing at L2).
    @raise Not_found if the instruction has no such access. *)

val cac : t -> ?kind:Analysis.kind -> int -> cac
(** @raise Not_found if the instruction has no such access. *)

val access_infos : t -> access_info list
(** All accesses in instruction order. *)

val footprint : t -> int array
(** Per L2 set: number of distinct lines this task may bring into the set
    (CAC [Always] or [Uncertain], bypassed lines excluded).  This is the
    interference a co-runner must assume (Section 4.1). *)

val uses_unknown_target : t -> bool
(** True when some L2-reaching access has a statically unknown address, in
    which case the footprint alone does not bound the task's interference
    and a co-runner must assume whole-cache conflicts. *)

val single_usage_lines :
  Cfg.Graph.t ->
  Cfg.Loops.t ->
  l2_accesses:(Cfg.Block.id -> Analysis.access list) ->
  int list
(** Lines referenced by exactly one access point that sits outside every
    loop: they can be fetched at most once per procedure execution, so
    caching them in L2 buys nothing — prime bypass candidates. *)
