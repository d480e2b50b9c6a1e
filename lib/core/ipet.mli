(** Implicit Path Enumeration Technique (IPET) — the path-analysis stage
    of static WCET analysis (Li & Malik; Section 2.1 of the paper).

    Variables count edge traversals; structural constraints encode flow
    conservation with a virtual entry edge fixed to one execution; each
    natural loop contributes [sum(back edges) <= bound * sum(entry edges)];
    the objective maximizes the sum of block costs weighted by execution
    counts.  Solved exactly with the in-repo rational simplex +
    branch-and-bound, always through a prepared constraint system
    ({!prepare}, {!solve_prepared}). *)

type result = {
  wcet : int;
  block_counts : int array;  (** worst-case execution count per block *)
}
(** The solver is exact over rationals and the objective is linear in the
    block counts, so [wcet = sum over blocks of block_cost * count]
    bit-exactly — the invariant the attribution layer ({!Wcet.proc_result}
    vectors, [Attrib]) redistributes per category without rounding. *)

exception Flow_infeasible of string

val solve :
  Cfg.Graph.t ->
  loop_bounds:Dataflow.Loop_bounds.bound list ->
  block_cost:(Cfg.Block.id -> int) ->
  ?mutually_exclusive:(Cfg.Block.id * Cfg.Block.id) list ->
  ?direction:[ `Maximize | `Minimize ] ->
  unit ->
  result
(** [solve] is {!prepare} (over the graph's freshly computed loop forest)
    followed by one {!solve_prepared}.

    [mutually_exclusive (a, b)] adds [x_a + x_b <= 1] and is only accepted
    for blocks outside all loops (operating-mode exclusions).

    [`Maximize] (default) computes the WCET path using the loops'
    [max_back_edges]; [`Minimize] computes the BCET path, constraining
    each loop's back edges from below by [min_back_edges] — the other
    half of Li et al.'s iterative WCET/BCET framework.
    @raise Flow_infeasible if the constraint system has no solution (a
    contradictory annotation).
    @raise Invalid_argument for a mutually-exclusive pair inside a loop. *)

(** {1 Prepared path}

    Across approach modes only block costs change: the flow structure,
    loop bounds, and exclusivity rows are mode-invariant.  [prepare]
    builds the constraint system and its solved-tableau prefix once;
    each [solve_prepared] re-solves with fresh costs, reusing the
    snapshot via {!Lp.Simplex.solve_prepared}.  Results are bit-identical
    to {!solve} over the same inputs — same optimum, same
    [block_counts] — because every replay follows the same pivot
    trajectory. *)

type prepared

val prepare :
  Cfg.Graph.t ->
  loops:Cfg.Loops.t ->
  loop_bounds:Dataflow.Loop_bounds.bound list ->
  ?mutually_exclusive:(Cfg.Block.id * Cfg.Block.id) list ->
  ?direction:[ `Maximize | `Minimize ] ->
  unit ->
  prepared
(** [loops] must be the loop forest of the graph (callers holding a
    precomputed {!Cfg.Loops.t} avoid the dominator/loop recompute that
    {!solve} performs internally).  The snapshot is per-direction: the
    best-case system carries extra lower-bound rows. *)

val solve_prepared : prepared -> block_cost:(Cfg.Block.id -> int) -> result
(** Same contract and exceptions as {!solve}. *)

val model : prepared -> block_cost:(Cfg.Block.id -> int) -> Lp.Model.t
(** The prepared system's model with [block_cost]'s objective installed,
    negated for the minimizing direction (the solver maximizes), so its
    optimum is [wcet] of {!solve_prepared}, or [-wcet] when minimizing.
    This is the model every solve of [prepared] runs; an oracle solver
    checks the production optimum against it.  The model is shared: the
    next [model] or solve over [prepared] replaces its objective. *)

(** {1 Infeasible-path refinement}

    CEGAR over the prepared tableau: solve, read the optimal flow back as
    a witness path, test it against semantic conflict cuts
    ({!Refine.candidates}), inject the first violated cut with one
    warm-started dual-simplex run ({!Lp.Simplex.add_le} on the root LP
    state — no phase 1, the prepared snapshot's pivots all reused), and
    re-run branch-and-bound from the extended state.  Repeats until the
    witness satisfies every candidate or a budget is hit.  Each cut only
    removes flows no execution can take, so the refined bound is still a
    sound WCET and never exceeds the unrefined one. *)

type refine_iteration = {
  ri_wcet : int;  (** bound after this iteration's re-solve *)
  ri_cut : Refine.cut;  (** the cut this iteration injected *)
  ri_warm_pivots : int;
      (** simplex pivots of the warm path: [add_le] + branch and bound *)
}

type refine_stats = {
  rf_initial : int;  (** the unrefined (iteration-0) optimum *)
  rf_iterations : refine_iteration list;  (** in injection order *)
  rf_exhausted : bool;
      (** a violated candidate remained when the budget ran out *)
}

val refine_cuts_applied : refine_stats -> int

val cut_row :
  prepared -> Refine.cut -> Lp.Model.linexpr * Lp.Model.relation * Lp.Q.t
(** The cut as the model row {!refine_prepared} injects: the cut's
    edge flows summed [<=] its bound.  {!Lp.Simplex.prepare} of
    {!model} (with the block costs the refinement used) and the rows of
    iterations [1..i] as [~extra] gives iteration [i]'s cut system from
    scratch; its optimum is that iteration's [ri_wcet]. *)

val refine_prepared :
  prepared ->
  block_cost:(Cfg.Block.id -> int) ->
  candidates:Refine.cut list ->
  config:Refine.config ->
  result * refine_stats
(** Iteration 0 replays the snapshot exactly as {!solve_prepared}, so
    [rf_initial] is bit-identical to the unrefined solve.  Candidates are
    tested in list order and the first violated one is injected, which
    together with the solver's deterministic pricing makes the refined
    result a function of the inputs alone (any worker count, any
    sharing).  The minimizing direction returns the plain solve with
    empty stats: cuts tighten a maximum but would raise a minimum.

    Emits one [cat:"refine"] span and a cut counter per iteration when
    tracing is on.
    @raise Flow_infeasible as {!solve_prepared} (on the {e unrefined}
    system; a cut that empties the region stops refinement and keeps the
    last sound bound instead). *)
