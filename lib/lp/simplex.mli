(** Two-phase primal simplex over exact rationals, sparse rows.

    Solves [maximize c.x  s.t.  A.x rel b,  x >= 0] built with {!Model}.
    Rows are stored sparsely (IPET tableaus have a handful of nonzeros per
    row), pricing is Dantzig's largest-coefficient rule with a fallback to
    Bland's anti-cycling rule after a run of degenerate pivots, and a
    crash basis seeds equality rows with their singleton unit columns so
    phase 1 has little left to do.  Exact {!Q} arithmetic makes the result
    free of floating-point artifacts, which matters because IPET WCET
    bounds must be safe, not approximately safe. *)

type outcome =
  | Optimal of Q.t * Q.t array
      (** Objective value and one optimal assignment, indexed by the
          variable's creation order in the model.  The objective value is
          the unique LP optimum; the vertex reached may differ from other
          pivot rules' when optima are not unique. *)
  | Unbounded
  | Infeasible

val solve : Model.t -> outcome
(** [solve m] is [fst (solve_prepared (prepare m ~extra:[]) m)]: a
    one-off solve runs the same code as every replay. *)

val pivots : unit -> int
(** Monotone count of simplex pivots performed *by the calling domain*
    since it started (primal and dual pivots alike).  Read before and
    after a solve and subtract to charge the difference; per-domain
    storage keeps parallel analyses from racing.  Under an {!Obs} sink
    every entry point below that pivots adds its delta to the
    [lp.simplex.pivots] counter; the ledger and bench/perf.ml read this
    counter directly. *)

(** {1 Warm starts}

    Branch-and-bound re-solves near-identical LPs: each child differs from
    its parent by one variable bound.  Instead of rebuilding and re-solving
    from scratch, a solved {!state} can be extended with one row and
    re-optimized by dual simplex, reusing every pivot the parent paid
    for. *)

type state
(** A solved tableau at a primal/dual-optimal basis, plus the objective.
    Immutable from the caller's perspective: {!branch} and {!add_cutoff}
    copy before mutating. *)

(** {1 Prepared solves}

    Every solve is a prepare followed by a replay.  Multi-mode analyses
    re-solve the {e same} constraint system under different objective
    coefficients (the flow structure of an IPET model is mode-invariant;
    only block costs change).  Everything up to the phase-2 objective row
    — normalization, the sparse tableau, the triangular crash basis,
    phase-1 cleanup — depends only on the constraints, so it is paid once
    and replayed per objective. *)

type prepared
(** A snapshot of the tableau after the objective-independent prefix
    (post crash basis and phase 1), reusable across any number of
    objectives over the same constraints. *)

val prepare :
  Model.t -> extra:(Model.linexpr * Model.relation * Q.t) list -> prepared
(** Build the snapshot from the model's constraints plus [extra] rows
    (for example refinement cuts); the model's current objective is
    ignored.  If phase 1 already proves the constraints infeasible, the
    snapshot remembers that and every {!solve_prepared} returns
    [Infeasible] without further work. *)

val solve_prepared : prepared -> Model.t -> outcome * state option
(** [solve_prepared p model] solves [model]'s {e current} objective over
    the snapshot's constraints ([model] must be the one [prepare] was
    given, possibly after {!Model.set_objective}), returning the solved
    state when the outcome is [Optimal] (and [None] otherwise).  Every
    replay starts from the same basis and prices with the same
    deterministic rules, so the pivot trajectory — and therefore the
    optimal vertex, objective, and returned state — is a function of the
    constraints and the objective alone. *)

val branch :
  state -> var:Model.var -> bound:[ `Le of int | `Ge of int ] -> outcome * state option
(** [branch s ~var ~bound] appends the bound to a copy of [s] and
    restores optimality with dual simplex.  Starting from a dual-feasible
    basis the result is never [Unbounded]: it is [Optimal] (with the new
    state) or [Infeasible] (child pruned). *)

val add_le :
  state -> terms:(Q.t * Model.var) list -> bound:Q.t -> outcome * state option
(** [add_le s ~terms ~bound] appends the cut [terms <= bound] to a copy of
    [s] and restores optimality with dual simplex — the general-row
    primitive behind {!branch}, exposed so infeasible-path refinement can
    inject conflict cuts (sums of edge-flow variables) without
    re-preparing the system.  From a dual-feasible basis the result is
    [Optimal] (with the extended state, reusable for further cuts) or
    [Infeasible] (the cut empties the region); never [Unbounded]. *)

val add_cutoff : state -> lower:Q.t -> outcome * state option
(** [add_cutoff s ~lower] constrains the objective to [>= lower] (sound
    for branch-and-bound pruning only when the true optimum reaching the
    caller's incumbent test is integral, so [lower = incumbent + 1]
    excludes no improving solution).  [Infeasible] means no point of the
    subproblem can beat the incumbent. *)
