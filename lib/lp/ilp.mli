(** Integer linear programming by branch and bound on the exact simplex.

    All model variables are required to take integer values.  IPET
    relaxations are usually integral already (flow-conservation
    constraints form a network-like matrix), so branching is rare; it
    exists to stay correct for the few models where capacity constraints
    break integrality.

    Each branch-and-bound child warm-starts from its parent's solved
    basis ({!Simplex.branch}) rather than re-solving from scratch, and
    once an incumbent exists an objective cutoff row lets the dual
    simplex prune non-improving subtrees outright (sound because the
    objective of any integral solution to an integral-coefficient
    objective is an integer). *)

type outcome =
  | Optimal of Q.t * int array
      (** Objective value (always an integer for integral models, kept as
          {!Q.t} for uniformity) and an optimal integer assignment.  The
          objective value is the unique ILP optimum; when several integer
          assignments attain it, which one is reported depends on the
          search order. *)
  | Unbounded
      (** The root relaxation is unbounded.  Unboundedness can only occur
          at the root: every child's feasible region is contained in its
          parent's, so an optimal parent never has an unbounded child —
          no branch is explored after an unbounded outcome. *)
  | Infeasible

type result = { outcome : outcome; nodes : int  (** search-tree nodes explored *) }

val solve_result_prepared : Simplex.prepared -> Model.t -> result
(** Branch and bound whose root relaxation replays a {!Simplex.prepared}
    constraint snapshot, so re-solves under new objectives skip the
    objective-independent tableau work.  [model] must be the model the
    snapshot was prepared from, with its objective re-set per solve.
    The branch-and-bound tree is bounded to 100,000 nodes.
    @raise Failure if the node budget is exhausted, since a truncated search
    could silently under-approximate a WCET bound. *)

val solve_result : Model.t -> result
(** [solve_result m] is
    [solve_result_prepared (Simplex.prepare m ~extra:[]) m]: the same
    tree, optimum and node count as any replay of [m]. *)

val solve : Model.t -> outcome
(** [solve m] is [(solve_result m).outcome]. *)

val solve_result_state :
  Model.t -> Simplex.outcome * Simplex.state option -> result
(** Branch and bound from an explicitly solved root relaxation — e.g. a
    {!Simplex.solve_prepared} replay extended with {!Simplex.add_le}
    conflict cuts.  The root must be optimal for [model]'s current
    objective over [model]'s constraints plus whatever rows were added to
    the state; the search then only ever appends further rows, so the cut
    rows constrain every node exactly as if they were model
    constraints. *)

val nodes_explored : unit -> int
(** Monotone count of branch-and-bound nodes explored by the calling
    domain, same read-before/read-after contract as {!Simplex.pivots}.
    Under an {!Obs} sink each solve adds its nodes to the [lp.ilp.nodes]
    counter; the ledger and bench/perf.ml read this counter directly. *)
