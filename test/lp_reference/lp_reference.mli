(** The pre-sparse solver stack, kept as a differential oracle.

    Dense tableau, pure Bland pricing, cold-start branch and bound — the
    exact algorithms {!Lp.Simplex} and {!Lp.Ilp} replaced.  The tests
    assert outcome equality against this module on random models and on
    the IPET systems of the benchmark catalog, and [bench/perf.ml]
    measures its pivot counts as the baseline the sparse/warm-started
    stack must beat.  No library under [lib/] links it. *)

open Lp

type outcome =
  | Optimal of Q.t * Q.t array
  | Unbounded
  | Infeasible

val solve_lp : Model.t -> outcome

val solve_lp_with :
  Model.t -> extra:(Model.linexpr * Model.relation * Q.t) list -> outcome

type ilp_outcome =
  | Ilp_optimal of Q.t * int array
  | Ilp_unbounded
  | Ilp_infeasible

val solve_ilp : ?max_nodes:int -> Model.t -> ilp_outcome
(** @raise Failure when the node budget is exhausted. *)

val pivots : unit -> int
(** Monotone per-domain pivot count, same contract as {!Lp.Simplex.pivots}
    but charged only by this module. *)

val ilp_nodes : unit -> int
(** Monotone per-domain branch-and-bound node count, same contract as
    {!Lp.Ilp.nodes_explored} but charged only by {!solve_ilp}. *)
