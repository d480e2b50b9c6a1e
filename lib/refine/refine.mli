(** Infeasible-path refinement: semantic conflict cuts over IPET flows.

    Structural IPET maximizes over every path the CFG admits, including
    paths no execution can take (Section 2.1's known pessimism; Béchennec
    & Cassez attack it with slicing-derived semantic constraints).  This
    module is the semantic side of the CEGAR loop in {!Core.Ipet}: it
    derives, from the interval value analysis, a deterministic list of
    {e candidate conflict cuts} — linear inequalities over edge-traversal
    counts that every real execution satisfies but the structural optimum
    may not — and checks a solver witness against them.  The loop itself
    (solve, extract witness, inject the first violated cut, warm
    re-solve) lives with the solver; this module owns the cut language
    and the soundness argument for each generator.

    Two generators, both justified purely by the value analysis:

    - {b Dead branch edge}: the branch condition refined along an edge
      leaves a tested register's interval empty — no concrete state can
      traverse the edge, so its flow is [<= 0].
    - {b Conflicting branch pair}: two branch edges in one procedure
      constrain the {e same} register — one never written in the
      procedure, so its value is fixed per invocation — to disjoint
      intervals.  Both edges cannot be traversed in one invocation;
      outside loops their flows sum to [<= 1], inside a common outermost
      loop to [<= iterations] (each iteration picks at most one side).

    Candidates are generated in a fixed deterministic order and the
    CEGAR loop always injects the {e first} violated one, so a fixed
    iteration budget yields the same refined bound at any worker
    count. *)

type config = {
  max_iterations : int;
      (** CEGAR iterations (witness checks) per procedure; each
          iteration injects at most one cut. *)
  max_cuts : int;  (** total cuts injected per procedure *)
}

val default : config
(** 8 iterations, 16 cuts — enough to drain the candidate list on every
    catalog program. *)

val salt : config -> string
(** Canonical descriptor of the closure semantics a refined result
    depends on, e.g. ["refine:i8c16"].  Appended to {!Core.Memo} salts
    and server store-key fingerprints so refined and unrefined results
    never share a cache entry. *)

type cut = {
  edges : Cfg.Graph.edge list;  (** flows summed, duplicates illegal *)
  bound : int;  (** [sum of edge flows <= bound] *)
  reason : string;  (** human-readable justification, for diagnostics *)
}

val candidates :
  graph:Cfg.Graph.t ->
  loops:Cfg.Loops.t ->
  loop_bounds:Dataflow.Loop_bounds.bound list ->
  va:Dataflow.Value_analysis.result ->
  call_clobbers:(string -> Isa.Instr.reg list) ->
  unit ->
  cut list
(** Every cut a real execution of the procedure provably satisfies,
    dead-edge cuts first, then conflicting pairs, each group in block-id
    order.  [va] must be the value analysis of [graph] and
    [call_clobbers] the clobber sets it was computed with (a wider
    clobber set than the analysis used would be unsound here: a register
    counts as conflict-eligible only if {e no} instruction, call
    included, may write it). *)

val violated : flow:(Cfg.Graph.edge -> int) -> cut -> bool
(** Whether a witness (per-edge traversal counts) breaks the cut. *)

val pp_cut : Format.formatter -> cut -> unit
