(** Best-case execution time (BCET) analysis.

    Li et al.'s shared-cache framework (Section 4.1 of the paper) is
    iterative over *both* bounds: "each iteration estimates the BCET and
    WCET of each task".  The BCET here is a sound lower bound computed
    from optimistic block costs — every memory access hits the L1 in one
    cycle, the bus never delays, conditional branches fall through — and
    IPET minimization with the loops' guaranteed minimum trip counts.

    Together with {!Wcet}, this also yields the *analytic* predictability
    quotient BCET/WCET of Grund et al.'s template, comparable against the
    measured quotients of {!Predictability}. *)

type proc_result = {
  name : string;
  bcet : int;  (** includes callee BCETs *)
  ipet : Ipet.result;
  attrib : Pipeline.Cost.Vec.t array;
      (** per-block own cost vector (callee BCETs excluded); on the
          optimistic path only [Compute] and [Stall] are nonzero *)
  bcet_vec : Pipeline.Cost.Vec.t;
      (** full category decomposition; [Vec.total bcet_vec = bcet]
          bit-exactly *)
}

type t = {
  program : Isa.Program.t;
  callgraph : Cfg.Callgraph.t;  (** the context's ({!Context.callgraph}) *)
  procs : (string * proc_result) list;
  bcet : int;
}

val analyze_with : ctx:Context.t -> Platform.t -> t
(** Best-case back end over a prebuilt {!Context.t}.  Only the
    mode-invariant part of the context is consumed (graphs, loop bounds,
    prepared minimize-direction IPET systems) — the optimistic cost
    model reads no cache or arbiter state — so one context serves BCET
    alongside every WCET mode.  Bit-identical to {!analyze}.
    @raise Invalid_argument on a geometry-incompatible platform. *)

val analyze : ?annot:Dataflow.Annot.t -> Platform.t -> Isa.Program.t -> t
(** @raise Wcet.Not_analysable on the same conditions as {!Wcet.analyze}
    (the flow facts are shared).  Phase spans as in {!Wcet.analyze}; the
    back end records only [ipet-solve]. *)

val analytic_quotient : bcet:int -> wcet:int -> float
(** [bcet / wcet], clamped to [0, 1]. *)
