(** Interval value analysis over registers.

    Abstract interpretation of one procedure CFG.  The abstract state maps
    each register to an {!Interval.t}; [r0] is pinned to [0,0].  Memory
    loads yield top (memory cells are not tracked), stores are ignored, and
    a [Call] clobbers the registers its callee may transitively write
    (every register by default).  Branch conditions refine the state on
    outgoing
    edges, which is what makes loop counters precise enough for automatic
    loop-bound inference. *)

type astate = Interval.t array
(** One interval per register.  Every state this module returns may be
    shared with other blocks, edges and instructions of the result (and
    [transfer_instr] may return its argument itself), so callers must
    never mutate one: copy it first. *)

type result

val analyze :
  ?widen_after:int ->
  ?call_clobbers:(string -> Isa.Instr.reg list) ->
  Cfg.Graph.t ->
  result
(** Fixpoint with widening at blocks visited more than [widen_after]
    times (default 3), followed by one narrowing sweep.  [call_clobbers]
    names the registers a callee may write (from {!Clobbers}); the sound
    default forgets every register at each call. *)

val block_in : result -> Cfg.Block.id -> astate
val block_out : result -> Cfg.Block.id -> astate

val state_before_instr : result -> Cfg.Graph.t -> int -> astate option
(** Abstract state just before the given instruction index, recomputed by
    replaying transfers from its block entry.  [None] if the instruction is
    unreachable. *)

val states_before_instrs :
  result -> Cfg.Graph.t -> Cfg.Block.id -> astate array
(** The state before each instruction of a block, in one forward pass from
    the block's input: element [k] is {!state_before_instr} of the block's
    [k]-th instruction. *)

val reg_interval : astate -> Isa.Instr.reg -> Interval.t

val transfer_instr : Isa.Instr.t -> astate -> astate
(** Exposed for loop-bound inference and tests. *)

val edge_state : result -> Cfg.Graph.t -> Cfg.Graph.edge -> astate
(** Out-state of the edge source refined by the branch condition along
    that edge. *)

val pp_astate : Format.formatter -> astate -> unit
