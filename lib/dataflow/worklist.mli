(** Round-based dirty-set fixpoint scheduling over a CFG.

    A drop-in replacement for the repeat-until-stable reverse-postorder
    sweep used by the abstract-interpretation fixpoints: rounds are
    processed in RPO order like sweeps, but only blocks whose
    predecessors' out-states changed since their last examination are
    re-examined.  The stored in/out sequences are bit-identical to the
    sweep's — a skipped block's recomputed input would have compared
    equal — so analysis results cannot differ; only the amount of join,
    comparison and transfer work does. *)

type strategy = [ `Worklist | `Sweep ]

val with_strategy : strategy -> (unit -> 'a) -> 'a
(** Run a thunk under a scheduling strategy (per-domain, restored on
    exit).  [`Sweep] forces the classic examine-every-block rounds; the
    default is [`Worklist].  Used by the benchmark harness to measure
    both modes on identical inputs. *)

val pops : unit -> int
(** Monotone count of block examinations (input recomputation + staleness
    check) performed by the calling domain, in either strategy.  Same
    read-before/read-after contract as
    {!Cache.Analysis.fixpoint_iterations}; {!solve} charges each run's
    delta to the sink's [dataflow.worklist.pops] counter. *)

val transfers : unit -> int
(** Monotone count of transfer-function applications by the calling
    domain.  Identical across strategies for the same inputs (staleness
    is what gates a transfer); the pops saved are where the worklist
    wins. *)

val count_transfer : unit -> unit
(** For clients driving {!run} directly with their own transfer
    bookkeeping (e.g. {!Value_analysis}). *)

val run :
  Cfg.Graph.t ->
  ?name:string ->
  ?on_round:(unit -> unit) ->
  process:(round:int -> Cfg.Block.id -> [ `Unchanged | `In_changed | `Out_changed ]) ->
  unit ->
  int
(** [run g ~process ()] drives rounds until stable and returns the round
    count.  [process ~round id] must examine block [id] — recompute its
    input from predecessor outs, and re-transfer if stale — and report
    whether nothing changed, only the stored input changed, or the
    out-state changed (which is what schedules successors).  [round] is
    1-based and identical to the sweep number the classic iteration would
    be on, so round-keyed widening clocks carry over unchanged.
    [on_round] fires at the start of each round (the cache fixpoints
    count their sweeps with it).

    When an {!Obs} sink is installed, each run records a [cat:"fixpoint"]
    span under [name] (default ["fixpoint"]) plus pops/transfers counters
    and a rounds histogram on the sink's metrics. *)

val solve :
  Cfg.Graph.t ->
  ?name:string ->
  entry_fact:'a ->
  join:('a -> 'a -> 'a) ->
  equal:('a -> 'a -> bool) ->
  transfer:(Cfg.Block.id -> 'a -> 'a) ->
  ?on_round:(unit -> unit) ->
  unit ->
  'a option array * 'a option array
(** The ['a option] instantiation shared by the cache fixpoints: [None]
    is bottom, block input is the join of predecessor outs in edge-list
    order with [entry_fact] joined in front for the entry block, and a
    block whose input is still bottom is left untouched.  Returns the
    [ins] and [outs] arrays.

    A block is transferred exactly when its stored input changes, and
    on that new input.  So a block's last [transfer] sees its final
    input ([ins.(id)]), and a block left at bottom is never transferred:
    {!Cache.Analysis.level} keeps the states its last transfers saw
    instead of replaying the blocks. *)
