(** Per-procedure cache analysis: must/may/persistence fixpoints over the
    CFG plus per-access classification (Section 2.1 of the paper: accesses
    get a category ALWAYS_HIT / ALWAYS_MISS / PERSISTENT / NOT_CLASSIFIED).

    One engine, {!level}, runs the three fixpoints of a cache level and
    replays each block once to hand every access the states before it.
    {!analyze} is its L1 instance, for the instruction cache (every
    instruction fetch is an access at a statically known address) and
    the data cache (load/store addresses come from the interval value
    analysis; imprecise addresses degrade to small line sets or to
    [Unknown]); {!Multilevel.analyze} is its L2 instance.  An L1 result
    keeps only each access with its classification. *)

type target =
  | Lines of int list  (** the access touches exactly one of these lines *)
  | Unknown

type kind = Fetch | Data
(** One instruction performs at most one access of each kind; [(instr,
    kind)] identifies an access point uniquely, which matters when the
    instruction and data paths share a cache level. *)

type access = { instr : int; kind : kind; target : target }

type classification = Always_hit | Always_miss | Persistent | Not_classified

val classification_to_string : classification -> string

(** Entry assumption: [Cold] for the task root (platform invalidates caches
    at task start), [Unknown] for callees, whose entry cache content
    depends on the caller. *)
type entry_state = Cold | Unknown_entry

(** Per-access-point tables of one procedure: one array per access kind,
    indexed by instruction and sized by the procedure's instruction
    range, so a lookup is an array read. *)
module Table : sig
  type 'a t

  val create : Cfg.Graph.t -> 'a t
  (** Empty, over the graph's instruction range. *)

  val set : 'a t -> kind -> int -> 'a -> unit
  (** @raise Invalid_argument for an instruction outside the range. *)

  val find : 'a t -> kind -> int -> 'a
  (** @raise Not_found for an empty slot or an instruction outside the
      range. *)

  val find_opt : 'a t -> kind -> int -> 'a option

  val to_list : 'a t -> 'a list
  (** The filled slots in instruction order, fetch before data. *)
end

type t

val instruction_accesses :
  Config.t -> Cfg.Graph.t -> Cfg.Block.id -> access list
(** One access per instruction of the block, at its code address. *)

val data_accesses :
  Config.t ->
  Cfg.Graph.t ->
  Dataflow.Value_analysis.result ->
  Cfg.Block.id ->
  access list
(** Accesses for loads/stores to cacheable spaces.  Address intervals
    spanning more than 16 lines, or reaching below byte address 0, become
    [Unknown].
    [Io]-space accesses are omitted (uncached). *)

val level :
  Config.t ->
  Cfg.Graph.t ->
  name:string ->
  entry:entry_state ->
  accesses:(Cfg.Block.id -> 'a list) ->
  step:(Acs.t -> 'a -> Acs.t) ->
  pers_step:(must:Acs.t -> Acs.t -> 'a -> Acs.t) ->
  visit:(must:Acs.t -> may:Acs.t -> pers:Acs.t -> 'a -> unit) ->
  unit
(** The analysis of one cache level.  [accesses] lists each block's
    accesses in program order.  The must and may fixpoints apply [step]
    to each; the persistence fixpoint applies [pers_step], guided by the
    must state before the same access.  A block that calls havocs all
    three states at its end.  [entry] gives the entry states: cold, or
    for [Unknown_entry] a may state in which any line may be cached.
    The fixpoints run through {!Dataflow.Worklist.solve} under the span
    names ["cache.<name>.must"], ["cache.<name>.may"] and
    ["cache.<name>.pers"], counted by {!fixpoint_iterations}.  Then each
    block is replayed once, and [visit] sees every access in program
    order with the three states before it.  An unreachable block starts
    from the entry states. *)

val analyze :
  Config.t ->
  Cfg.Graph.t ->
  entry:entry_state ->
  accesses:(Cfg.Block.id -> access list) ->
  t
(** {!level} ["l1"] over [accesses], recording each access's
    {!classify} category. *)

val classification : t -> ?kind:kind -> int -> classification
(** Classification of the access at the given instruction index (default
    kind [Fetch]).
    @raise Not_found if that instruction has no such access. *)

val accesses : t -> (access * classification) list
(** All accesses, by instruction order (fetch before data); built once
    by {!analyze}. *)

val persistent_miss_count : t -> int
(** Number of accesses classified [Persistent]; each contributes at most
    one miss per procedure execution (charged by the WCET composition). *)

val classify :
  Config.t ->
  must:Acs.t ->
  may:Acs.t ->
  pers:Acs.t ->
  target ->
  classification
(** The category of an access to [target] from the must, may and
    persistence states before it: [Always_hit] when every candidate line
    is in [must], [Always_miss] when none may be in [may], [Persistent]
    for a single line younger than [assoc] in [pers].  Exposed so that
    {!Multilevel} classifies L2 accesses by the same rules. *)

val fixpoint_iterations : unit -> int
(** Monotone count of abstract-interpretation sweeps (one per pass over
    the CFG of any must/may/persistence/L2 fixpoint) performed *by the
    calling domain*.  Read before and after an analysis and subtract
    (the ledger and bench/perf.ml do); per-domain storage keeps parallel
    analyses race-free. *)
