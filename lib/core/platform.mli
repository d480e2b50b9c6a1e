(** Platform description seen by one analyzed task: the core's private L1
    caches, its view of the L2 (absent, private slice, shared-with-
    conflicts, or locked), the bus arbiter and the core's identity on it,
    and the memory controller's refresh policy.

    The L2 view is where the paper's three approach families plug in:
    - task isolation = [Private_l2] slice (partitioning) or an analysable
      arbiter with [No_l2];
    - joint analysis = [Shared_l2] with the co-runners' conflict counts;
    - statically-controlled sharing = [Locked_l2] (locking) or
      [Private_l2] from a partition allocation. *)

type l2_mode =
  | No_l2
  | Private_l2 of Cache.Config.t
  | Shared_l2 of {
      config : Cache.Config.t;
      conflicts : Cache.Shared.conflicts;
      bypass : int -> bool;
    }
  | Locked_l2 of {
      config : Cache.Config.t;
      selection_of : int -> Cache.Locking.selection;
          (** locked contents in effect at a given instruction index —
              constant for static locking, per-region for dynamic locking *)
      reload_cost : proc:string -> Cfg.Block.id -> int;
          (** extra cycles charged to a block for reloading locked
              contents (zero for static locking; the region preheaders pay
              it for dynamic locking) *)
    }

type t = {
  latencies : Pipeline.Latencies.t;
  l1i : Cache.Config.t;
  l1d : Cache.Config.t;
  l2 : l2_mode;
  arbiter : Interconnect.Arbiter.t;
  core : int;  (** this task's core id on the arbiter *)
  refresh : Interconnect.Arbiter.refresh_policy;
  mem_arbiter : (Interconnect.Arbiter.t * int) option;
      (** Hierarchical platforms (the paper's Section 6 outlook: "task
          isolation ... in a hierarchical architecture where each resource
          is shared by only a limited number of nodes"): [arbiter] guards
          the cluster-local bus/L2, and this second arbiter (with this
          cluster's port id) guards the global path to memory.  Its worst
          wait is charged on the memory leg of L2 misses only. *)
  method_cache : Cache.Method_cache.config option;
      (** When set, instructions are served by a method cache instead of
          the conventional L1I/L2 path: fetches cost one cycle and the
          only instruction-memory traffic is whole-function loads at call
          and return points (Schoeberl's design; see
          {!Cache.Method_cache}).  [l1i] is ignored. *)
}

val single_core : ?l2:Cache.Config.t -> unit -> t
(** A single-core platform with default latencies, 2-way 64-set 16-byte
    L1s, an optional private L2, private bus, burst refresh. *)

val max_tx_latency : t -> int
(** Longest bus transaction this platform can produce (L2 fill + DRAM +
    refresh, or an I/O access) — the foreign-service length arbitration
    bounds must assume. *)

val bus_wait : t -> int
(** Worst-case arbiter wait for this core, per bus transaction.
    @raise Failure if the arbiter is not analysable (FCFS): a static WCET
    cannot be claimed on it, which is exactly the survey's point. *)

val mem_wait : t -> int
(** Refresh interference plus, on hierarchical platforms, the global
    memory arbiter's worst wait.
    @raise Failure if the memory arbiter is not analysable. *)

val l2_config : t -> Cache.Config.t option

val machine : t -> Sim.Machine.config
(** The single-core machine the platform describes, for validation
    runs: the same latencies, L1 geometry, L2 (a private slice, or the
    shared or locked L2's geometry), refresh policy and instruction path
    (conventional, or the method cache), on a private bus.  The
    arbiter, core id and memory arbiter only shape the analysis's
    interference bounds. *)

val fingerprint : t -> [ `Pure of string | `Needs_salt of string ] option
(** Canonical rendering of everything {!Wcet.analyze}/{!Bcet.analyze}
    consume from a platform, for memoization keys ({!Memo}).  The arbiter
    and core id are rendered as the *resolved* [bus_wait]/[mem_wait]
    bounds — the only way the analyses observe them — so symmetric cores
    of one bus share cache entries.

    [`Needs_salt] marks platforms whose L2 mode embeds closures
    ([Shared_l2.bypass], [Locked_l2.selection_of]/[reload_cost]) that a
    rendering cannot capture: such a fingerprint is only a valid key when
    combined with a caller-supplied salt encoding those closures'
    semantics.  [None] when the arbiter admits no bound (FCFS) — the
    analyses fail on such platforms, so there is nothing to cache. *)

val equivalent : t -> t -> bool
(** Whether {!Wcet.analyze} and {!Bcet.analyze} cannot tell two
    platforms apart: the same latencies, L1 geometry, method cache,
    resolved [bus_wait] and [mem_wait], and L2 mode with the same
    geometry and conflict counts, compared as values, and the same L2
    closures, compared physically.  On closure-free platforms it agrees
    with {!fingerprint} equality; where the L2 embeds closures it holds
    only for the very same closures, so no salt is needed.  False when
    a bus or memory arbiter of either platform admits no bound, where
    {!fingerprint} is [None].  Renders no string: it costs a few
    comparisons and two wait computations per platform, where rendering
    a shared-L2 fingerprint formats every conflict count. *)
