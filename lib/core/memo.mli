(** Memoizing front-end for {!Wcet.analyze} and {!Bcet.analyze}.

    Batch workloads and experiment sweeps re-analyze the same (program,
    annotations, platform configuration) points many times — T3/T6/T7-style
    sweeps vary one parameter and keep everything else fixed.  A [Memo]
    keys completed results by a structural fingerprint of those three
    inputs ({!Engine.Fingerprint} over {!Platform.fingerprint},
    {!Dataflow.Annot.fingerprint} and a canonical program rendering) in a
    bounded thread-safe LRU ({!Engine.Lru}), so repeated points cost one
    digest instead of a full flow → cache → pipeline → IPET run.

    Correctness: a cache hit returns a result computed by the very same
    analysis on fingerprint-equal inputs, so memoized and direct runs are
    bit-identical (asserted over the whole workload suite by
    [test/test_engine.ml]).  Platforms whose L2 mode embeds closures
    ([Shared_l2.bypass], [Locked_l2]) are only cached when the caller
    provides a [salt] encoding those closures' semantics (see
    {!Multicore}); without one they fall through to a direct, uncached
    analysis.  One [Memo] may be shared by all worker domains of an
    {!Engine.Pool} run. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of cached results (default 512);
    least-recently-used results are evicted beyond it. *)

(** {1 Second level}

    A pluggable blob store behind the in-memory LRU (typically
    {!Store.Front.memo_tier2} over the on-disk content-addressed store).
    It trades in *encoded* results: a full analysis result carries the
    platform's closures and cannot be rebuilt from disk, but its encoded
    (distilled) form can be served verbatim — so only the [*_encoded]
    entry points consult the second level, and they return blobs.  Keys
    are the same fingerprints the LRU uses; the key discipline (salts
    for closure-bearing platforms, {!key} returning [None] otherwise)
    therefore applies unchanged — a [`Needs_salt] platform point is
    never persisted without a salt because it never gets a key at
    all. *)

type tier2 = {
  t2_find : kind:string -> string -> string option;
      (** [t2_find ~kind key] returns the stored blob, or [None]. *)
  t2_store : kind:string -> string -> string -> unit;
      (** [t2_store ~kind key blob] persists a freshly computed
          result's encoding. *)
}

val set_tier2 : t -> tier2 option -> unit
(** Install (or remove) the second-level store.  Install before sharing
    the memo across domains; the hook itself must be thread-safe. *)

val key :
  kind:string ->
  annot:Dataflow.Annot.t ->
  salt:string option ->
  Platform.t ->
  Isa.Program.t ->
  string option
(** The memoization fingerprint of an analysis point: program hash x
    platform fingerprint x annotations x salt x [kind].  [None] when the
    point is uncacheable (unanalysable arbiter, or a closure-bearing L2
    mode with no salt) — exposed so external stores key by exactly the
    discipline the memo itself enforces. *)

val wcet_encoded :
  t ->
  encode:(Wcet.t -> string) ->
  ?annot:Dataflow.Annot.t ->
  ?salt:string ->
  ?telemetry:Engine.Telemetry.t ->
  Platform.t ->
  Isa.Program.t ->
  string
(** Memoized analysis returning the [encode]d result.  Resolution order:
    in-memory LRU (re-encoded), then the second level (blob served
    verbatim), then a cold analysis (stored in both levels).  [encode]
    must be canonical for the bit-identity guarantee to carry over. *)

val bcet_encoded :
  t ->
  encode:(Bcet.t -> string) ->
  ?annot:Dataflow.Annot.t ->
  ?salt:string ->
  ?telemetry:Engine.Telemetry.t ->
  Platform.t ->
  Isa.Program.t ->
  string

val wcet :
  t ->
  ?annot:Dataflow.Annot.t ->
  ?salt:string ->
  ?telemetry:Engine.Telemetry.t ->
  ?compute:(unit -> Wcet.t) ->
  Platform.t ->
  Isa.Program.t ->
  Wcet.t
(** Memoized {!Wcet.analyze}.  [salt] must encode the semantics of any
    closures the platform's L2 mode carries; wrong salts mean wrong
    results, missing salts merely disable caching.

    [compute] overrides the miss path (and the uncacheable direct path)
    — typically {!Wcet.analyze_with} over a shared {!Context.t}.  Its
    result must be bit-identical to the fresh analysis of the same
    point: the memo key cannot distinguish the two, by design.
    @raise Wcet.Not_analysable as the direct analysis (never cached). *)

val bcet :
  t ->
  ?annot:Dataflow.Annot.t ->
  ?salt:string ->
  ?telemetry:Engine.Telemetry.t ->
  ?compute:(unit -> Bcet.t) ->
  Platform.t ->
  Isa.Program.t ->
  Bcet.t
(** Memoized {!Bcet.analyze}; [compute] as in {!wcet}. *)

val stats : t -> Engine.Lru.stats

val local_stats : unit -> int * int
(** [(hits, lookups)] performed *by the calling domain* across every
    [Memo], monotone.  A worker that snapshots this around a job gets that
    job's exact cache behaviour without cross-domain races. *)

val program_fingerprint : Isa.Program.t -> string
(** Digest of a canonical rendering of a program (name, layout, labels,
    entry, every instruction) — exposed for tests and external keying.
    Each domain remembers the digests of its last 8 programs by physical
    identity, so keying one program repeatedly renders it once. *)
