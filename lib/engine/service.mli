(** Persistent worker-domain service with a bounded queue.

    {!Pool} is batch-shaped: it takes a closed job list, spawns workers,
    joins them, returns.  A long-running analysis server needs the
    complement: workers that outlive any one request, a submission path
    that never blocks the caller, and *backpressure* — once the queue is
    full, {!submit} refuses immediately (the server turns that into an
    explicit [busy] reply) instead of letting latency grow without
    bound.

    Submissions may come from any thread or domain; results travel back
    through a {!ticket} ({!await} blocks just the caller).  A job that
    raises resolves its ticket to [Error] with the printed exception —
    it never kills a worker.

    Observability mirrors {!Pool}: each executed job runs inside a
    [cat:"service"] {!Obs} span on its worker's track, and the ambient
    metrics gain [service.queue_wait_ns] / [service.run_ns] histograms
    plus [service.jobs] / [service.rejected] counters. *)

type t

val create : ?workers:int -> ?queue_capacity:int -> unit -> t
(** Spawns [workers] domains (default
    [Domain.recommended_domain_count () - 1], at least 1: the creating
    domain keeps serving its callers and runs no jobs) serving a queue
    bounded at [queue_capacity] pending jobs (default 64).
    @raise Invalid_argument if [workers < 1] or [queue_capacity < 0]. *)

val workers : t -> int
val queue_capacity : t -> int

type 'a ticket

val submit :
  t ->
  ?label:string ->
  ?trace:Obs.Reqtrace.t * int ->
  (unit -> 'a) ->
  'a ticket option
(** Enqueue a job; [None] when the queue is at capacity or the service
    is shutting down (the caller should report [busy]).  Never blocks.

    [trace] = [(rt, parent)] attaches the job to a request trace: the
    executing worker records the queue wait retroactively (from the
    enqueue stamp) as a ["queue.wait"] span under [parent], then runs
    the job inside {!Obs.Reqtrace.with_scope} so every [Obs.span] in the
    analysis lands in [rt]'s tree as well as on the worker's track. *)

val await : 'a ticket -> ('a, string) result
(** Block until the job resolves.  [Error] carries the printed
    exception of a job that raised. *)

val shutdown : t -> unit
(** Stop accepting work, drain the queue, join the workers.
    Idempotent. *)

type stats = {
  s_workers : int;
  s_capacity : int;
  s_queued : int;  (** jobs waiting right now *)
  s_running : int;  (** jobs executing right now *)
  s_completed : int;  (** resolved OK *)
  s_failed : int;  (** resolved by an exception *)
  s_rejected : int;  (** submissions refused at capacity *)
}

val stats : t -> stats
