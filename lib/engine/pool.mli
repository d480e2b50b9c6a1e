(** Worker-pool job scheduler on OCaml 5 domains.

    [run] executes a list of jobs on [workers] workers: the calling
    domain, as worker 0, and [workers - 1] spawned domains, all claiming
    jobs in order from one shared atomic index.  It returns one outcome
    per job, *in job order* regardless of completion order — parallel and
    sequential runs of a deterministic job list are indistinguishable
    from the results.

    A job that raises yields a [Failed] outcome; it never kills the pool
    or the other jobs.  Runaway jobs (e.g. a joint-interleaving explosion)
    are bounded cooperatively: each job receives a {!ctx} and may call
    {!check} at convenient points; once the configured per-job timeout has
    elapsed, the next [check] raises and the job ends as [Timed_out].
    Jobs that never call [check] simply cannot be interrupted — timing out
    is an opt-in contract between the job body and the scheduler.

    When an {!Obs} sink is installed, [run] traces itself: each job gets
    its own track (registered in job order, so tids — and the merged
    export — are identical at any worker count), each worker a
    ["worker N"] track carrying a [cat:"pool"] span per executed job with
    its queue-wait (the caller's track is ["worker 0"]), and the sink's
    metrics gain [pool.queue_wait_ns] / [pool.run_ns] histograms and a
    [pool.jobs] counter.  A job's queue-wait counts from the start of the
    run.  Events the job body records land on the job's track. *)

type ctx
(** Per-job cancellation context. *)

exception Timeout

val check : ctx -> unit
(** @raise Timeout once the job's deadline has passed. *)

val elapsed_ns : ctx -> int64
(** Monotonic time since this job started. *)

type 'a job

val job : ?label:string -> (ctx -> 'a) -> 'a job
(** [label] appears in failure/timeout outcomes (default ["job"]). *)

type 'a outcome =
  | Done of 'a
  | Failed of { label : string; error : string }
      (** The job raised; [error] is the printed exception. *)
  | Timed_out of { label : string; after_ns : int64 }

val default_workers : unit -> int
(** [Domain.recommended_domain_count ()], at least 1 — the calling
    domain is one of the workers. *)

val run : ?workers:int -> ?timeout_ns:int64 -> 'a job list -> 'a outcome list
(** [workers] defaults to {!default_workers}; [run] spawns
    [min workers (List.length jobs) - 1] domains and joins them before it
    returns, so [workers <= 1] runs the jobs in the calling domain
    (identical outcomes, no domains spawned).  [timeout_ns] is the
    per-job budget enforced via {!check}. *)

val map : ?workers:int -> ?timeout_ns:int64 -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map f xs] = [run (List.map (fun x -> job (fun _ -> f x)) xs)]. *)
