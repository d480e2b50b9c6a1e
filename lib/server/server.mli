(** [paratime serve] — a persistent analysis service.

    One listening TCP socket (loopback), one sys-thread per connection,
    line-delimited JSON requests ({!Protocol}).  Warm requests are
    answered from the two-level result store ({!Store.Front}) on the
    connection thread; cold analyses are submitted to a persistent
    {!Engine.Service} domain pool with a bounded queue — a full queue is
    an explicit ["busy"] reply, never an unbounded backlog.

    Observability discipline: connection threads are sys-threads sharing
    the main domain, so they touch only the mutex-protected metrics
    (counters / gauges / histograms) and private {!Obs.Reqtrace} buffers
    — never a domain track directly; live spans are recorded exclusively
    by the service's worker domains, which each own a track.  Request
    latency lands in the ["server.request_ns"] histogram (plus a
    per-outcome ["server.request_ns.<outcome>"] split), requests are
    counted per op (["server.req.<op>"]) and per outcome
    (["server.out.<outcome>"]), and the store-level
    ["server.hot"/"server.warm"/"server.cold"/"server.busy"] counters
    count per-mode lookups as before.

    Request tracing is off by default.  With [trace_sample > 0] or a
    [flight_dir], every request records into a private trace buffer;
    at completion the {!Obs.Sampler} keeps 1-in-[trace_sample] cold
    requests plus every error and every request at or above [slow_ms]
    — kept trees are replayed onto a shared ["requests"] ring track,
    and slow ones are dumped to the bounded [flight_dir] recorder. *)

type config = {
  port : int;  (** 0 = ephemeral; the bound port goes to [ready] *)
  workers : int option;
      (** [None] = {!Engine.Service.create}'s default,
          [Domain.recommended_domain_count () - 1], at least 1 *)
  queue_capacity : int;
  store_root : string option;  (** [None] = in-memory store only *)
  budget_bytes : int;
  mem_capacity : int;
  trace_sample : int;
      (** keep 1-in-N cold request traces; [0] (default) records traces
          only when [flight_dir] is set, and then keeps only
          errors/slow *)
  slow_ms : int;
      (** slow-request threshold for always-keep + flight dump (250
          default; [0] = every request, negative = never) *)
  flight_dir : string option;  (** slow-request dump directory *)
}

val default_config : config
(** port 7421, default workers, queue 64, no disk store, 64 MiB budget,
    512 in-memory entries, tracing off (sample 0, slow 250 ms, no
    flight dir). *)

val run : ?ready:(int -> unit) -> sink:Obs.Sink.t -> config -> unit
(** Serve until a ["shutdown"] request or SIGTERM/SIGINT; [ready] is
    called with the bound port once listening.  [sink] is installed
    ambiently ({!Obs.set_sink}) for the server's lifetime and
    uninstalled on return; the caller owns trace export afterwards.
    On return the service is drained, the store flushed, and all
    sockets closed — shutdown wakes connections blocked on an idle
    client rather than waiting for them to disconnect. *)
