(** Typed metrics registry: named counters (monotone sums), gauges
    (last-write-wins) and log2 histograms.

    The registry is safe to share between domains: every update takes a
    private mutex for a few dozen nanoseconds.  Hot paths should batch
    (accumulate locally, [add] a delta per phase) rather than update per
    unit of work.  Names live in per-kind namespaces; first-registration
    order is preserved in {!snapshot} so reports read in pipeline
    order. *)

type t

val create : unit -> t

val add : t -> string -> int -> unit
(** Bump a counter. *)

val set_counter : t -> string -> int -> unit
(** Raise a counter to an absolute value (never lowers it) — for
    mirroring an externally maintained monotone total (store hit/miss
    counts, ring drop totals) into the registry at scrape time. *)

val set_gauge : t -> string -> int -> unit

val mirror :
  t -> [ `Counter of string * int | `Gauge of string * int ] list -> unit
(** {!set_counter} or {!set_gauge} for each value, in order, under one
    lock acquisition — the scrape-time refresh of mirrored values. *)

val observe : t -> string -> int -> unit
(** Record a value into the named histogram. *)

type item =
  | Counter_v of string * int
  | Gauge_v of string * int
  | Hist_v of string * Histogram.snapshot

val snapshot : t -> item list
(** In first-registration order. *)

val counter : t -> string -> int
(** Current counter value (0 when absent). *)

val gauge : t -> string -> int
val hist : t -> string -> Histogram.snapshot option
