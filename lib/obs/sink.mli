(** Trace collector: a clock, a metrics registry, and a set of tracks
    (per-domain or per-job ring buffers of events).

    Tracks are registered under the sink's lock (tids are assigned in
    registration order, which makes exports deterministic when tracks are
    registered in a deterministic order), but event recording itself is
    lock-free: a track has a single writer at any time — the domain that
    currently owns it — so pushes go straight into the track's ring.

    The [clock] is injectable so tests can drive a virtual clock and get
    bit-identical exports regardless of scheduling; the default is
    CLOCK_MONOTONIC in nanoseconds. *)

type t
type track

val default_track_capacity : int
(** 65536 events per track. *)

val create : ?clock:(unit -> int64) -> ?track_capacity:int -> unit -> t
val now : t -> int64
val metrics : t -> Metrics.t

val new_track : t -> string -> track
(** Register a track; its [tid] is the next in registration order. *)

val tracks : t -> track list
(** In registration order. *)

val tid : track -> int
val track_name : track -> string

val begin_ : t -> track -> ?cat:string -> ?args:(string * Event.value) list -> string -> unit
val begin_at : track -> ts:int64 -> ?cat:string -> ?args:(string * Event.value) list -> string -> unit
val end_ : t -> track -> unit
val end_at : track -> ts:int64 -> unit
val instant : t -> track -> ?cat:string -> ?args:(string * Event.value) list -> string -> unit

val counter : t -> track -> ?cat:string -> ?args:(string * Event.value) list -> string -> unit
(** Record a {!Event.Counter} sample; each arg is one series value. *)

val events : track -> Event.t list
(** The track's surviving events, oldest first, with ring-wrap damage
    repaired: orphan [End]s dropped, unclosed [Begin]s closed at the last
    timestamp.  Always balanced and properly nested. *)

val iter_spans :
  track ->
  span:(cat:string -> ts:int64 -> dur:int64 -> string -> unit) ->
  point:(Event.t -> unit) ->
  unit
(** Walk the track's {!events} in order, pairing each [End] with the
    [Begin] it closes: [span ~cat ~ts ~dur name] fires at the [End], so
    spans arrive in completion order with their begin timestamp and
    duration; [point] gets every [Instant] and [Counter] event. *)

val dropped : track -> int
