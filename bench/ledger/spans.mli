(** Per-name span totals and self times from {!Obs} event tracks.

    A span's self time is its duration minus the part covered by its
    child spans on the same track; summed over every span of a track,
    self times add up to the duration of the track's top-level spans,
    which is what makes a layer decomposition exact. *)

type t

val create : unit -> t

val add : ?skip:(cat:string -> bool) -> t -> Obs.Event.t list -> unit
(** Fold one track's events (balanced, as {!Obs.Sink.events} returns
    them).  Spans whose category [skip] selects are not recorded, but
    still count as covered time of their parent. *)

val add_sink : ?skip:(cat:string -> bool) -> t -> Obs.Sink.t -> unit
(** {!add} over every track of the sink. *)

val self_ns : t -> string -> int
val total_ns : t -> string -> int
(** Summed over every span of that name. *)

val covered_ns : t -> int
(** Sum of every recorded span's self time. *)
