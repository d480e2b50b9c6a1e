(** Bounded event ring buffer.

    The buffer starts at 64 slots and doubles as it fills, up to the
    capacity, so memory follows the events recorded.  A full ring
    overwrites its oldest event ([dropped] counts how many were lost)
    rather than blocking or growing past the capacity — recording cost
    stays bounded no matter how long a run is.  Exporters repair the
    [Begin]/[End] imbalance that dropping the front can introduce. *)

type t

val create : int -> t
(** [create capacity].
    @raise Invalid_argument on a non-positive capacity. *)

val push : t -> Event.t -> unit
val length : t -> int

val dropped : t -> int
(** Events overwritten since creation. *)

val to_list : t -> Event.t list
(** Surviving events, oldest first. *)
