(** Two-level result cache: a bounded in-memory {!Engine.Lru} of decoded
    entries in front of the on-disk {!Disk} store.

    The memory level holds {!Entry.t} values (no decode on a hot hit);
    the disk level holds encoded blobs.  A disk hit is promoted into the
    memory level.  Both levels are optional-ish by construction: a front
    without a disk is a plain bounded memory cache (a [paratime serve]
    run without [--store-dir]), a front with one is the persistent
    service cache.

    Disk writes go {e write-behind}: [put] lands in the memory level
    synchronously (reads are immediately coherent) and the encoded blob
    is queued for a single background writer thread, so the serving path
    never waits on filesystem syscalls.  The queue is bounded
    ([max_pending]); overflow drops the disk write — counted under
    ["store.write_dropped"] — because losing a cache write only costs a
    future re-analysis.  {!flush} drains the queue. *)

type t
type level = Memory | Disk

val create : ?mem_capacity:int -> ?disk:Disk.t -> unit -> t
(** [mem_capacity] bounds the number of decoded entries held in memory
    (default 512). *)

val disk : t -> Disk.t option

val find : t -> string -> (level * Entry.t) option
(** [Memory] hits cost one LRU lookup; [Disk] hits decode and promote. *)

val put : t -> string -> Entry.t -> unit
(** Memory level synchronously; the disk write is queued write-behind. *)

val max_pending : int
(** Bound on queued disk writes (1024). *)

val mem_stats : t -> Engine.Lru.stats
val disk_stats : t -> Disk.stats option

val write_dropped : t -> int
(** Disk writes dropped at queue overflow (also counted under the
    ambient ["store.write_dropped"] metric); [0] without a disk. *)

val flush : t -> unit
(** Block until every queued disk write has landed, then flush the disk
    manifest. *)

val close : t -> unit
(** {!flush}, then stop and join the writer thread.  The front remains
    usable as a memory-only cache afterwards (further disk writes are
    silently dropped). *)
