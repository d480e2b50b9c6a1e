(** Memory layout shared by the simulator and the static analyses.

    Register-held addresses are *word* indices within their address space;
    caches and buses work on *byte* addresses.  Each space occupies a
    disjoint byte region so cached spaces never alias:

    - code:  [0x0000_0000 ...]
    - data:  [0x0010_0000 ...]
    - stack: [0x0020_0000 ...]
    - io:    [0x0030_0000 ...] (never cached) *)

val data_base : int
val stack_base : int
val io_base : int

val byte_addr : Instr.space -> int -> int
(** [byte_addr space word_index] is the byte address of that word. *)

val is_cacheable : Instr.space -> bool
(** [Io] is uncached; [Data] and [Stack] are cached. *)
