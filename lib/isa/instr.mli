(** MiniRISC instruction set.

    A small, regular RISC ISA designed for timing analysis: every
    instruction occupies one 4-byte word, control flow is fully explicit
    (no delay slots, no indirect jumps except [Ret]), and memory accesses
    are *typed* with the address space they touch (Patmos-style split
    loads/stores), so data-cache analysis can separate stack traffic from
    global data and memory-mapped I/O. *)

type reg = int
(** Register index 0..31.  Register 0 is hard-wired to zero. *)

val num_regs : int
val reg : int -> reg
(** @raise Invalid_argument outside 0..31. *)

(** Address space of a memory access.  [Data] is cached global data,
    [Stack] is cached stack traffic (served by a stack cache when the
    platform has one), [Io] is uncached memory-mapped I/O. *)
type space = Data | Stack | Io

type alu_op =
  | Add
  | Sub
  | Mul  (** multi-cycle *)
  | Div  (** multi-cycle, longest latency *)
  | Rem
  | And
  | Or
  | Xor
  | Sll
  | Srl
  | Slt  (** set-if-less-than, signed *)

type cond = Eq | Ne | Lt | Ge

type label = string

type t =
  | Alu of alu_op * reg * reg * reg  (** [Alu (op, rd, rs1, rs2)] *)
  | Alui of alu_op * reg * reg * int  (** [Alui (op, rd, rs1, imm)] *)
  | Load of space * reg * reg * int
      (** [Load (sp, rd, rbase, off)]: [rd <- mem.(rbase + off)] *)
  | Store of space * reg * reg * int
      (** [Store (sp, rv, rbase, off)]: [mem.(rbase + off) <- rv] *)
  | Branch of cond * reg * reg * label
  | Jump of label
  | Call of label
  | Ret
  | Nop
  | Halt

val is_control : t -> bool
(** Branches, jumps, calls, returns and halts end a basic block. *)

val alu_op_to_string : alu_op -> string
val cond_to_string : cond -> string
val space_to_string : space -> string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
