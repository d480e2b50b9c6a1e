(** Functional (untimed) semantics of MiniRISC.

    This is the architectural reference model: the cycle-level simulator in
    [lib/sim] drives it for state updates and adds timing on top, and tests
    use it as the oracle for program behaviour.

    Arithmetic is on native OCaml integers (no 32-bit wrap-around); division
    and remainder by zero yield 0 so the semantics is total.  Shift amounts
    are masked to 0..31 and logical right shift operates on the low 32 bits
    of its operand. *)

type event =
  | Ev_alu of Instr.alu_op
  | Ev_load of Instr.space * int  (** byte address *)
  | Ev_store of Instr.space * int  (** byte address *)
  | Ev_branch of bool  (** taken? *)
  | Ev_jump
  | Ev_call
  | Ev_ret
  | Ev_nop

type state = {
  regs : int array;
  data : int array;  (** word-addressed *)
  stack : int array;
  io : int array;
  mutable pc : int;  (** instruction index; [-1] once halted *)
  mutable call_stack : int list;  (** return instruction indices *)
  mutable steps : int;
}

exception Fault of string
(** Out-of-range memory access or call-stack underflow. *)

val init :
  ?data_words:int -> ?stack_words:int -> ?io_words:int -> Program.t -> state
(** Fresh state at the program entry; all registers and memories zero.
    Defaults: 4096 data words, 1024 stack words, 64 io words. *)

val halted : state -> bool

val step : Program.t -> state -> event option
(** Execute one instruction.  [None] if already halted or the executed
    instruction is [Halt].
    @raise Fault on memory/call-stack violations. *)

val step_decoded : Program.t -> state -> Instr.t -> event option
(** [step] with the instruction at [state.pc] already decoded, so a
    caller that has the instruction in hand (the simulator plans it
    before executing it) does not pay the fetch again.  [ins] must be the
    instruction at [state.pc]. *)

val run : ?fuel:int -> Program.t -> state -> int
(** Run to halt; returns the number of instructions executed (including
    those executed before the call).  Default fuel: [10_000_000].
    @raise Fault if the fuel is exhausted (likely a non-terminating
    program, which a WCET workload must not be). *)

val alu : Instr.alu_op -> int -> int -> int
(** The pure ALU function, exposed for the simulator. *)

val cond_holds : Instr.cond -> int -> int -> bool
(** Branch-condition evaluation, exposed for the simulator. *)

val set_reg : state -> Instr.reg -> int -> unit
(** Register write with the r0-is-zero guard. *)

val read_mem : state -> Instr.space -> int -> int
(** Word read at a space-relative index.
    @raise Fault out of range. *)

val write_mem : state -> Instr.space -> int -> int -> unit
(** Word write at a space-relative index.
    @raise Fault out of range. *)

val in_range : state -> Instr.space -> int -> bool
(** Whether a space-relative word index lies inside its memory. *)

val check_index : state -> store:bool -> Instr.space -> int -> unit
(** Raises the {!Fault} that {!write_mem} (with [store]) or {!read_mem}
    (without) raises at an out-of-range index, and returns otherwise:
    the simulator checks an access before its cache model sees the
    address. *)
