type reg = int

let num_regs = 32

let reg i =
  if i < 0 || i >= num_regs then
    invalid_arg (Printf.sprintf "Instr.reg: r%d out of range" i)
  else i

type space = Data | Stack | Io

type alu_op = Add | Sub | Mul | Div | Rem | And | Or | Xor | Sll | Srl | Slt

type cond = Eq | Ne | Lt | Ge

type label = string

type t =
  | Alu of alu_op * reg * reg * reg
  | Alui of alu_op * reg * reg * int
  | Load of space * reg * reg * int
  | Store of space * reg * reg * int
  | Branch of cond * reg * reg * label
  | Jump of label
  | Call of label
  | Ret
  | Nop
  | Halt

let is_control = function
  | Branch _ | Jump _ | Call _ | Ret | Halt -> true
  | Alu _ | Alui _ | Load _ | Store _ | Nop -> false

let alu_op_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Sll -> "sll"
  | Srl -> "srl"
  | Slt -> "slt"

let cond_to_string = function
  | Eq -> "beq"
  | Ne -> "bne"
  | Lt -> "blt"
  | Ge -> "bge"

let space_to_string = function Data -> "d" | Stack -> "s" | Io -> "io"

let pp ppf t =
  match t with
  | Alu (op, rd, rs1, rs2) ->
      Format.fprintf ppf "%s r%d, r%d, r%d" (alu_op_to_string op) rd rs1 rs2
  | Alui (op, rd, rs1, imm) ->
      Format.fprintf ppf "%si r%d, r%d, %d" (alu_op_to_string op) rd rs1 imm
  | Load (sp, rd, rb, off) ->
      Format.fprintf ppf "ld.%s r%d, %d(r%d)" (space_to_string sp) rd off rb
  | Store (sp, rv, rb, off) ->
      Format.fprintf ppf "st.%s r%d, %d(r%d)" (space_to_string sp) rv off rb
  | Branch (c, r1, r2, l) ->
      Format.fprintf ppf "%s r%d, r%d, %s" (cond_to_string c) r1 r2 l
  | Jump l -> Format.fprintf ppf "jmp %s" l
  | Call l -> Format.fprintf ppf "call %s" l
  | Ret -> Format.pp_print_string ppf "ret"
  | Nop -> Format.pp_print_string ppf "nop"
  | Halt -> Format.pp_print_string ppf "halt"

let to_string t = Format.asprintf "%a" pp t
