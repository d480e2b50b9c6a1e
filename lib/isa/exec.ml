type event =
  | Ev_alu of Instr.alu_op
  | Ev_load of Instr.space * int
  | Ev_store of Instr.space * int
  | Ev_branch of bool
  | Ev_jump
  | Ev_call
  | Ev_ret
  | Ev_nop

type state = {
  regs : int array;
  data : int array;
  stack : int array;
  io : int array;
  mutable pc : int;
  mutable call_stack : int list;
  mutable steps : int;
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun m -> raise (Fault m)) fmt

let init ?(data_words = 4096) ?(stack_words = 1024) ?(io_words = 64) program
    =
  {
    regs = Array.make Instr.num_regs 0;
    data = Array.make data_words 0;
    stack = Array.make stack_words 0;
    io = Array.make io_words 0;
    pc = program.Program.entry;
    call_stack = [];
    steps = 0;
  }

let halted state = state.pc < 0

let alu op a b =
  match op with
  | Instr.Add -> a + b
  | Instr.Sub -> a - b
  | Instr.Mul -> a * b
  | Instr.Div -> if b = 0 then 0 else a / b
  | Instr.Rem -> if b = 0 then 0 else a mod b
  | Instr.And -> a land b
  | Instr.Or -> a lor b
  | Instr.Xor -> a lxor b
  | Instr.Sll -> a lsl (b land 31)
  | Instr.Srl -> (a land 0xFFFF_FFFF) lsr (b land 31)
  | Instr.Slt -> if a < b then 1 else 0

let space_mem state = function
  | Instr.Data -> state.data
  | Instr.Stack -> state.stack
  | Instr.Io -> state.io

let range_fault ~store space idx =
  fault "%s %s[%d] out of range"
    (if store then "store" else "load")
    (Instr.space_to_string space) idx

let read_mem state space idx =
  let mem = space_mem state space in
  if idx < 0 || idx >= Array.length mem then
    range_fault ~store:false space idx
  else mem.(idx)

let write_mem state space idx v =
  let mem = space_mem state space in
  if idx < 0 || idx >= Array.length mem then
    range_fault ~store:true space idx
  else mem.(idx) <- v

let in_range state space idx =
  idx >= 0 && idx < Array.length (space_mem state space)

let check_index state ~store space idx =
  if not (in_range state space idx) then range_fault ~store space idx

let set_reg state r v = if r <> 0 then state.regs.(r) <- v

let cond_holds c a b =
  match c with
  | Instr.Eq -> a = b
  | Instr.Ne -> a <> b
  | Instr.Lt -> a < b
  | Instr.Ge -> a >= b

let step_decoded program state ins =
  if halted state then None
  else begin
    state.steps <- state.steps + 1;
    let next = state.pc + 1 in
    match ins with
    | Instr.Alu (op, rd, rs1, rs2) ->
        set_reg state rd (alu op state.regs.(rs1) state.regs.(rs2));
        state.pc <- next;
        Some (Ev_alu op)
    | Instr.Alui (op, rd, rs1, imm) ->
        set_reg state rd (alu op state.regs.(rs1) imm);
        state.pc <- next;
        Some (Ev_alu op)
    | Instr.Load (sp, rd, rb, off) ->
        let idx = state.regs.(rb) + off in
        set_reg state rd (read_mem state sp idx);
        state.pc <- next;
        Some (Ev_load (sp, Layout.byte_addr sp idx))
    | Instr.Store (sp, rv, rb, off) ->
        let idx = state.regs.(rb) + off in
        write_mem state sp idx state.regs.(rv);
        state.pc <- next;
        Some (Ev_store (sp, Layout.byte_addr sp idx))
    | Instr.Branch (c, r1, r2, l) ->
        let taken = cond_holds c state.regs.(r1) state.regs.(r2) in
        state.pc <- (if taken then Program.label_index program l else next);
        Some (Ev_branch taken)
    | Instr.Jump l ->
        state.pc <- Program.label_index program l;
        Some Ev_jump
    | Instr.Call l ->
        state.call_stack <- next :: state.call_stack;
        state.pc <- Program.label_index program l;
        Some Ev_call
    | Instr.Ret -> (
        match state.call_stack with
        | [] -> fault "ret with empty call stack"
        | r :: rest ->
            state.call_stack <- rest;
            state.pc <- r;
            Some Ev_ret)
    | Instr.Nop ->
        state.pc <- next;
        Some Ev_nop
    | Instr.Halt ->
        state.pc <- -1;
        None
  end

let step program state =
  if halted state then None
  else step_decoded program state (Program.instr program state.pc)

let run ?(fuel = 10_000_000) program state =
  let rec go budget =
    if halted state then state.steps
    else if budget <= 0 then fault "Exec.run: fuel exhausted"
    else begin
      ignore (step program state);
      go (budget - 1)
    end
  in
  go fuel
