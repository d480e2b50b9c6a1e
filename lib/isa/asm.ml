exception Parse_error of int * string

let fail line fmt = Printf.ksprintf (fun m -> raise (Parse_error (line, m))) fmt

let strip_comment s =
  let cut c s =
    match String.index_opt s c with
    | Some i -> String.sub s 0 i
    | None -> s
  in
  cut ';' (cut '#' s)

(* Split "add r1, r2, r3" into mnemonic and comma-separated operands. *)
let split_operands line s =
  match String.index_opt s ' ' with
  | None -> (s, [])
  | Some i ->
      let mnemonic = String.sub s 0 i in
      let rest = String.sub s i (String.length s - i) in
      let ops =
        String.split_on_char ',' rest
        |> List.map String.trim
        |> List.filter (fun x -> x <> "")
      in
      if mnemonic = "" then fail line "empty mnemonic";
      (mnemonic, ops)

let parse_reg line s =
  let len = String.length s in
  if len >= 2 && s.[0] = 'r' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some i when i >= 0 && i < Instr.num_regs -> i
    | Some i -> fail line "register r%d out of range" i
    | None -> fail line "bad register %S" s
  else fail line "expected register, got %S" s

let parse_imm line s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> fail line "bad immediate %S" s

(* "8(r2)" -> (offset, base register) *)
let parse_mem_operand line s =
  match String.index_opt s '(' with
  | None -> fail line "expected off(reg), got %S" s
  | Some i ->
      let off_str = String.sub s 0 i in
      let len = String.length s in
      if len = 0 || s.[len - 1] <> ')' then
        fail line "expected off(reg), got %S" s
      else
        let reg_str = String.sub s (i + 1) (len - i - 2) in
        let off = if off_str = "" then 0 else parse_imm line off_str in
        (off, parse_reg line reg_str)

let alu_of_mnemonic = function
  | "add" -> Some Instr.Add
  | "sub" -> Some Instr.Sub
  | "mul" -> Some Instr.Mul
  | "div" -> Some Instr.Div
  | "rem" -> Some Instr.Rem
  | "and" -> Some Instr.And
  | "or" -> Some Instr.Or
  | "xor" -> Some Instr.Xor
  | "sll" -> Some Instr.Sll
  | "srl" -> Some Instr.Srl
  | "slt" -> Some Instr.Slt
  | _ -> None

let cond_of_mnemonic = function
  | "beq" -> Some Instr.Eq
  | "bne" -> Some Instr.Ne
  | "blt" -> Some Instr.Lt
  | "bge" -> Some Instr.Ge
  | _ -> None

let space_of_suffix line = function
  | "d" -> Instr.Data
  | "s" -> Instr.Stack
  | "io" -> Instr.Io
  | s -> fail line "bad address space suffix %S" s

let parse_instr line mnemonic ops =
  let reg = parse_reg line and imm = parse_imm line in
  let r3 () =
    match ops with
    | [ a; b; c ] -> (reg a, reg b, reg c)
    | _ -> fail line "%s expects 3 register operands" mnemonic
  in
  let r2i () =
    match ops with
    | [ a; b; c ] -> (reg a, reg b, imm c)
    | _ -> fail line "%s expects rd, rs, imm" mnemonic
  in
  let mem () =
    match ops with
    | [ a; b ] ->
        let off, base = parse_mem_operand line b in
        (reg a, base, off)
    | _ -> fail line "%s expects reg, off(reg)" mnemonic
  in
  match mnemonic with
  | "jmp" -> (
      match ops with
      | [ l ] -> Instr.Jump l
      | _ -> fail line "jmp expects a label")
  | "call" -> (
      match ops with
      | [ l ] -> Instr.Call l
      | _ -> fail line "call expects a label")
  | "ret" -> if ops = [] then Instr.Ret else fail line "ret takes no operands"
  | "nop" -> if ops = [] then Instr.Nop else fail line "nop takes no operands"
  | "halt" ->
      if ops = [] then Instr.Halt else fail line "halt takes no operands"
  | "li" -> (
      match ops with
      | [ a; b ] -> Instr.Alui (Instr.Add, reg a, 0, imm b)
      | _ -> fail line "li expects rd, imm")
  | "mv" -> (
      match ops with
      | [ a; b ] -> Instr.Alu (Instr.Add, reg a, reg b, 0)
      | _ -> fail line "mv expects rd, rs")
  | _ -> (
      match cond_of_mnemonic mnemonic with
      | Some c -> (
          match ops with
          | [ a; b; l ] -> Instr.Branch (c, reg a, reg b, l)
          | _ -> fail line "%s expects r1, r2, label" mnemonic)
      | None -> (
          (* ld.X / st.X *)
          match String.split_on_char '.' mnemonic with
          | [ "ld"; sp ] ->
              let rd, base, off = mem () in
              Instr.Load (space_of_suffix line sp, rd, base, off)
          | [ "st"; sp ] ->
              let rv, base, off = mem () in
              Instr.Store (space_of_suffix line sp, rv, base, off)
          | _ -> (
              (* ALU register or immediate form: "add" / "addi" *)
              match alu_of_mnemonic mnemonic with
              | Some op ->
                  let rd, rs1, rs2 = r3 () in
                  Instr.Alu (op, rd, rs1, rs2)
              | None ->
                  let len = String.length mnemonic in
                  if len > 1 && mnemonic.[len - 1] = 'i' then
                    match alu_of_mnemonic (String.sub mnemonic 0 (len - 1))
                    with
                    | Some op ->
                        let rd, rs1, i = r2i () in
                        Instr.Alui (op, rd, rs1, i)
                    | None -> fail line "unknown mnemonic %S" mnemonic
                  else fail line "unknown mnemonic %S" mnemonic)))

let parse ~name ?entry source =
  let lines = String.split_on_char '\n' source in
  let code = ref [] and labels = ref [] and index = ref 0 in
  List.iteri
    (fun lineno raw ->
      let line = lineno + 1 in
      let s = String.trim (strip_comment raw) in
      if s <> "" then begin
        (* A line may carry "label:" optionally followed by an instruction. *)
        let s =
          match String.index_opt s ':' with
          | Some i
            when String.for_all
                   (fun c ->
                     c = '_' || c = '.'
                     || (c >= 'a' && c <= 'z')
                     || (c >= 'A' && c <= 'Z')
                     || (c >= '0' && c <= '9'))
                   (String.sub s 0 i) ->
              let l = String.sub s 0 i in
              if l = "" then fail line "empty label";
              labels := (l, !index) :: !labels;
              String.trim (String.sub s (i + 1) (String.length s - i - 1))
          | Some _ | None -> s
        in
        if s <> "" then begin
          let mnemonic, ops = split_operands line s in
          code := parse_instr line mnemonic ops :: !code;
          incr index
        end
      end)
    lines;
  let code = Array.of_list (List.rev !code) in
  (* A trailing label would point one past the end; anchor it by appending
     a halt so "end:" style labels stay valid. *)
  let code, labels =
    if List.exists (fun (_, i) -> i = Array.length code) !labels then
      (Array.append code [| Instr.Halt |], !labels)
    else (code, !labels)
  in
  Program.make ~name ~code ~labels ?entry ()
