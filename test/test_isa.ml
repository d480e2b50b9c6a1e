(* Tests for the MiniRISC ISA: assembler, program validation, semantics. *)

let parse ?entry src = Isa.Asm.parse ~name:"t" ?entry src

(* ------------------------------------------------------------------ *)
(* Assembler                                                          *)
(* ------------------------------------------------------------------ *)

let test_parse_simple () =
  let p = parse "main:\n  addi r1, r0, 5\n  halt\n" in
  Alcotest.(check int) "length" 2 (Isa.Program.length p);
  Alcotest.(check int) "entry" 0 p.Isa.Program.entry;
  match Isa.Program.instr p 0 with
  | Isa.Instr.Alui (Isa.Instr.Add, 1, 0, 5) -> ()
  | i -> Alcotest.failf "unexpected instr %s" (Isa.Instr.to_string i)

let test_parse_all_mnemonics () =
  let src =
    {|
main:
  add  r1, r2, r3
  sub  r1, r2, r3
  mul  r1, r2, r3
  div  r1, r2, r3
  rem  r1, r2, r3
  and  r1, r2, r3
  or   r1, r2, r3
  xor  r1, r2, r3
  sll  r1, r2, r3
  srl  r1, r2, r3
  slt  r1, r2, r3
  addi r1, r2, -7
  subi r1, r2, 3
  muli r1, r2, 3
  slti r1, r2, 3
  ld.d r1, 4(r2)
  ld.s r1, 0(r2)
  ld.io r1, 8(r2)
  st.d r1, 4(r2)
  st.s r1, (r2)
  st.io r1, 0(r2)
  beq r1, r2, main
  bne r1, r2, main
  blt r1, r2, main
  bge r1, r2, main
  li r5, 42
  mv r6, r5
  jmp main
  call main
  ret
  nop
  halt
|}
  in
  let p = parse src in
  Alcotest.(check int) "all parsed" 32 (Isa.Program.length p)

let test_parse_label_same_line () =
  let p = parse "main: addi r1, r0, 1\n halt" in
  Alcotest.(check int) "two instrs" 2 (Isa.Program.length p);
  Alcotest.(check int) "label at 0" 0 (Isa.Program.label_index p "main")

let test_parse_comments_blank () =
  let p =
    parse "; leading comment\n\nmain:\n  nop ; trailing\n  # hash comment\n  halt\n"
  in
  Alcotest.(check int) "two instrs" 2 (Isa.Program.length p)

let test_parse_trailing_label () =
  (* A label at the very end gets an implicit halt anchor. *)
  let p = parse "main:\n  jmp end\nend:\n" in
  Alcotest.(check int) "appended halt" 2 (Isa.Program.length p);
  match Isa.Program.instr p (Isa.Program.label_index p "end") with
  | Isa.Instr.Halt -> ()
  | i -> Alcotest.failf "expected halt, got %s" (Isa.Instr.to_string i)

let test_parse_errors () =
  let expect_error src =
    match parse src with
    | exception Isa.Asm.Parse_error _ -> ()
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "expected parse error for %S" src
  in
  expect_error "main:\n  bogus r1, r2\n  halt";
  expect_error "main:\n  add r1, r2\n  halt";
  expect_error "main:\n  addi r1, r2, x\n  halt";
  expect_error "main:\n  add r1, r2, r99\n  halt";
  expect_error "main:\n  ld.q r1, 0(r2)\n  halt";
  expect_error "main:\n  jmp nowhere\n  halt"

let test_program_validation () =
  (* Branch to unknown label is rejected by Program.make. *)
  Alcotest.check_raises "unknown label"
    (Invalid_argument "Program.make: unknown label missing") (fun () ->
      ignore
        (Isa.Program.make ~name:"t"
           ~code:[| Isa.Instr.Jump "missing"; Isa.Instr.Halt |]
           ~labels:[ ("main", 0) ] ()))

let test_addressing () =
  let p = parse "main:\n  nop\n  nop\n  halt\n" in
  Alcotest.(check int) "addr of 0" 0 (Isa.Program.addr_of_index p 0);
  Alcotest.(check int) "addr of 2" 8 (Isa.Program.addr_of_index p 2);
  Alcotest.(check int) "roundtrip" 2
    (Isa.Program.index_of_addr p (Isa.Program.addr_of_index p 2));
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Program.index_of_addr: 0x2") (fun () ->
      ignore (Isa.Program.index_of_addr p 2))

(* ------------------------------------------------------------------ *)
(* Semantics                                                          *)
(* ------------------------------------------------------------------ *)

let run_program src =
  let p = parse src in
  let st = Isa.Exec.init p in
  ignore (Isa.Exec.run p st);
  (p, st)

let test_exec_arith () =
  let _, st =
    run_program
      {|
main:
  li r1, 6
  li r2, 7
  mul r3, r1, r2
  add r4, r3, r1
  sub r5, r4, r2
  div r6, r3, r2
  rem r7, r3, r4
  halt
|}
  in
  Alcotest.(check int) "mul" 42 st.Isa.Exec.regs.(3);
  Alcotest.(check int) "add" 48 st.Isa.Exec.regs.(4);
  Alcotest.(check int) "sub" 41 st.Isa.Exec.regs.(5);
  Alcotest.(check int) "div" 6 st.Isa.Exec.regs.(6);
  Alcotest.(check int) "rem" 42 st.Isa.Exec.regs.(7)

let test_exec_r0_immutable () =
  let _, st = run_program "main:\n  addi r0, r0, 99\n  halt\n" in
  Alcotest.(check int) "r0 stays 0" 0 st.Isa.Exec.regs.(0)

let test_exec_div_by_zero_total () =
  let _, st =
    run_program "main:\n  li r1, 5\n  div r2, r1, r0\n  rem r3, r1, r0\n  halt\n"
  in
  Alcotest.(check int) "div by 0 = 0" 0 st.Isa.Exec.regs.(2);
  Alcotest.(check int) "rem by 0 = 0" 0 st.Isa.Exec.regs.(3)

let test_exec_loop () =
  (* Sum 1..10 = 55. *)
  let _, st =
    run_program
      {|
main:
  li r1, 10
  li r2, 0
loop:
  add r2, r2, r1
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  Alcotest.(check int) "sum" 55 st.Isa.Exec.regs.(2)

let test_exec_memory () =
  let _, st =
    run_program
      {|
main:
  li r1, 3
  li r2, 17
  st.d r2, 5(r1)
  ld.d r3, 8(r0)
  li r4, 9
  st.s r4, 0(r0)
  ld.s r5, 0(r0)
  halt
|}
  in
  Alcotest.(check int) "data store/load" 17 st.Isa.Exec.regs.(3);
  Alcotest.(check int) "stack store/load" 9 st.Isa.Exec.regs.(5);
  Alcotest.(check int) "data mem" 17 (Isa.Exec.read_mem st Isa.Instr.Data 8)

let test_exec_call_ret () =
  let _, st =
    run_program
      {|
main:
  li r1, 4
  call double
  call double
  halt
double:
  add r1, r1, r1
  ret
|}
  in
  Alcotest.(check int) "double twice" 16 st.Isa.Exec.regs.(1)

let test_exec_fault_on_bad_access () =
  let p = parse "main:\n  li r1, -1\n  ld.d r2, 0(r1)\n  halt\n" in
  let st = Isa.Exec.init p in
  (match Isa.Exec.run p st with
  | exception Isa.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected fault");
  let p2 = parse "main:\n  ret\n" in
  let st2 = Isa.Exec.init p2 in
  match Isa.Exec.run p2 st2 with
  | exception Isa.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected call-stack fault"

let test_exec_fuel () =
  let p = parse "main:\n  jmp main\n" in
  let st = Isa.Exec.init p in
  match Isa.Exec.run ~fuel:1000 p st with
  | exception Isa.Exec.Fault _ -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_exec_events () =
  let p = parse "main:\n  li r1, 1\n  ld.io r2, 0(r0)\n  halt\n" in
  let st = Isa.Exec.init p in
  (match Isa.Exec.step p st with
  | Some (Isa.Exec.Ev_alu Isa.Instr.Add) -> ()
  | _ -> Alcotest.fail "expected alu event");
  (match Isa.Exec.step p st with
  | Some (Isa.Exec.Ev_load (Isa.Instr.Io, a)) ->
      Alcotest.(check int) "io addr" Isa.Layout.io_base a
  | _ -> Alcotest.fail "expected io load event");
  match Isa.Exec.step p st with
  | None -> Alcotest.(check bool) "halted" true (Isa.Exec.halted st)
  | Some _ -> Alcotest.fail "expected halt"

let test_layout () =
  Alcotest.(check bool) "io uncached" false
    (Isa.Layout.is_cacheable Isa.Instr.Io);
  Alcotest.(check bool) "data cached" true
    (Isa.Layout.is_cacheable Isa.Instr.Data);
  let d = Isa.Layout.byte_addr Isa.Instr.Data 1 in
  let s = Isa.Layout.byte_addr Isa.Instr.Stack 1 in
  Alcotest.(check bool) "spaces disjoint" true (d <> s)

(* Property: assembling the pretty-printed form of a program yields the
   same instructions (parser/printer roundtrip). *)
let arb_instr =
  let open QCheck.Gen in
  let reg = int_range 0 31 in
  let alu_op =
    oneofl
      [
        Isa.Instr.Add; Isa.Instr.Sub; Isa.Instr.Mul; Isa.Instr.Div;
        Isa.Instr.Rem; Isa.Instr.And; Isa.Instr.Or; Isa.Instr.Xor;
        Isa.Instr.Sll; Isa.Instr.Srl; Isa.Instr.Slt;
      ]
  in
  let space = oneofl [ Isa.Instr.Data; Isa.Instr.Stack; Isa.Instr.Io ] in
  let cond =
    oneofl [ Isa.Instr.Eq; Isa.Instr.Ne; Isa.Instr.Lt; Isa.Instr.Ge ]
  in
  oneof
    [
      map3 (fun op a b -> Isa.Instr.Alu (op, a, b, a)) alu_op reg reg;
      map3
        (fun op a i -> Isa.Instr.Alui (op, a, a, i))
        alu_op reg (int_range (-100) 100);
      map3 (fun sp a off -> Isa.Instr.Load (sp, a, a, off)) space reg
        (int_range 0 64);
      map3 (fun sp a off -> Isa.Instr.Store (sp, a, a, off)) space reg
        (int_range 0 64);
      map3 (fun c a b -> Isa.Instr.Branch (c, a, b, "main")) cond reg reg;
      return (Isa.Instr.Jump "main");
      return Isa.Instr.Nop;
    ]

let prop_asm_roundtrip =
  QCheck.Test.make ~name:"assembler roundtrips printed instructions"
    ~count:300
    (QCheck.make
       ~print:(fun l -> String.concat "\n" (List.map Isa.Instr.to_string l))
       QCheck.Gen.(list_size (int_range 1 20) arb_instr))
    (fun instrs ->
      let src =
        "main:\n"
        ^ String.concat "\n"
            (List.map (fun i -> "  " ^ Isa.Instr.to_string i) instrs)
        ^ "\n  halt\n"
      in
      let p = parse src in
      let expected = Array.of_list (instrs @ [ Isa.Instr.Halt ]) in
      p.Isa.Program.code = expected)

(* Property: the loop summing 1..n computes n(n+1)/2 and executes
   2 + 3n + 1 instructions. *)
let prop_sum_loop =
  QCheck.Test.make ~name:"sum loop semantics" ~count:50
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 200))
    (fun n ->
      let src =
        Printf.sprintf
          "main:\n  li r1, %d\n  li r2, 0\nloop:\n  add r2, r2, r1\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\n"
          n
      in
      let p = parse src in
      let st = Isa.Exec.init p in
      let steps = Isa.Exec.run p st in
      st.Isa.Exec.regs.(2) = n * (n + 1) / 2 && steps = 2 + (3 * n) + 1)

(* Property: the grow-on-write memories behave as flat zero-filled
   arrays of their spaces' sizes — values, faults and range answers —
   and [equal_state] sees only the words, not how far a memory grew. *)
type mem_op =
  | Op_load of Isa.Instr.space * int
  | Op_store of Isa.Instr.space * int * int
  | Op_check of bool * Isa.Instr.space * int  (** [store]? *)
  | Op_in_range of Isa.Instr.space * int

let spaces = [ Isa.Instr.Data; Isa.Instr.Stack; Isa.Instr.Io ]

let space_rank = function
  | Isa.Instr.Data -> 0
  | Isa.Instr.Stack -> 1
  | Isa.Instr.Io -> 2

let show_mem_op op =
  let sp = Isa.Instr.space_to_string in
  match op with
  | Op_load (s, i) -> Printf.sprintf "ld.%s %d" (sp s) i
  | Op_store (s, i, v) -> Printf.sprintf "st.%s %d <- %d" (sp s) i v
  | Op_check (store, s, i) -> Printf.sprintf "check.%s %d %b" (sp s) i store
  | Op_in_range (s, i) -> Printf.sprintf "in_range.%s %d" (sp s) i

(* Space sizes (the defaults or small ones that are not powers of two)
   and an access sequence over indices -1, 0, size-1, size and random
   in-range ones. *)
let arb_mem_case =
  let open QCheck.Gen in
  let size default = oneof [ return default; int_range 1 200 ] in
  let* sizes = triple (size 4096) (size 1024) (size 64) in
  let d, s, io = sizes in
  let op =
    let* sp = oneofl spaces in
    let n = [| d; s; io |].(space_rank sp) in
    let* i = oneof [ oneofl [ -1; 0; n - 1; n ]; int_range 0 (n - 1) ] in
    let* v = oneof [ return 0; int_range (-9) 99 ] in
    let* store = bool in
    oneofl
      [ Op_load (sp, i); Op_store (sp, i, v); Op_check (store, sp, i);
        Op_in_range (sp, i) ]
  in
  pair (return sizes) (list_size (int_range 0 60) op)

let prop_memory_model =
  QCheck.Test.make ~name:"grow-on-write memory matches a flat array"
    ~count:300
    (QCheck.make
       ~print:(fun ((d, s, io), ops) ->
         Printf.sprintf "sizes %d/%d/%d: %s" d s io
           (String.concat "; " (List.map show_mem_op ops)))
       arb_mem_case)
    (fun ((d, s, io), ops) ->
      let p = parse "main:\n  halt\n" in
      let fresh () =
        Isa.Exec.init ~data_words:d ~stack_words:s ~io_words:io p
      in
      let st = fresh () in
      let model = [| Array.make d 0; Array.make s 0; Array.make io 0 |] in
      let words sp = model.(space_rank sp) in
      let in_model sp i = i >= 0 && i < Array.length (words sp) in
      (* One access, through the memory and through the model. *)
      let agrees ~store sp i f model_f =
        let fault =
          Printf.sprintf "%s %s[%d] out of range"
            (if store then "store" else "load")
            (Isa.Instr.space_to_string sp) i
        in
        (match f () with v -> Ok v | exception Isa.Exec.Fault m -> Error m)
        = if in_model sp i then Ok (model_f ()) else Error fault
      in
      let run = function
        | Op_load (sp, i) ->
            agrees ~store:false sp i
              (fun () -> Isa.Exec.read_mem st sp i)
              (fun () -> (words sp).(i))
        | Op_store (sp, i, v) ->
            agrees ~store:true sp i
              (fun () -> Isa.Exec.write_mem st sp i v)
              (fun () -> (words sp).(i) <- v)
        | Op_check (store, sp, i) ->
            agrees ~store sp i
              (fun () -> Isa.Exec.check_index st ~store sp i)
              ignore
        | Op_in_range (sp, i) -> Isa.Exec.in_range st sp i = in_model sp i
      in
      let agree = List.for_all run ops in
      let every_word sp =
        let m = words sp in
        let rec go i =
          i >= Array.length m
          || (Isa.Exec.read_mem st sp i = m.(i) && go (i + 1))
        in
        go 0
      in
      (* The last value stored at each word, replayed into fresh states
         in reverse order. *)
      let stored =
        List.fold_left
          (fun acc op ->
            match op with
            | Op_store (sp, i, v) when in_model sp i ->
                (sp, i, v)
                :: List.filter (fun (sp', i', _) -> (sp', i') <> (sp, i)) acc
            | _ -> acc)
          [] ops
      in
      let replay () =
        let r = fresh () in
        List.iter (fun (sp, i, v) -> Isa.Exec.write_mem r sp i v) stored;
        r
      in
      (* A 0 stored at the top of every space whose top word holds 0
         grows that memory to its full size and changes no word... *)
      let zeroed = replay () in
      List.iter
        (fun sp ->
          let n = Array.length (words sp) in
          if (words sp).(n - 1) = 0 then
            Isa.Exec.write_mem zeroed sp (n - 1) 0)
        spaces;
      (* ... while a changed word must be seen. *)
      let changed = replay () in
      Isa.Exec.write_mem changed Isa.Instr.Data 0
        ((words Isa.Instr.Data).(0) + 1);
      let all_zero = List.for_all (fun (_, _, v) -> v = 0) stored in
      agree
      && List.for_all every_word spaces
      && Isa.Exec.equal_state st (replay ())
      && Isa.Exec.equal_state st zeroed
      && Isa.Exec.equal_state zeroed st
      && Isa.Exec.equal_state st (fresh ()) = all_zero
      && not (Isa.Exec.equal_state st changed))

let () =
  Alcotest.run "isa"
    [
      ( "asm",
        [
          Alcotest.test_case "simple" `Quick test_parse_simple;
          Alcotest.test_case "all mnemonics" `Quick test_parse_all_mnemonics;
          Alcotest.test_case "label on instruction line" `Quick
            test_parse_label_same_line;
          Alcotest.test_case "comments and blanks" `Quick
            test_parse_comments_blank;
          Alcotest.test_case "trailing label" `Quick test_parse_trailing_label;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "program validation" `Quick
            test_program_validation;
          Alcotest.test_case "addressing" `Quick test_addressing;
        ] );
      ( "exec",
        [
          Alcotest.test_case "arithmetic" `Quick test_exec_arith;
          Alcotest.test_case "r0 immutable" `Quick test_exec_r0_immutable;
          Alcotest.test_case "division by zero is total" `Quick
            test_exec_div_by_zero_total;
          Alcotest.test_case "counting loop" `Quick test_exec_loop;
          Alcotest.test_case "memory spaces" `Quick test_exec_memory;
          Alcotest.test_case "call/ret" `Quick test_exec_call_ret;
          Alcotest.test_case "faults" `Quick test_exec_fault_on_bad_access;
          Alcotest.test_case "fuel exhaustion" `Quick test_exec_fuel;
          Alcotest.test_case "events" `Quick test_exec_events;
          Alcotest.test_case "layout" `Quick test_layout;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_asm_roundtrip; prop_sum_loop; prop_memory_model ] );
    ]
