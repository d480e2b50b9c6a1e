(* Flow-fact annotations: what happens when automatic loop-bound
   inference fails (input-dependent loops, the Gebhard et al. lDivMod
   pathology), and how annotations restore analysability.

   Run with: dune exec examples/annotations.exe *)

let source =
  {|
; Software division by repeated subtraction: the trip count depends on
; the dividend read from an I/O register, which no static analysis can
; bound on its own.
main:
  ld.io r1, 0(r0)    ; dividend (unknown input)
  li r2, 7           ; divisor
  li r3, 0           ; quotient
loop:
  blt r1, r2, done
  sub r1, r1, r2
  addi r3, r3, 1
  jmp loop
done:
  halt
|}

let () =
  let program = Isa.Asm.parse ~name:"divlike" source in
  let platform = Core.Platform.single_core () in

  (* Attempt 1: no annotations — the analysis must refuse. *)
  (match Core.Wcet.analyze platform program with
  | _ -> print_endline "unexpected: analysis succeeded without a bound"
  | exception Core.Wcet.Not_analysable msg ->
      Printf.printf "Without annotation, analysis refuses:\n  %s\n\n" msg);

  (* Attempt 2: the designer knows the dividend is at most 7*64, so the
     loop runs at most 64 times.  This is exactly the design-level
     knowledge Section 4.3 of Gebhard et al. argues should be recorded. *)
  let annot =
    Dataflow.Annot.with_loop_bound Dataflow.Annot.empty ~proc:"main"
      ~header_label:"loop" 64
  in
  let a = Core.Wcet.analyze ~annot platform program in
  Printf.printf "With a 64-iteration annotation:\n  WCET bound = %d cycles\n\n"
    a.Core.Wcet.wcet;

  (* Check the bound against the worst actual input the annotation
     admits (dividend = 7*64 - 1 runs the loop 63 times). *)
  let st = Isa.Exec.init program in
  Isa.Exec.write_mem st Isa.Instr.Io 0 ((7 * 64) - 1);
  ignore (Isa.Exec.run program st);
  Printf.printf "Reference execution with dividend %d: quotient r3 = %d\n"
    ((7 * 64) - 1)
    st.Isa.Exec.regs.(3);

  (* Mutually-exclusive paths (operating modes): two branches that the
     designer knows cannot both execute in one activation. *)
  let modes =
    Isa.Asm.parse ~name:"modes"
      {|
main:
  ld.io r1, 0(r0)
  beq r1, r0, ground
flight:
  mul r2, r1, r1
  mul r2, r2, r2
  mul r2, r2, r2
  jmp out
ground:
  nop
out:
  halt
|}
  in
  let plain = Core.Wcet.analyze platform modes in
  let excl =
    Core.Wcet.analyze
      ~annot:(Dataflow.Annot.infeasible_pair Dataflow.Annot.empty ~proc:"main"
                "flight" "ground")
      platform modes
  in
  Printf.printf
    "\nOperating modes: plain WCET %d; declaring flight/ground exclusive: %d\n"
    plain.Core.Wcet.wcet excl.Core.Wcet.wcet
