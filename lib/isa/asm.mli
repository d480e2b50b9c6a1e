(** Two-pass assembler for MiniRISC text assembly.

    Syntax, one instruction or label per line:
    {v
      ; comment (also #)
      main:                     ; label
        li   r1, 10             ; pseudo: addi r1, r0, 10
        mv   r2, r1             ; pseudo: add r2, r1, r0
        add  r3, r1, r2
        addi r3, r3, -1
        mul  r4, r3, r3
        ld.d r5, 8(r2)          ; load from Data space
        st.s r5, 0(r2)          ; store to Stack space
        beq  r1, r0, done
        jmp  main
        call f
        ret
        nop
        halt
    v}

    Mnemonics: [add sub mul div rem and or xor sll srl slt] (+ [i]-suffixed
    immediate forms), [ld.d ld.s ld.io], [st.d st.s st.io],
    [beq bne blt bge], [jmp], [call], [ret], [nop], [halt], and pseudos
    [li], [mv]. *)

exception Parse_error of int * string
(** Line number (1-based) and message. *)

val parse : name:string -> ?entry:string -> string -> Program.t
(** @raise Parse_error on malformed input.
    @raise Invalid_argument on undefined labels (from {!Program.make}). *)
