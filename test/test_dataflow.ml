(* Tests for interval domain, value analysis, loop-bound inference. *)

module I = Dataflow.Interval

let parse src = Isa.Asm.parse ~name:"t" src

let build src =
  let p = parse src in
  Cfg.Graph.build p ~entry:"main"

let analyze_all src =
  let g = build src in
  let dom = Cfg.Dominators.compute g in
  let li = Cfg.Loops.analyze g dom in
  let va = Dataflow.Value_analysis.analyze g in
  (g, dom, li, va)

let interval = Alcotest.testable I.pp I.equal

(* ------------------------------------------------------------------ *)
(* Interval domain                                                    *)
(* ------------------------------------------------------------------ *)

let test_interval_basics () =
  Alcotest.check interval "join" (I.range 1 5) (I.join (I.range 1 2) (I.range 4 5));
  Alcotest.check interval "meet" (I.range 4 5) (I.meet (I.range 1 5) (I.range 4 9));
  Alcotest.check interval "meet disjoint" I.bottom
    (I.meet (I.range 1 2) (I.range 4 9));
  Alcotest.check interval "join bottom" (I.const 3) (I.join I.bottom (I.const 3));
  Alcotest.(check bool) "subset" true (I.subset (I.range 2 3) (I.range 1 5));
  Alcotest.(check bool) "contains" true (I.contains (I.range 1 5) 3);
  Alcotest.(check (option int)) "is_const" (Some 7) (I.is_const (I.const 7))

let test_interval_arith () =
  Alcotest.check interval "add" (I.range 3 7) (I.add (I.range 1 2) (I.range 2 5));
  Alcotest.check interval "sub" (I.range (-4) 0)
    (I.sub (I.range 1 2) (I.range 2 5));
  Alcotest.check interval "mul pos" (I.range 2 10)
    (I.mul (I.range 1 2) (I.range 2 5));
  Alcotest.check interval "mul signs" (I.range (-10) 10)
    (I.mul (I.range (-2) 2) (I.range 2 5));
  Alcotest.check interval "mul by zero const" (I.const 0)
    (I.mul I.top (I.const 0));
  Alcotest.check interval "neg" (I.range (-5) (-2)) (I.neg (I.range 2 5));
  Alcotest.check interval "div" (I.range 1 5) (I.div (I.range 2 10) (I.const 2));
  Alcotest.check interval "slt true" (I.const 1)
    (I.slt (I.range 0 3) (I.range 5 9));
  Alcotest.check interval "slt false" (I.const 0)
    (I.slt (I.range 5 9) (I.range 0 3));
  Alcotest.check interval "slt unknown" (I.range 0 1)
    (I.slt (I.range 0 9) (I.range 5 6))

let test_interval_widen () =
  let w = I.widen (I.range 0 3) (I.range 0 5) in
  Alcotest.(check (option int)) "low stable" (Some 0) (I.finite_lower w);
  Alcotest.(check (option int)) "high widened" None (I.finite_upper w);
  let w2 = I.widen (I.range 0 3) (I.range (-1) 3) in
  Alcotest.(check (option int)) "low widened" None (I.finite_lower w2);
  Alcotest.(check (option int)) "high stable" (Some 3) (I.finite_upper w2)

let test_interval_refine () =
  let a, b = I.refine_lt (I.range 0 10) (I.const 5) in
  Alcotest.check interval "a < 5" (I.range 0 4) a;
  Alcotest.check interval "5 unchanged" (I.const 5) b;
  let a, _ = I.refine_ge (I.range 0 10) (I.const 5) in
  Alcotest.check interval "a >= 5" (I.range 5 10) a;
  let a, _ = I.refine_ne (I.range 0 10) (I.const 0) in
  Alcotest.check interval "a != 0 (endpoint)" (I.range 1 10) a;
  let a, _ = I.refine_ne (I.range 0 10) (I.const 5) in
  Alcotest.check interval "a != 5 (interior, no sharpening)" (I.range 0 10) a;
  let a, b = I.refine_eq (I.range 0 10) (I.range 5 20) in
  Alcotest.check interval "eq meet a" (I.range 5 10) a;
  Alcotest.check interval "eq meet b" (I.range 5 10) b

(* Property: abstract ops over-approximate the concrete ops. *)
let arb_small_interval =
  QCheck.make
    ~print:(fun (a, b) -> Printf.sprintf "[%d,%d]" a b)
    QCheck.Gen.(
      let* a = int_range (-20) 20 in
      let* w = int_range 0 10 in
      return (a, a + w))

let prop_sound op_name abstract concrete =
  QCheck.Test.make
    ~name:(Printf.sprintf "interval %s is sound" op_name)
    ~count:300
    (QCheck.pair arb_small_interval arb_small_interval)
    (fun ((a1, b1), (a2, b2)) ->
      let ia = I.range a1 b1 and ib = I.range a2 b2 in
      let ir = abstract ia ib in
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> I.contains ir (concrete x y))
            [ a2; (a2 + b2) / 2; b2 ])
        [ a1; (a1 + b1) / 2; b1 ])

let interval_soundness_props =
  [
    prop_sound "add" I.add ( + );
    prop_sound "sub" I.sub ( - );
    prop_sound "mul" I.mul ( * );
    prop_sound "slt" I.slt (fun x y -> if x < y then 1 else 0);
    prop_sound "div" I.div (fun x y -> if y = 0 then 0 else x / y)
    |> fun t -> t;
  ]

(* ------------------------------------------------------------------ *)
(* Value analysis                                                     *)
(* ------------------------------------------------------------------ *)

let test_va_straightline () =
  let g, _, _, va =
    analyze_all "main:\n  li r1, 5\n  addi r2, r1, 3\n  mul r3, r1, r2\n  halt\n"
  in
  let out = Dataflow.Value_analysis.block_out va g.Cfg.Graph.entry in
  Alcotest.check interval "r1" (I.const 5) out.(1);
  Alcotest.check interval "r2" (I.const 8) out.(2);
  Alcotest.check interval "r3" (I.const 40) out.(3)

let test_va_r0_pinned () =
  let g, _, _, va = analyze_all "main:\n  addi r0, r0, 9\n  halt\n" in
  let out = Dataflow.Value_analysis.block_out va g.Cfg.Graph.entry in
  Alcotest.check interval "r0 = 0" (I.const 0) out.(0)

let test_va_diamond_join () =
  let g, _, _, va =
    analyze_all
      {|
main:
  ld.d r3, 0(r0)
  beq r3, r0, other
  li r1, 10
  jmp join
other:
  li r1, 20
join:
  halt
|}
  in
  let join_id =
    match g.Cfg.Graph.exits with [ j ] -> j | _ -> Alcotest.fail "one exit"
  in
  let s = Dataflow.Value_analysis.block_in va join_id in
  Alcotest.check interval "r1 joined" (I.range 10 20) s.(1)

let test_va_load_is_top () =
  let g, _, _, va = analyze_all "main:\n  ld.d r1, 0(r0)\n  halt\n" in
  let out = Dataflow.Value_analysis.block_out va g.Cfg.Graph.entry in
  Alcotest.check interval "load top" I.top out.(1)

let test_va_call_clobbers () =
  let g, _, _, va =
    analyze_all "main:\n  li r1, 5\n  call f\n  halt\nf:\n  ret\n"
  in
  (* After the call block, r1 is unknown. *)
  let exit_id = List.hd g.Cfg.Graph.exits in
  let s = Dataflow.Value_analysis.block_in va exit_id in
  Alcotest.check interval "r1 clobbered" I.top s.(1)

let test_va_loop_widening_terminates () =
  let g, _, _, va =
    analyze_all
      {|
main:
  li r1, 0
loop:
  addi r1, r1, 1
  blt r1, r2, loop
  halt
|}
  in
  (* r2 unknown: widening must still terminate, r1 >= 0. *)
  let exit_id = List.hd g.Cfg.Graph.exits in
  let s = Dataflow.Value_analysis.block_in va exit_id in
  match Dataflow.Value_analysis.reg_interval s 1 with
  | i ->
      Alcotest.(check bool) "lower bound >= 0" true
        (match I.finite_lower i with Some l -> l >= 0 | None -> false)

let test_va_state_before_instr () =
  let g, _, _, va =
    analyze_all "main:\n  li r1, 5\n  addi r1, r1, 1\n  halt\n"
  in
  (match Dataflow.Value_analysis.state_before_instr va g 1 with
  | Some s -> Alcotest.check interval "before addi" (I.const 5) s.(1)
  | None -> Alcotest.fail "reachable");
  match Dataflow.Value_analysis.state_before_instr va g 2 with
  | Some s -> Alcotest.check interval "after addi" (I.const 6) s.(1)
  | None -> Alcotest.fail "reachable"

(* The per-block state array is one forward pass; [state_before_instr]
   replays from the block entry per instruction.  Both must agree at
   every instruction of every procedure of a generated program. *)
let prop_states_before_instrs =
  QCheck.Test.make ~name:"per-block states equal state_before_instr"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 999))
    (fun index ->
      let t = Fuzz.Generator.generate ~seed:5 ~index () in
      let cg = Cfg.Callgraph.build t.Fuzz.Generator.program in
      List.for_all
        (fun (_, g) ->
          let va = Dataflow.Value_analysis.analyze g in
          List.for_all
            (fun id ->
              let b = Cfg.Graph.block g id in
              let states =
                Dataflow.Value_analysis.states_before_instrs va g id
              in
              List.for_all
                (fun i ->
                  match Dataflow.Value_analysis.state_before_instr va g i with
                  | Some st ->
                      Array.for_all2 I.equal st
                        states.(i - b.Cfg.Block.first)
                  | None -> false)
                (Cfg.Block.instr_indices b))
            (List.init (Cfg.Graph.num_blocks g) Fun.id))
        (Cfg.Callgraph.bottom_up cg))

(* The analysis transfers a block in place on one copy of its input;
   folding the exposed one-instruction transfer over the block from its
   stored input must give the stored output, on every block of every
   procedure, with the default (forget-everything) call clobbers. *)
let prop_block_out_is_fold =
  QCheck.Test.make ~name:"block_out folds transfer_instr over the block"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 999))
    (fun index ->
      let t = Fuzz.Generator.generate ~seed:9 ~index () in
      let program = t.Fuzz.Generator.program in
      let cg = Cfg.Callgraph.build program in
      List.for_all
        (fun (_, g) ->
          let va = Dataflow.Value_analysis.analyze g in
          List.for_all
            (fun id ->
              let folded =
                List.fold_left
                  (fun st i ->
                    Dataflow.Value_analysis.transfer_instr
                      (Isa.Program.instr program i)
                      st)
                  (Dataflow.Value_analysis.block_in va id)
                  (Cfg.Block.instr_indices (Cfg.Graph.block g id))
              in
              folded = Dataflow.Value_analysis.block_out va id)
            (List.init (Cfg.Graph.num_blocks g) Fun.id))
        (Cfg.Callgraph.bottom_up cg))

(* [Interval.equal] and [Interval.is_bottom] match on constructors;
   they must answer what structural equality answers, register by
   register over whole states, including states with one bottom
   register, where a transfer must leave the state as it is.  The
   second state rebuilds every interval of the first (equal but not
   shared) and then may change one register. *)
let prop_interval_equal_is_structural =
  let bound =
    QCheck.Gen.(
      frequency
        [
          (1, return I.Neg_inf);
          (1, return I.Pos_inf);
          (4, map (fun n -> I.Finite n) (int_range (-3) 3));
        ])
  in
  let interval =
    QCheck.Gen.(
      frequency
        [ (1, return I.bottom); (6, map2 I.of_bounds bound bound) ])
  in
  let rebuild v =
    if I.is_bottom v then I.bottom else I.of_bounds (I.lower v) (I.upper v)
  in
  let gen =
    QCheck.Gen.(
      let n = Isa.Instr.num_regs in
      let* s1 = array_size (return n) interval in
      let* bottom_at = opt (int_range 1 (n - 1)) in
      let s1 = Array.map (fun v -> if I.is_bottom v then I.top else v) s1 in
      Option.iter (fun r -> s1.(r) <- I.bottom) bottom_at;
      let* change = opt (pair (int_range 0 (n - 1)) interval) in
      let s2 = Array.map rebuild s1 in
      Option.iter (fun (r, v) -> s2.(r) <- v) change;
      return (s1, s2))
  in
  let print (s1, s2) =
    Format.asprintf "%a / %a" Dataflow.Value_analysis.pp_astate s1
      Dataflow.Value_analysis.pp_astate s2
  in
  QCheck.Test.make ~name:"interval equal and is_bottom are structural"
    ~count:500 (QCheck.make ~print gen) (fun (s1, s2) ->
      Array.for_all2 (fun a b -> I.equal a b = (a = b)) s1 s2
      && Array.for_all (fun v -> I.is_bottom v = (v = I.bottom)) s1
      && Array.for_all2 I.equal s1 s2 = (s1 = s2)
      &&
      let bottom = Array.exists I.is_bottom s1 in
      let step =
        Dataflow.Value_analysis.transfer_instr
          (Isa.Instr.Alui (Isa.Instr.Add, 1, 2, 5))
          s1
      in
      (not bottom) || step = s1)

let test_va_branch_refinement () =
  let g, _, _, va =
    analyze_all
      {|
main:
  ld.d r1, 0(r0)
  li r2, 10
  blt r1, r2, small
  halt
small:
  halt
|}
  in
  (* In "small", r1 < 10. *)
  let small_id =
    match Cfg.Graph.block_of_instr g (Isa.Program.label_index g.Cfg.Graph.program "small") with
    | Some id -> id
    | None -> Alcotest.fail "small block"
  in
  let s = Dataflow.Value_analysis.block_in va small_id in
  Alcotest.(check (option int)) "r1 < 10" (Some 9) (I.finite_upper s.(1))

(* ------------------------------------------------------------------ *)
(* Loop bounds                                                        *)
(* ------------------------------------------------------------------ *)

let bound_of src =
  let g, dom, li, va = analyze_all src in
  match Cfg.Loops.loops li with
  | [ l ] -> Dataflow.Loop_bounds.infer_loop g dom li va l
  | ls -> Alcotest.failf "expected one loop, got %d" (List.length ls)

let check_bound ?min msg expected src =
  match bound_of src with
  | Ok (n, mn) ->
      Alcotest.(check int) msg expected n;
      (match min with
      | Some m -> Alcotest.(check int) (msg ^ " (min)") m mn
      | None -> ())
  | Error e -> Alcotest.failf "%s: inference failed: %s" msg e

let test_bound_countdown_ne () =
  (* 10 body iterations, 9 back edges; the count is exact. *)
  check_bound ~min:9 "subi/bne" 9
    {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}

let test_bound_countup_lt () =
  (* i = 0; do { i++ } while (i < 10): body 10, back edges 9. *)
  check_bound "addi/blt" 9
    {|
main:
  li r1, 0
  li r2, 10
loop:
  addi r1, r1, 1
  blt r1, r2, loop
  halt
|}

let test_bound_countdown_ge () =
  (* i = 10; do { i-- } while (i >= 1): bodies 10, backs 9. *)
  check_bound "subi/bge" 9
    {|
main:
  li r1, 10
  li r2, 1
loop:
  subi r1, r1, 1
  bge r1, r2, loop
  halt
|}

let test_bound_step_gt_one () =
  (* i = 0; do { i += 3 } while (i < 10): i = 3,6,9 continue, 12 stops.
     bodies 4, backs 3. *)
  check_bound "step 3" 3
    {|
main:
  li r1, 0
  li r2, 10
loop:
  addi r1, r1, 3
  blt r1, r2, loop
  halt
|}

let test_bound_interval_init () =
  (* init in [3,5] (from a diamond); counting down with bge 1: between 2
     and 4 back edges. *)
  check_bound ~min:2 "interval init" 4
    {|
main:
  ld.d r3, 0(r0)
  li r1, 5
  beq r3, r0, go
  li r1, 3
go:
  li r2, 1
loop:
  subi r1, r1, 1
  bge r1, r2, loop
  halt
|}

let test_bound_swapped_operands () =
  (* Branch written as blt r2, r1, loop: continue while limit < counter,
     counter decreasing: i=10; do { i-- } while (0 < i): backs 9. *)
  check_bound "swapped blt" 9
    {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  blt r0, r1, loop
  halt
|}

let test_bound_data_dependent_fails () =
  match
    bound_of
      {|
main:
  ld.d r1, 0(r0)
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  with
  | Error _ -> ()
  | Ok (n, _) -> Alcotest.failf "expected failure, got bound %d" n

let test_bound_non_unit_ne_step_fails () =
  (* ne with step 2 from even start is fine (singleton), from unknown
     parity must fail; here init=9, step -2 never hits 0. *)
  match
    bound_of
      {|
main:
  li r1, 9
loop:
  subi r1, r1, 2
  bne r1, r0, loop
  halt
|}
  with
  | Error _ -> ()
  | Ok (n, _) -> Alcotest.failf "expected failure, got bound %d" n

let test_bound_nested () =
  let g, dom, li, va =
    analyze_all
      {|
main:
  li r1, 4
outer:
  li r2, 3
inner:
  subi r2, r2, 1
  bne r2, r0, inner
  subi r1, r1, 1
  bne r1, r0, outer
  halt
|}
  in
  let bounds =
    Dataflow.Loop_bounds.infer g dom li va Dataflow.Annot.empty
  in
  Alcotest.(check int) "two bounds" 2 (List.length bounds);
  let by_depth =
    List.map (fun (b : Dataflow.Loop_bounds.bound) -> b.max_back_edges) bounds
  in
  (* Outer: 4 bodies -> 3 backs; inner: 3 bodies -> 2 backs per entry. *)
  Alcotest.(check (list int)) "bounds" [ 3; 2 ] by_depth

let test_bound_annotation_fallback () =
  let src =
    {|
main:
  ld.d r1, 0(r0)
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  let g, dom, li, va = analyze_all src in
  (* Without annotation: raises. *)
  (match Dataflow.Loop_bounds.infer g dom li va Dataflow.Annot.empty with
  | exception Dataflow.Loop_bounds.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected Unbounded");
  (* With annotation: uses it. *)
  let annot =
    Dataflow.Annot.with_loop_bound Dataflow.Annot.empty ~proc:"main"
      ~header_label:"loop" 99
  in
  match Dataflow.Loop_bounds.infer g dom li va annot with
  | [ b ] ->
      Alcotest.(check int) "annotated bound" 99 b.Dataflow.Loop_bounds.max_back_edges;
      Alcotest.(check bool) "source annotated" true
        (b.Dataflow.Loop_bounds.source = Dataflow.Loop_bounds.Annotated)
  | _ -> Alcotest.fail "expected one bound"

let test_bound_counter_update_under_if_fails () =
  (* Counter updated only on one arm of a diamond: not every iteration,
     inference must refuse. *)
  match
    bound_of
      {|
main:
  li r1, 10
loop:
  beq r1, r0, skip
  subi r1, r1, 1
skip:
  bne r1, r0, loop
  halt
|}
  with
  | Error _ -> ()
  | Ok (n, _) -> Alcotest.failf "expected failure, got %d" n

let test_clobbers () =
  let p =
    Isa.Asm.parse ~name:"t"
      "main:\n  call f\n  call g\n  halt\nf:\n  addi r5, r5, 1\n  ret\ng:\n  call f\n  ld.d r6, 0(r0)\n  ret\n"
  in
  let cg = Cfg.Callgraph.build p in
  let c = Dataflow.Clobbers.compute cg in
  Alcotest.(check bool) "f writes r5" true (Dataflow.Clobbers.may_write c "f" 5);
  Alcotest.(check bool) "f spares r6" false (Dataflow.Clobbers.may_write c "f" 6);
  Alcotest.(check bool) "g inherits r5 from f" true
    (Dataflow.Clobbers.may_write c "g" 5);
  Alcotest.(check bool) "g writes r6" true (Dataflow.Clobbers.may_write c "g" 6);
  Alcotest.(check bool) "main inherits all" true
    (Dataflow.Clobbers.may_write c "main" 5
    && Dataflow.Clobbers.may_write c "main" 6);
  Alcotest.(check bool) "unknown proc clobbers everything" true
    (Dataflow.Clobbers.may_write c "nope" 7)

let test_bound_with_innocuous_call () =
  (* A call inside the counted loop whose callee provably spares the
     counter: inference succeeds with precise clobbers. *)
  let src =
    "main:\n  li r1, 6\nloop:\n  call work\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\nwork:\n  addi r9, r9, 1\n  ret\n"
  in
  let p = Isa.Asm.parse ~name:"t" src in
  let cg = Cfg.Callgraph.build p in
  let clob = Dataflow.Clobbers.compute cg in
  let call_clobbers = Dataflow.Clobbers.clobbered clob in
  let g = Cfg.Callgraph.graph cg "main" in
  let dom = Cfg.Dominators.compute g in
  let li = Cfg.Loops.analyze g dom in
  let va = Dataflow.Value_analysis.analyze ~call_clobbers g in
  (match Cfg.Loops.loops li with
  | [ l ] -> (
      (* Without clobber knowledge: rejected. *)
      (match Dataflow.Loop_bounds.infer_loop g dom li va l with
      | Error _ -> ()
      | Ok (n, _) ->
          Alcotest.failf "expected failure without clobbers, got %d" n);
      match Dataflow.Loop_bounds.infer_loop ~call_clobbers g dom li va l with
      | Ok (n, _) -> Alcotest.(check int) "bound across call" 5 n
      | Error e -> Alcotest.failf "inference failed: %s" e)
  | _ -> Alcotest.fail "expected one loop")

(* Property: inferred bound matches concrete execution for random N. *)
let prop_bound_matches_execution =
  QCheck.Test.make ~name:"inferred bound equals concrete back-edge count"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 60))
    (fun n ->
      let src =
        Printf.sprintf
          "main:\n  li r1, %d\nloop:\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\n"
          n
      in
      match bound_of src with
      | Error _ -> false
      | Ok (b, bmin) ->
          (* Concrete back edges: n-1, exactly. *)
          b = n - 1 && bmin = n - 1)

(* Property: bound is an over-approximation when init is an interval. *)
let prop_bound_sound_for_interval_init =
  QCheck.Test.make ~name:"interval-init bound over-approximates all runs"
    ~count:60
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "(%d,%d)" a b)
       QCheck.Gen.(
         let* a = int_range 1 20 in
         let* b = int_range 1 20 in
         return (min a b, max a b)))
    (fun (lo, hi) ->
      let src =
        Printf.sprintf
          {|
main:
  ld.d r3, 0(r0)
  li r1, %d
  beq r3, r0, go
  li r1, %d
go:
  li r2, 1
loop:
  subi r1, r1, 1
  bge r1, r2, loop
  halt
|}
          hi lo
      in
      match bound_of src with
      | Error _ -> false
      | Ok (b, bmin) ->
          (* Concrete worst case: starting at hi, back edges = hi - 1;
             best case: lo - 1. *)
          b >= hi - 1 && bmin <= max 0 (lo - 1))

(* ------------------------------------------------------------------ *)
(* Worklist vs sweep scheduling                                        *)
(* ------------------------------------------------------------------ *)

(* The dirty-set worklist engine must be *bit-identical* to the classic
   all-blocks sweep — same value-analysis states (widening decisions
   included, since rounds coincide with sweep numbers) and same WCET
   bounds end to end.  Fuzzed programs provide loops, diamonds and calls
   in one shape. *)
let test_worklist_matches_sweep () =
  let platform = Core.Platform.single_core () in
  for index = 0 to 11 do
    let t = Fuzz.Generator.generate ~seed:11 ~index () in
    let g = Cfg.Graph.build t.Fuzz.Generator.program ~entry:"main" in
    let under s f = Dataflow.Worklist.with_strategy s f in
    let va_w = under `Worklist (fun () -> Dataflow.Value_analysis.analyze g) in
    let va_s = under `Sweep (fun () -> Dataflow.Value_analysis.analyze g) in
    for id = 0 to Cfg.Graph.num_blocks g - 1 do
      let eq a b = Array.for_all2 I.equal a b in
      if
        not
          (eq
             (Dataflow.Value_analysis.block_in va_w id)
             (Dataflow.Value_analysis.block_in va_s id)
          && eq
               (Dataflow.Value_analysis.block_out va_w id)
               (Dataflow.Value_analysis.block_out va_s id))
      then
        Alcotest.failf "%s: value-analysis states differ at block %d"
          t.Fuzz.Generator.name id
    done;
    let annot = t.Fuzz.Generator.annot in
    let program = t.Fuzz.Generator.program in
    let w_w =
      under `Worklist (fun () -> Core.Wcet.analyze ~annot platform program)
    in
    let w_s =
      under `Sweep (fun () -> Core.Wcet.analyze ~annot platform program)
    in
    Alcotest.(check int)
      (t.Fuzz.Generator.name ^ " wcet")
      w_s.Core.Wcet.wcet w_w.Core.Wcet.wcet
  done

(* The contract the cache engine keeps its before-states by: a block's
   last transfer sees the input [solve] returns for it, and a block left
   at bottom is never transferred.  Every procedure of generated
   programs, under both schedules, on a max lattice whose loops climb
   for several rounds before they saturate. *)
let prop_last_transfer_sees_final_input =
  QCheck.Test.make ~name:"a block's last transfer sees its final input"
    ~count:60
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 999))
    (fun index ->
      let t = Fuzz.Generator.generate ~seed:13 ~index () in
      let cg = Cfg.Callgraph.build t.Fuzz.Generator.program in
      List.for_all
        (fun (_, g) ->
          List.for_all
            (fun strategy ->
              let last = Array.make (Cfg.Graph.num_blocks g) None in
              let ins, _ =
                Dataflow.Worklist.with_strategy strategy (fun () ->
                    Dataflow.Worklist.solve g ~entry_fact:0 ~join:max
                      ~equal:Int.equal
                      ~transfer:(fun id x ->
                        last.(id) <- Some x;
                        min 40 (x + 1 + (id mod 3)))
                      ())
              in
              ins = last)
            [ `Worklist; `Sweep ])
        (Cfg.Callgraph.bottom_up cg))

let test_worklist_saves_pops () =
  (* On a CFG with a loop, the worklist must examine strictly fewer
     blocks than sweeping examines (blocks x rounds), else the engine
     is not actually skipping clean blocks. *)
  let t = Fuzz.Generator.generate ~seed:11 ~index:0 () in
  let g = Cfg.Graph.build t.Fuzz.Generator.program ~entry:"main" in
  let pops_under s =
    Dataflow.Worklist.with_strategy s @@ fun () ->
    let before = Dataflow.Worklist.pops () in
    ignore (Dataflow.Value_analysis.analyze g);
    Dataflow.Worklist.pops () - before
  in
  let w = pops_under `Worklist and s = pops_under `Sweep in
  Alcotest.(check bool)
    (Printf.sprintf "worklist pops (%d) < sweep pops (%d)" w s)
    true (w < s)

let () =
  Alcotest.run "dataflow"
    [
      ( "interval",
        [
          Alcotest.test_case "basics" `Quick test_interval_basics;
          Alcotest.test_case "arithmetic" `Quick test_interval_arith;
          Alcotest.test_case "widening" `Quick test_interval_widen;
          Alcotest.test_case "refinement" `Quick test_interval_refine;
        ] );
      ( "value analysis",
        [
          Alcotest.test_case "straight line" `Quick test_va_straightline;
          Alcotest.test_case "r0 pinned" `Quick test_va_r0_pinned;
          Alcotest.test_case "diamond join" `Quick test_va_diamond_join;
          Alcotest.test_case "load yields top" `Quick test_va_load_is_top;
          Alcotest.test_case "call clobbers" `Quick test_va_call_clobbers;
          Alcotest.test_case "widening terminates" `Quick
            test_va_loop_widening_terminates;
          Alcotest.test_case "state before instr" `Quick
            test_va_state_before_instr;
          Alcotest.test_case "branch refinement" `Quick
            test_va_branch_refinement;
          QCheck_alcotest.to_alcotest prop_states_before_instrs;
          QCheck_alcotest.to_alcotest prop_block_out_is_fold;
          QCheck_alcotest.to_alcotest prop_interval_equal_is_structural;
        ] );
      ( "loop bounds",
        [
          Alcotest.test_case "countdown bne" `Quick test_bound_countdown_ne;
          Alcotest.test_case "countup blt" `Quick test_bound_countup_lt;
          Alcotest.test_case "countdown bge" `Quick test_bound_countdown_ge;
          Alcotest.test_case "step > 1" `Quick test_bound_step_gt_one;
          Alcotest.test_case "interval init" `Quick test_bound_interval_init;
          Alcotest.test_case "swapped operands" `Quick
            test_bound_swapped_operands;
          Alcotest.test_case "data-dependent fails" `Quick
            test_bound_data_dependent_fails;
          Alcotest.test_case "ne with stride 2 fails" `Quick
            test_bound_non_unit_ne_step_fails;
          Alcotest.test_case "nested" `Quick test_bound_nested;
          Alcotest.test_case "annotation fallback" `Quick
            test_bound_annotation_fallback;
          Alcotest.test_case "guarded update fails" `Quick
            test_bound_counter_update_under_if_fails;
          Alcotest.test_case "clobber analysis" `Quick test_clobbers;
          Alcotest.test_case "call with precise clobbers" `Quick
            test_bound_with_innocuous_call;
        ] );
      ( "worklist scheduling",
        [
          Alcotest.test_case "matches full sweeps on fuzzed programs" `Quick
            test_worklist_matches_sweep;
          Alcotest.test_case "skips unchanged blocks" `Quick
            test_worklist_saves_pops;
          QCheck_alcotest.to_alcotest prop_last_transfer_sees_final_input;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          (interval_soundness_props
          @ [ prop_bound_matches_execution; prop_bound_sound_for_interval_init ])
      );
    ]
