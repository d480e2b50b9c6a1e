(* Tests for the benchmark suite: every program must terminate, compute
   what it claims, and be analyzable with its shipped annotations. *)

module B = Workloads.Bench_programs

let run_to_halt ?(io = []) (b : B.t) =
  let st = Isa.Exec.init b.B.program in
  List.iter (fun (i, v) -> Isa.Exec.write_mem st Isa.Instr.Io i v) io;
  let steps = Isa.Exec.run b.B.program st in
  (st, steps)

let test_all_terminate () =
  List.iter
    (fun (b : B.t) ->
      let io = if b.B.name = "div_like" then [ (0, 100) ] else [] in
      let st, steps = run_to_halt ~io b in
      Alcotest.(check bool)
        (Printf.sprintf "%s halts (%d steps)" b.B.name steps)
        true
        (Isa.Exec.halted st))
    (B.suite ())

let test_fibonacci_value () =
  let st, _ = run_to_halt (B.fibonacci ~n:10) in
  (* After n updates starting from (0,1): r2 = fib(10) = 55. *)
  Alcotest.(check int) "fib 10" 55 st.Isa.Exec.regs.(2)

let test_vector_sum_value () =
  let st, _ = run_to_halt (B.vector_sum ~n:10) in
  Alcotest.(check int) "sum 0..9" 45 st.Isa.Exec.regs.(2)

let test_memcpy_copies () =
  let st, _ = run_to_halt (B.memcpy ~n:8) in
  let ok = ref true in
  for i = 0 to 7 do
    if Isa.Exec.read_mem st Isa.Instr.Data (8 + i) <> 3 * i then ok := false
  done;
  Alcotest.(check bool) "copied words" true !ok

let test_matmul_value () =
  let n = 3 in
  let st, _ = run_to_halt (B.matmul ~n) in
  (* A[i] = i+1 row-major, B[i] = i+2; check C[0][0] = sum_k A[0k]*B[k0]. *)
  let a i j = (i * n) + j + 1 and b i j = (i * n) + j + 2 in
  let expected =
    let rec go k acc = if k >= n then acc else go (k + 1) (acc + (a 0 k * b k 0)) in
    go 0 0
  in
  Alcotest.(check int) "C[0][0]" expected (Isa.Exec.read_mem st Isa.Instr.Data (2 * n * n))

let test_bubble_sort_sorts () =
  let n = 8 in
  let st, _ = run_to_halt (B.bubble_sort ~n) in
  let sorted = ref true in
  for i = 0 to n - 2 do
    let word = Isa.Exec.read_mem st Isa.Instr.Data in
    if word i > word (i + 1) then sorted := false
  done;
  Alcotest.(check bool) "array sorted" true !sorted

let test_bitcount_value () =
  let st, _ = run_to_halt B.bitcount in
  (* popcount(123456789) = 16 *)
  Alcotest.(check int) "popcount" 16 st.Isa.Exec.regs.(2)

let test_crc_deterministic () =
  let st1, _ = run_to_halt (B.crc ~n:8) in
  let st2, _ = run_to_halt (B.crc ~n:8) in
  Alcotest.(check int) "same checksum" st1.Isa.Exec.regs.(6)
    st2.Isa.Exec.regs.(6);
  Alcotest.(check bool) "nonzero" true (st1.Isa.Exec.regs.(6) <> 0)

let test_calls_value () =
  let st, _ = run_to_halt B.calls in
  (* ((5^2)+10)^2 = 1225 *)
  Alcotest.(check int) "calls result" 1225 st.Isa.Exec.regs.(1)

let test_pointer_chase_steps () =
  let b = B.pointer_chase ~n:8 ~steps:5 in
  let st, _ = run_to_halt b in
  (* chain: x -> (x+3) mod 8 from 0, 5 loads: 3,6,1,4,7 *)
  Alcotest.(check int) "final pointer" 7 st.Isa.Exec.regs.(3)

let test_all_analyzable () =
  let platform = Core.Platform.single_core () in
  List.iter
    (fun (b : B.t) ->
      match Core.Wcet.analyze ~annot:b.B.annot platform b.B.program with
      | a ->
          Alcotest.(check bool)
            (Printf.sprintf "%s wcet > 0" b.B.name)
            true (a.Core.Wcet.wcet > 0)
      | exception Core.Wcet.Not_analysable msg ->
          Alcotest.failf "%s not analyzable: %s" b.B.name msg)
    (B.suite ())

let test_task_set_generator () =
  let ts1 = B.task_set ~cores:6 ~seed:3 () in
  let ts2 = B.task_set ~cores:6 ~seed:3 () in
  let ts3 = B.task_set ~cores:6 ~seed:4 () in
  Alcotest.(check int) "six slots" 6 (Array.length ts1);
  Alcotest.(check bool) "deterministic" true
    (Array.for_all2
       (fun a b ->
         match (a, b) with
         | Some (p1, _), Some (p2, _) ->
             p1.Isa.Program.name = p2.Isa.Program.name
         | None, None -> true
         | _ -> false)
       ts1 ts2);
  Alcotest.(check bool) "seed changes the mix" true
    (Array.exists2
       (fun a b ->
         match (a, b) with
         | Some (p1, _), Some (p2, _) ->
             p1.Isa.Program.name <> p2.Isa.Program.name
         | _ -> true)
       ts1 ts3);
  (* Every generated slot is analyzable under the multicore defaults. *)
  let sys = Core.Multicore.default_system ~cores:6 ~tasks:ts1 in
  let wcets = Core.Multicore.wcets (Core.Multicore.analyze_oblivious sys) in
  Array.iter
    (function
      | Some w -> Alcotest.(check bool) "positive wcet" true (w > 0)
      | None -> Alcotest.fail "missing task")
    wcets

let test_by_name () =
  (match B.by_name "crc" with
  | Some b -> Alcotest.(check string) "found" "crc" b.B.name
  | None -> Alcotest.fail "crc missing");
  Alcotest.(check bool) "unknown" true (B.by_name "nope" = None)

(* Property: benchmark instructions counts scale with parameters. *)
let prop_fib_steps_linear =
  QCheck.Test.make ~name:"fibonacci executes 3 + 4n instructions" ~count:30
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 100))
    (fun n ->
      let _, steps = run_to_halt (B.fibonacci ~n) in
      steps = 3 + (5 * n) + 1)

let () =
  Alcotest.run "workloads"
    [
      ( "execution",
        [
          Alcotest.test_case "all terminate" `Quick test_all_terminate;
          Alcotest.test_case "fibonacci" `Quick test_fibonacci_value;
          Alcotest.test_case "vector sum" `Quick test_vector_sum_value;
          Alcotest.test_case "memcpy" `Quick test_memcpy_copies;
          Alcotest.test_case "matmul" `Quick test_matmul_value;
          Alcotest.test_case "bubble sort" `Quick test_bubble_sort_sorts;
          Alcotest.test_case "bitcount" `Quick test_bitcount_value;
          Alcotest.test_case "crc" `Quick test_crc_deterministic;
          Alcotest.test_case "calls" `Quick test_calls_value;
          Alcotest.test_case "pointer chase" `Quick test_pointer_chase_steps;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "all analyzable" `Quick test_all_analyzable;
          Alcotest.test_case "task-set generator" `Quick
            test_task_set_generator;
          Alcotest.test_case "lookup" `Quick test_by_name;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_fib_steps_linear ] );
    ]
