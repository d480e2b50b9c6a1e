(* End-to-end soundness: for every benchmark of the suite and several
   platform shapes, the static WCET bound dominates the simulated
   execution time (the fundamental contract of the whole system). *)

module B = Workloads.Bench_programs

let l2_small = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16

let io_inputs (b : B.t) =
  if b.B.name = "div_like" then [ (0, 7 * 63) ] else []

let run_sim platform (b : B.t) =
  let cfg = Core.Platform.machine platform in
  (Sim.Machine.run cfg ~cores:[| Sim.Machine.task b.B.program |] ()).(0)

let check_sound platform_name platform (b : B.t) =
  match Core.Wcet.analyze ~annot:b.B.annot platform b.B.program with
  | exception Core.Wcet.Not_analysable msg ->
      Alcotest.failf "%s/%s: not analyzable: %s" platform_name b.B.name msg
  | a ->
      let r = run_sim platform b in
      if not r.Sim.Machine.halted then
        Alcotest.failf "%s/%s: simulation did not halt" platform_name b.B.name;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: bound %d >= observed %d (ratio %.2f)"
           platform_name b.B.name a.Core.Wcet.wcet r.Sim.Machine.cycles
           (float_of_int a.Core.Wcet.wcet /. float_of_int r.Sim.Machine.cycles))
        true
        (a.Core.Wcet.wcet >= r.Sim.Machine.cycles);
      (* The execution-time sandwich: BCET <= observed <= WCET. *)
      let bc = Core.Bcet.analyze ~annot:b.B.annot platform b.B.program in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s: bcet %d <= observed %d" platform_name b.B.name
           bc.Core.Bcet.bcet r.Sim.Machine.cycles)
        true
        (bc.Core.Bcet.bcet <= r.Sim.Machine.cycles)

(* div_like reads its dividend from I/O; fresh I/O memory reads 0, so its
   loop exits immediately — still within the annotated bound. *)

let suite_no_io () =
  List.filter (fun (b : B.t) -> io_inputs b = []) (B.suite ())

let test_suite_sound_no_l2 () =
  let platform = Core.Platform.single_core () in
  List.iter (check_sound "no-l2" platform) (B.suite ())

let test_suite_sound_with_l2 () =
  let platform = Core.Platform.single_core ~l2:l2_small () in
  List.iter (check_sound "l2" platform) (B.suite ())

let test_suite_sound_tiny_l1 () =
  let platform =
    {
      (Core.Platform.single_core ~l2:l2_small ()) with
      Core.Platform.l1i = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:8;
      l1d = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:8;
    }
  in
  List.iter (check_sound "tiny-l1" platform) (B.suite ())

let test_suite_sound_with_refresh () =
  let platform =
    {
      (Core.Platform.single_core ()) with
      Core.Platform.refresh =
        Interconnect.Arbiter.Distributed { interval = 128; duration = 12 };
    }
  in
  List.iter (check_sound "refresh" platform) (suite_no_io ())

let test_multicore_suite_sound () =
  (* Four different benchmarks contending on a shared L2 + RR bus: each
     simulated completion within its joint-analysis bound. *)
  let tasks =
    [|
      B.vector_sum ~n:24; B.memory_bound ~n:24; B.crc ~n:8; B.fibonacci ~n:24;
    |]
  in
  let sys =
    Core.Multicore.default_system ~cores:4
      ~tasks:
        (Array.map (fun (b : B.t) -> Some (b.B.program, b.B.annot)) tasks)
  in
  let bounds = Core.Multicore.wcets (Core.Multicore.analyze_joint sys ()) in
  let cfg =
    Core.Multicore.machine_config sys
      ~l2:(Sim.Machine.Shared_l2 sys.Core.Multicore.l2)
  in
  let rs =
    Sim.Machine.run cfg
      ~cores:(Array.map (fun (b : B.t) -> Sim.Machine.task b.B.program) tasks)
      ()
  in
  Array.iteri
    (fun i r ->
      match bounds.(i) with
      | Some bound ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d <= %d" tasks.(i).B.name
               r.Sim.Machine.cycles bound)
            true
            (r.Sim.Machine.halted && r.Sim.Machine.cycles <= bound)
      | None -> Alcotest.fail "missing bound")
    rs

let test_multicore_partitioned_suite_sound () =
  let tasks =
    [| B.vector_sum ~n:24; B.memory_bound ~n:24; B.crc ~n:8; B.bitcount |]
  in
  let sys =
    Core.Multicore.default_system ~cores:4
      ~tasks:
        (Array.map (fun (b : B.t) -> Some (b.B.program, b.B.annot)) tasks)
  in
  let bounds =
    Core.Multicore.wcets
      (Core.Multicore.analyze_partitioned sys
         ~scheme:Cache.Partition.Columnization)
  in
  let alloc =
    Cache.Partition.even_shares Cache.Partition.Columnization
      sys.Core.Multicore.l2 ~parts:4
  in
  let slices =
    Array.init 4 (fun i ->
        Cache.Partition.partition_config sys.Core.Multicore.l2 alloc ~index:i)
  in
  let cfg =
    Core.Multicore.machine_config sys ~l2:(Sim.Machine.Private_l2 slices)
  in
  let rs =
    Sim.Machine.run cfg
      ~cores:(Array.map (fun (b : B.t) -> Sim.Machine.task b.B.program) tasks)
      ()
  in
  Array.iteri
    (fun i r ->
      match bounds.(i) with
      | Some bound ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d <= %d" tasks.(i).B.name
               r.Sim.Machine.cycles bound)
            true
            (r.Sim.Machine.halted && r.Sim.Machine.cycles <= bound)
      | None -> Alcotest.fail "missing bound")
    rs

let test_oblivious_bound_violated () =
  (* The survey's Section 2.2 claim, demonstrated: a bound computed
     ignoring sharing is exceeded by an actual contended execution. *)
  let tasks = Array.init 4 (fun _ -> B.l1_thrash ~n:48) in
  let sys =
    Core.Multicore.default_system ~cores:4
      ~tasks:
        (Array.map (fun (b : B.t) -> Some (b.B.program, b.B.annot)) tasks)
  in
  let oblivious =
    Core.Multicore.wcets (Core.Multicore.analyze_oblivious sys)
  in
  let cfg =
    Core.Multicore.machine_config sys
      ~l2:(Sim.Machine.Shared_l2 sys.Core.Multicore.l2)
  in
  let rs =
    Sim.Machine.run cfg
      ~cores:(Array.map (fun (b : B.t) -> Sim.Machine.task b.B.program) tasks)
      ()
  in
  let violated = ref false in
  Array.iteri
    (fun i r ->
      match oblivious.(i) with
      | Some bound -> if r.Sim.Machine.cycles > bound then violated := true
      | None -> ())
    rs;
  Alcotest.(check bool) "some oblivious bound is exceeded under contention"
    true !violated

(* ------------------------------------------------------------------ *)
(* Random-program end-to-end property                                 *)
(* ------------------------------------------------------------------ *)

(* Generate random structured programs: a sequence of pieces, each a
   counted loop, a data-dependent diamond, a call to a helper, or
   straight-line compute/memory code.  Every generated program terminates
   and is analyzable. *)
let gen_program =
  let open QCheck.Gen in
  let piece idx =
    let* choice = int_range 0 4 in
    match choice with
    | 0 ->
        let* n = int_range 1 12 in
        return
          (Printf.sprintf
             "  li r1, %d\nl%d:\n  st.d r1, 0(r1)\n  subi r1, r1, 1\n  bne r1, r0, l%d\n"
             n idx idx)
    | 1 ->
        return
          (Printf.sprintf
             "  ld.d r2, %d(r0)\n  beq r2, r0, a%d\n  mul r3, r2, r2\n  jmp b%d\na%d:\n  addi r3, r0, 7\nb%d:\n  nop\n"
             idx idx idx idx idx)
    | 2 -> return "  call helper\n"
    | 3 ->
        let* n = int_range 1 6 in
        return
          (String.concat ""
             (List.init n (fun k ->
                  Printf.sprintf "  addi r4, r4, %d\n  st.s r4, %d(r0)\n" k k)))
    | _ ->
        let* n = int_range 1 10 in
        let* taken = int_range 0 1 in
        ignore taken;
        return
          (Printf.sprintf
             "  li r5, %d\nc%d:\n  ld.d r6, 2(r0)\n  addi r5, r5, -1\n  bne r5, r0, c%d\n"
             n idx idx)
  in
  let* count = int_range 1 5 in
  let rec build i acc =
    if i >= count then return acc
    else
      let* s = piece i in
      build (i + 1) (acc ^ s)
  in
  let* body = build 0 "main:\n" in
  return (body ^ "  halt\nhelper:\n  mul r7, r7, r7\n  ret\n")

let prop_random_programs_sound =
  QCheck.Test.make ~name:"random programs: bcet <= observed <= wcet"
    ~count:60
    (QCheck.make ~print:(fun s -> s) gen_program)
    (fun src ->
      let p = Isa.Asm.parse ~name:"rand" src in
      let platform = Core.Platform.single_core ~l2:l2_small () in
      match Core.Wcet.analyze platform p with
      | exception Core.Wcet.Not_analysable _ -> false
      | a -> (
          match Core.Bcet.analyze platform p with
          | b ->
              let r = (run_sim platform { B.name = "rand"; program = p;
                                          annot = Dataflow.Annot.empty;
                                          description = "" }) in
              r.Sim.Machine.halted
              && b.Core.Bcet.bcet <= r.Sim.Machine.cycles
              && r.Sim.Machine.cycles <= a.Core.Wcet.wcet))

let () =
  Alcotest.run "integration"
    [
      ( "single-core soundness",
        [
          Alcotest.test_case "suite, no L2" `Slow test_suite_sound_no_l2;
          Alcotest.test_case "suite, with L2" `Slow test_suite_sound_with_l2;
          Alcotest.test_case "suite, tiny L1" `Slow test_suite_sound_tiny_l1;
          Alcotest.test_case "suite, refresh" `Slow
            test_suite_sound_with_refresh;
        ] );
      ( "multicore soundness",
        [
          Alcotest.test_case "joint bounds hold" `Slow
            test_multicore_suite_sound;
          Alcotest.test_case "partitioned bounds hold" `Slow
            test_multicore_partitioned_suite_sound;
          Alcotest.test_case "oblivious bounds violated" `Slow
            test_oblivious_bound_violated;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_random_programs_sound ]
      );
    ]
