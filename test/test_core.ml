(* Tests for IPET, platform bounds, single-task WCET, multicore
   approaches, response-time analysis, predictability quotients. *)

let parse src = Isa.Asm.parse ~name:"t" src

let build src =
  let p = parse src in
  Cfg.Graph.build p ~entry:"main"

(* ------------------------------------------------------------------ *)
(* IPET                                                               *)
(* ------------------------------------------------------------------ *)

let bounds_for g =
  let dom = Cfg.Dominators.compute g in
  let loops = Cfg.Loops.analyze g dom in
  let va = Dataflow.Value_analysis.analyze g in
  Dataflow.Loop_bounds.infer g dom loops va Dataflow.Annot.empty

let test_ipet_straightline () =
  let g = build "main:\n  nop\n  nop\n  halt\n" in
  let r = Core.Ipet.solve g ~loop_bounds:[] ~block_cost:(fun _ -> 7) () in
  Alcotest.(check int) "one block, cost 7" 7 r.Core.Ipet.wcet;
  Alcotest.(check int) "executed once" 1 r.Core.Ipet.block_counts.(0)

let test_ipet_diamond_takes_max () =
  let g =
    build
      {|
main:
  beq r1, r0, cheap
  nop
  nop
  jmp join
cheap:
  nop
join:
  halt
|}
  in
  (* Cost = block length: the expensive arm must be chosen. *)
  let cost id = Cfg.Block.length (Cfg.Graph.block g id) in
  let r = Core.Ipet.solve g ~loop_bounds:[] ~block_cost:cost () in
  (* entry(1) + expensive arm(3) + join(1) = 5 *)
  Alcotest.(check int) "max path" 5 r.Core.Ipet.wcet

let test_ipet_loop_bound () =
  let g =
    build
      {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  let bounds = bounds_for g in
  let cost id = Cfg.Block.length (Cfg.Graph.block g id) in
  let r = Core.Ipet.solve g ~loop_bounds:bounds ~block_cost:cost () in
  (* Loop block (2 instrs) executes 10x, entry 1x (1 instr), halt 1x. *)
  Alcotest.(check int) "loop wcet" (1 + 20 + 1) r.Core.Ipet.wcet;
  let loop_block =
    match Cfg.Graph.block_of_instr g 1 with
    | Some id -> id
    | None -> Alcotest.fail "loop block"
  in
  Alcotest.(check int) "loop count 10" 10 r.Core.Ipet.block_counts.(loop_block)

let test_ipet_nested_bounds_multiply () =
  let g =
    build
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
  let bounds = bounds_for g in
  (* Unit costs make the objective push every count to its maximum. *)
  let r = Core.Ipet.solve g ~loop_bounds:bounds ~block_cost:(fun _ -> 1) () in
  let inner_block =
    match Cfg.Graph.block_of_instr g 2 with
    | Some id -> id
    | None -> Alcotest.fail "inner block"
  in
  (* Inner body: 3 per outer iteration, 4 outer iterations = 12. *)
  Alcotest.(check int) "inner executes 12x" 12
    r.Core.Ipet.block_counts.(inner_block)

let test_ipet_unbounded_loop_rejected () =
  let g = build "main:\nloop:\n  nop\n  jmp loop\n" in
  match Core.Ipet.solve g ~loop_bounds:[] ~block_cost:(fun _ -> 1) () with
  | exception Core.Ipet.Flow_infeasible _ -> ()
  | _ -> Alcotest.fail "expected Flow_infeasible (unbounded)"

let test_ipet_mutually_exclusive () =
  let g =
    build
      {|
main:
  beq r1, r0, b_
a_:
  nop
  nop
  jmp join
b_:
  nop
join:
  halt
|}
  in
  let a = Cfg.Graph.block_of_instr g (Isa.Program.label_index g.Cfg.Graph.program "a_") in
  let j = Cfg.Graph.block_of_instr g (Isa.Program.label_index g.Cfg.Graph.program "join") in
  match (a, j) with
  | Some a, Some j ->
      let cost id = Cfg.Block.length (Cfg.Graph.block g id) in
      let excl = Core.Ipet.solve g ~loop_bounds:[] ~block_cost:cost
          ~mutually_exclusive:[ (a, j) ] () in
      let plain = Core.Ipet.solve g ~loop_bounds:[] ~block_cost:cost () in
      (* Excluding the expensive arm together with join forces the cheap
         path. *)
      Alcotest.(check bool) "exclusion lowers WCET" true
        (excl.Core.Ipet.wcet < plain.Core.Ipet.wcet)
  | _ -> Alcotest.fail "blocks not found"

(* Every catalog procedure's WCET and BCET system, with the block costs
   the analysis installed, solved again by the dense cold-start stack:
   each optimum equals the production one.  The BCET model maximizes the
   negated costs, so its optimum is minus the BCET path's cost. *)
let test_ipet_catalog_matches_reference () =
  let platform = Core.Mode.solo_platform () in
  let suite = Workloads.Bench_programs.suite () in
  Alcotest.(check bool) "catalog non-empty" true (suite <> []);
  List.iter
    (fun (b : Workloads.Bench_programs.t) ->
      let ctx =
        Core.Context.of_platform ~annot:b.Workloads.Bench_programs.annot
          platform b.Workloads.Bench_programs.program
      in
      let w = Core.Wcet.analyze_with ~ctx platform in
      let bc = Core.Bcet.analyze_with ~ctx platform in
      List.iter
        (fun (name, (p : Core.Context.proc)) ->
          let pw = List.assoc name w.Core.Wcet.procs in
          let pb = List.assoc name bc.Core.Bcet.procs in
          (* A BCET block costs its own optimistic vector plus its
             callee's BCET, as [Core.Bcet.analyze_with] sums it. *)
          let bcet_cost id =
            Pipeline.Cost.Vec.total pb.Core.Bcet.attrib.(id)
            +
            match Cfg.Graph.callee_of_block p.Core.Context.graph id with
            | Some callee ->
                (List.assoc callee bc.Core.Bcet.procs).Core.Bcet.bcet
            | None -> 0
          in
          let check what prepared ~block_cost expected =
            let what =
              Printf.sprintf "%s/%s %s" b.Workloads.Bench_programs.name name
                what
            in
            match
              Lp_reference.solve_ilp (Core.Ipet.model prepared ~block_cost)
            with
            | Lp_reference.Ilp_optimal (o, _) ->
                Alcotest.(check int) what expected (Lp.Q.to_int_exn o)
            | Lp_reference.Ilp_unbounded | Lp_reference.Ilp_infeasible ->
                Alcotest.failf "%s: reference stack found no optimum" what
          in
          check "wcet"
            (Lazy.force p.Core.Context.ipet_wcet)
            ~block_cost:(fun id -> pw.Core.Wcet.block_costs.(id))
            pw.Core.Wcet.ipet.Core.Ipet.wcet;
          check "bcet"
            (Lazy.force p.Core.Context.ipet_bcet)
            ~block_cost:bcet_cost
            (-pb.Core.Bcet.ipet.Core.Ipet.wcet))
        ctx.Core.Context.procs)
    suite

(* ------------------------------------------------------------------ *)
(* Platform                                                           *)
(* ------------------------------------------------------------------ *)

let test_platform_bounds () =
  let p = Core.Platform.single_core () in
  Alcotest.(check int) "private bus no wait" 0 (Core.Platform.bus_wait p);
  let l2 = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  let p2 =
    {
      p with
      Core.Platform.l2 = Core.Platform.Private_l2 l2;
      arbiter = Interconnect.Arbiter.Round_robin { cores = 4 };
      core = 1;
    }
  in
  (* lmax = l2 10 + mem 50 = 60; wait = 3 * 60. *)
  Alcotest.(check int) "rr wait" 180 (Core.Platform.bus_wait p2);
  let fcfs = { p2 with Core.Platform.arbiter = Interconnect.Arbiter.Fcfs { cores = 4 } } in
  match Core.Platform.bus_wait fcfs with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "FCFS must be rejected"

(* [Platform.equivalent] is [fingerprint] equality without the
   rendering.  Over a grid of platforms (L2 modes, arbiters and cores,
   latencies, L1 geometry, method cache, refresh, memory arbiter) the
   two agree pair by pair, shared and locked L2s holding one set of
   closures included; another closure makes two platforms differ. *)
let test_platform_equivalent () =
  let module P = Core.Platform in
  let module A = Interconnect.Arbiter in
  let base = P.single_core () in
  let l2 = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16 in
  let conflicts k = Array.init 64 (fun s -> if s = 3 then k else 0) in
  let bypass _ = false in
  let selection_of _ = { Cache.Locking.locked = [] } in
  let reload_cost ~proc:_ _ = 0 in
  let shared ?(bypass = bypass) k =
    P.Shared_l2 { config = l2; conflicts = conflicts k; bypass }
  in
  let locked ?(selection_of = selection_of) () =
    P.Locked_l2 { config = l2; selection_of; reload_cost }
  in
  let l2s =
    [
      P.No_l2;
      P.Private_l2 l2;
      P.Private_l2 (Cache.Config.make ~sets:32 ~assoc:4 ~line_size:16);
      shared 0;
      shared 1;
      locked ();
    ]
  in
  let arbiters =
    [
      (A.Private, 0);
      (A.Round_robin { cores = 4 }, 0);
      (A.Round_robin { cores = 4 }, 3);
      (A.Tdma { cores = 2; slot = 200 }, 0);
      (A.Tdma { cores = 2; slot = 200 }, 1);
      (A.Weighted { weights = [| 1; 2; 3 |] }, 0);
      (A.Weighted { weights = [| 1; 2; 3 |] }, 2);
    ]
  in
  let variants =
    [
      Fun.id;
      (fun p ->
        let lat = p.P.latencies in
        { p with P.latencies = { lat with Pipeline.Latencies.mem = 60 } });
      (fun p ->
        { p with P.l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16 });
      (fun p -> { p with P.method_cache = Some Cache.Method_cache.default });
      (fun p ->
        let refresh = A.Distributed { interval = 1000; duration = 5 } in
        { p with P.refresh });
      (fun p ->
        { p with P.mem_arbiter = Some (A.Round_robin { cores = 2 }, 1) });
    ]
  in
  let platforms =
    List.concat_map
      (fun l2 ->
        List.concat_map
          (fun (arbiter, core) ->
            List.map (fun v -> v { base with P.l2; arbiter; core }) variants)
          arbiters)
      l2s
  in
  let rendered =
    List.map
      (fun p ->
        match P.fingerprint p with
        | Some (`Pure s | `Needs_salt s) -> (p, s)
        | None -> Alcotest.fail "grid platform has no bound")
      platforms
  in
  let symmetric = ref 0 in
  List.iter
    (fun (a, fa) ->
      List.iter
        (fun (b, fb) ->
          if P.equivalent a b <> (fa = fb) then
            Alcotest.failf "equivalent disagrees with fingerprint: %s vs %s"
              fa fb;
          if fa = fb && a.P.core <> b.P.core then incr symmetric)
        rendered)
    rendered;
  Alcotest.(check bool)
    "symmetric cores are equivalent" true (!symmetric > 0);
  let with_l2 l2 = { base with P.l2 } in
  let probe = Hashtbl.mem (Hashtbl.create 1) in
  Alcotest.(check bool) "the same bypass closure" true
    (P.equivalent (with_l2 (shared ~bypass:probe 0))
       (with_l2 (shared ~bypass:probe 0)));
  Alcotest.(check bool) "another bypass closure" false
    (P.equivalent (with_l2 (shared ~bypass:probe 0))
       (with_l2 (shared ~bypass:(Hashtbl.mem (Hashtbl.create 1)) 0)));
  let sel = { Cache.Locking.locked = [ 1 ] } in
  Alcotest.(check bool) "another lock selection closure" false
    (P.equivalent
       (with_l2 (locked ~selection_of:(fun _ -> sel) ()))
       (with_l2 (locked ~selection_of:(fun _ -> sel) ())));
  let fcfs = { base with P.arbiter = A.Fcfs { cores = 2 } } in
  Alcotest.(check bool) "no bound, nothing equivalent" false
    (P.equivalent fcfs fcfs)

(* ------------------------------------------------------------------ *)
(* Single-task WCET                                                   *)
(* ------------------------------------------------------------------ *)

let sum_src =
  "main:\n  li r1, 10\n  li r2, 0\nloop:\n  add r2, r2, r1\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\n"


let test_wcet_sound_and_tight () =
  let p = parse sum_src in
  let platform = Core.Platform.single_core () in
  let a = Core.Wcet.analyze platform p in
  let r = Sim.Machine.run_single (Core.Platform.machine platform) p () in
  Alcotest.(check bool) "halted" true r.Sim.Machine.halted;
  Alcotest.(check bool)
    (Printf.sprintf "sound: %d >= %d" a.Core.Wcet.wcet r.Sim.Machine.cycles)
    true
    (a.Core.Wcet.wcet >= r.Sim.Machine.cycles);
  Alcotest.(check bool)
    (Printf.sprintf "tight within 2x (%d vs %d)" a.Core.Wcet.wcet
       r.Sim.Machine.cycles)
    true
    (a.Core.Wcet.wcet <= 2 * r.Sim.Machine.cycles)

let test_wcet_with_l2_sound () =
  let p = parse sum_src in
  let l2 = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  let platform = Core.Platform.single_core ~l2 () in
  let a = Core.Wcet.analyze platform p in
  let r = Sim.Machine.run_single (Core.Platform.machine platform) p () in
  Alcotest.(check bool) "sound with L2" true
    (a.Core.Wcet.wcet >= r.Sim.Machine.cycles)

let test_wcet_calls () =
  let p =
    parse
      "main:\n  li r1, 3\n  call f\n  call f\n  halt\nf:\n  mul r1, r1, r1\n  ret\n"
  in
  let platform = Core.Platform.single_core () in
  let a = Core.Wcet.analyze platform p in
  let r = Sim.Machine.run_single (Core.Platform.machine platform) p () in
  Alcotest.(check bool) "sound across calls" true
    (a.Core.Wcet.wcet >= r.Sim.Machine.cycles);
  Alcotest.(check int) "two procedures" 2 (List.length a.Core.Wcet.procs);
  Alcotest.(check bool) "callee wcet positive" true
    (Core.Wcet.proc_wcet a "f" > 0)

let test_wcet_rejects_recursion () =
  let p = parse "main:\n  call main\n  halt\n" in
  match Core.Wcet.analyze (Core.Platform.single_core ()) p with
  | exception Core.Wcet.Not_analysable _ -> ()
  | _ -> Alcotest.fail "expected Not_analysable"

let test_wcet_rejects_unbounded () =
  let p = parse "main:\n  ld.io r1, 0(r0)\nl:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n" in
  (match Core.Wcet.analyze (Core.Platform.single_core ()) p with
  | exception Core.Wcet.Not_analysable _ -> ()
  | _ -> Alcotest.fail "expected Not_analysable");
  (* With an annotation it goes through. *)
  let annot =
    Dataflow.Annot.with_loop_bound Dataflow.Annot.empty ~proc:"main"
      ~header_label:"l" 100
  in
  let a = Core.Wcet.analyze ~annot (Core.Platform.single_core ()) p in
  Alcotest.(check bool) "bounded via annotation" true (a.Core.Wcet.wcet > 0)

let test_wcet_monotone_in_bus_wait () =
  let p = parse sum_src in
  let l2 = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  let base = Core.Platform.single_core ~l2 () in
  let with_cores n =
    {
      base with
      Core.Platform.arbiter = Interconnect.Arbiter.Round_robin { cores = n };
      core = 0;
    }
  in
  let w1 = (Core.Wcet.analyze (with_cores 1) p).Core.Wcet.wcet in
  let w4 = (Core.Wcet.analyze (with_cores 4) p).Core.Wcet.wcet in
  let w8 = (Core.Wcet.analyze (with_cores 8) p).Core.Wcet.wcet in
  Alcotest.(check bool) "wcet grows with contention" true (w1 < w4 && w4 < w8)

let test_wcet_footprint () =
  let p = parse sum_src in
  let l2 = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  let platform = Core.Platform.single_core ~l2 () in
  let a = Core.Wcet.analyze platform p in
  match Core.Wcet.footprint a with
  | Some fp ->
      Alcotest.(check bool) "footprint nonempty" true
        (Array.exists (fun c -> c > 0) fp)
  | None -> Alcotest.fail "expected a footprint with an L2"

(* ------------------------------------------------------------------ *)
(* Multicore approaches                                               *)
(* ------------------------------------------------------------------ *)

let mk_system cores =
  let task =
    parse
      "main:\n  li r1, 24\nloop:\n  subi r1, r1, 1\n  ld.d r2, 0(r1)\n  bne r1, r0, loop\n  halt\n"
  in
  Core.Multicore.default_system ~cores
    ~tasks:(Array.init cores (fun _ -> Some (task, Dataflow.Annot.empty)))

let get_wcets results =
  Array.to_list (Core.Multicore.wcets results)
  |> List.map (function Some w -> w | None -> Alcotest.fail "missing wcet")

let test_multicore_oblivious_lowest () =
  let sys = mk_system 4 in
  let obl = get_wcets (Core.Multicore.analyze_oblivious sys) in
  let joint = get_wcets (Core.Multicore.analyze_joint sys ()) in
  let part =
    get_wcets
      (Core.Multicore.analyze_partitioned sys
         ~scheme:Cache.Partition.Columnization)
  in
  (* The oblivious "bound" ignores bus and cache interference: it must be
     the smallest — that is exactly why it is unsafe. *)
  List.iteri
    (fun i o ->
      Alcotest.(check bool) "oblivious < joint" true (o < List.nth joint i);
      Alcotest.(check bool) "oblivious < partitioned" true
        (o < List.nth part i))
    obl

let test_multicore_joint_refinements_help () =
  let sys = mk_system 4 in
  let naive = get_wcets (Core.Multicore.analyze_joint sys ()) in
  let bypassed = get_wcets (Core.Multicore.analyze_joint sys ~bypass:true ()) in
  let no_overlap =
    get_wcets
      (Core.Multicore.analyze_joint sys ~overlaps:(fun _ _ -> false) ())
  in
  List.iteri
    (fun i n ->
      Alcotest.(check bool) "bypass never hurts" true
        (List.nth bypassed i <= n);
      Alcotest.(check bool) "no-overlap never hurts" true
        (List.nth no_overlap i <= n))
    naive

let test_multicore_partition_schemes () =
  let sys = mk_system 4 in
  let col =
    get_wcets
      (Core.Multicore.analyze_partitioned sys
         ~scheme:Cache.Partition.Columnization)
  in
  let bank =
    get_wcets
      (Core.Multicore.analyze_partitioned sys
         ~scheme:Cache.Partition.Bankization)
  in
  Alcotest.(check int) "four columnized wcets" 4 (List.length col);
  Alcotest.(check int) "four bankized wcets" 4 (List.length bank)

let test_multicore_locked () =
  let sys = mk_system 2 in
  let locked = get_wcets (Core.Multicore.analyze_locked sys) in
  Alcotest.(check int) "two wcets" 2 (List.length locked);
  List.iter (fun w -> Alcotest.(check bool) "positive" true (w > 0)) locked

let test_multicore_validation_joint () =
  (* Soundness end-to-end: simulated contended execution within the joint
     bound. *)
  let sys = mk_system 2 in
  let joint = get_wcets (Core.Multicore.analyze_joint sys ()) in
  let cfg =
    Core.Multicore.machine_config sys
      ~l2:(Sim.Machine.Shared_l2 sys.Core.Multicore.l2)
  in
  let cores =
    Array.map
      (function
        | Some (p, _) -> Sim.Machine.task p
        | None -> Sim.Machine.idle)
      sys.Core.Multicore.tasks
  in
  let rs = Sim.Machine.run cfg ~cores () in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d: %d <= %d" i r.Sim.Machine.cycles
           (List.nth joint i))
        true
        (r.Sim.Machine.halted && r.Sim.Machine.cycles <= List.nth joint i))
    rs

let test_multicore_validation_partitioned () =
  let sys = mk_system 2 in
  let part =
    get_wcets
      (Core.Multicore.analyze_partitioned sys
         ~scheme:Cache.Partition.Columnization)
  in
  let alloc =
    Cache.Partition.even_shares Cache.Partition.Columnization
      sys.Core.Multicore.l2 ~parts:2
  in
  let slices =
    Array.init 2 (fun i ->
        Cache.Partition.partition_config sys.Core.Multicore.l2 alloc ~index:i)
  in
  let cfg =
    Core.Multicore.machine_config sys ~l2:(Sim.Machine.Private_l2 slices)
  in
  let cores =
    Array.map
      (function
        | Some (p, _) -> Sim.Machine.task p
        | None -> Sim.Machine.idle)
      sys.Core.Multicore.tasks
  in
  let rs = Sim.Machine.run cfg ~cores () in
  Array.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d: %d <= %d" i r.Sim.Machine.cycles
           (List.nth part i))
        true
        (r.Sim.Machine.halted && r.Sim.Machine.cycles <= List.nth part i))
    rs

(* ------------------------------------------------------------------ *)
(* Response time / lifetime                                           *)
(* ------------------------------------------------------------------ *)

let test_np_response_times () =
  let tasks =
    [
      { Core.Response_time.name = "hi"; wcet = 2; period = 10 };
      { Core.Response_time.name = "mid"; wcet = 3; period = 20 };
      { Core.Response_time.name = "lo"; wcet = 4; period = 50 };
    ]
  in
  match Core.Response_time.non_preemptive_response_times tasks with
  | [ ("hi", Some rhi); ("mid", Some rmid); ("lo", Some rlo) ] ->
      (* hi: C 2 + blocking max(3,4)=4 -> 6; mid: 3 + 4 + interference;
         lo: no blocking. *)
      Alcotest.(check int) "hi" 6 rhi;
      Alcotest.(check bool) "mid >= 7" true (rmid >= 7);
      Alcotest.(check bool) "lo >= 9" true (rlo >= 9)
  | _ -> Alcotest.fail "unexpected RTA shape"

let test_np_unschedulable () =
  let tasks =
    [
      { Core.Response_time.name = "a"; wcet = 8; period = 10 };
      { Core.Response_time.name = "b"; wcet = 8; period = 10 };
    ]
  in
  match Core.Response_time.non_preemptive_response_times tasks with
  | [ _; ("b", None) ] -> ()
  | _ -> Alcotest.fail "expected b unschedulable"

let test_lifetime_refinement () =
  let sys = mk_system 2 in
  (* Far-apart offsets: windows cannot overlap, conflicts vanish. *)
  let apart =
    Core.Response_time.lifetime_refinement sys ~offsets:[| 0; 1_000_000 |]
  in
  let together =
    Core.Response_time.lifetime_refinement sys ~offsets:[| 0; 0 |]
  in
  let w arr i = match arr.(i) with Some w -> w | None -> Alcotest.fail "w" in
  Alcotest.(check bool) "disjoint windows give lower or equal WCET" true
    (w apart.Core.Response_time.wcets 0 <= w together.Core.Response_time.wcets 0);
  Alcotest.(check bool) "overlap matrix reflects offsets" true
    (not apart.Core.Response_time.overlaps.(0).(1));
  Alcotest.(check bool) "together overlaps" true
    together.Core.Response_time.overlaps.(0).(1)

(* Every iteration of the refinement bounds the task set on one front
   end per task. *)
let test_lifetime_refinement_front_ends () =
  let task name =
    let b = Option.get (Workloads.Bench_programs.by_name name) in
    Some Workloads.Bench_programs.(b.program, b.annot)
  in
  let sys =
    Core.Multicore.default_system ~cores:3
      ~tasks:[| task "fir"; task "crc"; task "matmul" |]
  in
  let r, builds =
    Front_ends.count (fun () ->
        Core.Response_time.lifetime_refinement sys
          ~offsets:[| 0; 0; 1_000_000 |])
  in
  Alcotest.(check int) "iterations" 2 r.Core.Response_time.iterations;
  Alcotest.(check int) "ctx.build spans" 3 builds

(* ------------------------------------------------------------------ *)
(* BCET                                                               *)
(* ------------------------------------------------------------------ *)

let test_bcet_sandwich () =
  let p = parse sum_src in
  let platform = Core.Platform.single_core () in
  let w = Core.Wcet.analyze platform p in
  let b = Core.Bcet.analyze platform p in
  let r = Sim.Machine.run_single (Core.Platform.machine platform) p () in
  Alcotest.(check bool)
    (Printf.sprintf "bcet %d <= observed %d <= wcet %d" b.Core.Bcet.bcet
       r.Sim.Machine.cycles w.Core.Wcet.wcet)
    true
    (b.Core.Bcet.bcet <= r.Sim.Machine.cycles
    && r.Sim.Machine.cycles <= w.Core.Wcet.wcet);
  Alcotest.(check bool) "bcet positive" true (b.Core.Bcet.bcet > 0)

let test_bcet_uses_min_loop_bounds () =
  (* The counted loop runs exactly 10 times: the BCET path must include
     all 10 iterations, not skip the loop. *)
  let p = parse sum_src in
  let b = Core.Bcet.analyze (Core.Platform.single_core ()) p in
  let pr = List.assoc "main" b.Core.Bcet.procs in
  let g = Cfg.Graph.build p ~entry:"main" in
  let loop_block =
    match Cfg.Graph.block_of_instr g (Isa.Program.label_index p "loop") with
    | Some id -> id
    | None -> Alcotest.fail "loop block"
  in
  Alcotest.(check int) "loop executed 10x on BCET path" 10
    pr.Core.Bcet.ipet.Core.Ipet.block_counts.(loop_block)

let test_bcet_diamond_takes_min () =
  let p =
    parse
      "main:\n  ld.d r1, 0(r0)\n  beq r1, r0, cheap\n  mul r2, r2, r2\n  mul r2, r2, r2\n  jmp out\ncheap:\n  nop\nout:\n  halt\n"
  in
  let platform = Core.Platform.single_core () in
  let w = (Core.Wcet.analyze platform p).Core.Wcet.wcet in
  let b = (Core.Bcet.analyze platform p).Core.Bcet.bcet in
  Alcotest.(check bool) "bcet < wcet on diamond" true (b < w)

let test_analytic_quotient () =
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Core.Bcet.analytic_quotient ~bcet:50 ~wcet:100);
  Alcotest.(check (float 1e-9)) "clamped" 1.0
    (Core.Bcet.analytic_quotient ~bcet:200 ~wcet:100)

(* ------------------------------------------------------------------ *)
(* Method cache platform                                              *)
(* ------------------------------------------------------------------ *)

let mc_config = { Cache.Method_cache.slots = 8; fill_per_word = 2 }

let method_platform () =
  { (Core.Platform.single_core ()) with Core.Platform.method_cache = Some mc_config }

let test_method_cache_sound () =
  let sources =
    [ sum_src;
      "main:\n  li r1, 3\n  call f\n  call f\n  halt\nf:\n  mul r1, r1, r1\n  ret\n";
      "main:\n  li r1, 4\nl:\n  call work\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\nwork:\n  nop\n  nop\n  ret\n" ]
  in
  List.iter
    (fun src ->
      let p = parse src in
      let platform = method_platform () in
      let a = Core.Wcet.analyze platform p in
      let r =
        (Sim.Machine.run (Core.Platform.machine platform)
           ~cores:[| Sim.Machine.task p |] ()).(0)
      in
      Alcotest.(check bool)
        (Printf.sprintf "method-cache sound: %d >= %d" a.Core.Wcet.wcet
           r.Sim.Machine.cycles)
        true
        (r.Sim.Machine.halted && a.Core.Wcet.wcet >= r.Sim.Machine.cycles))
    sources

let test_method_cache_misses_only_at_calls () =
  (* A loop with no calls: after the initial function load, the method
     cache never interferes; simulated time matches a pure
     scratchpad-fetch model exactly. *)
  let p = parse sum_src in
  let platform = method_platform () in
  let r =
    (Sim.Machine.run (Core.Platform.machine platform)
       ~cores:[| Sim.Machine.task p |] ()).(0)
  in
  (* fetch 1 + exec cost per instruction, plus the single entry load. *)
  let per_instr =
    let st = Isa.Exec.init p in
    let rec go acc =
      if Isa.Exec.halted st then acc
      else begin
        let ins = Isa.Program.instr p st.Isa.Exec.pc in
        let c =
          1 + Pipeline.Latencies.exec_cost Pipeline.Latencies.default ins
          + (match ins with
            | Isa.Instr.Load _ | Isa.Instr.Store _ -> 1
            | _ -> 0)
        in
        ignore (Isa.Exec.step p st);
        go (acc + c)
      end
    in
    go 0
  in
  let load =
    Cache.Method_cache.load_cost mc_config ~mem_latency:50
      ~size_words:(Isa.Program.length p)
  in
  Alcotest.(check int) "exact method-cache timing" (per_instr + load)
    r.Sim.Machine.cycles

let test_method_cache_thrashing_charged () =
  (* Two functions alternating in a 1-slot cache: every call reloads. *)
  let src =
    "main:\n  li r1, 4\nl:\n  call f\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\nf:\n  ret\n"
  in
  let p = parse src in
  let tiny = { Cache.Method_cache.slots = 1; fill_per_word = 2 } in
  let platform =
    { (Core.Platform.single_core ()) with Core.Platform.method_cache = Some tiny }
  in
  let roomy = method_platform () in
  let w_tiny = (Core.Wcet.analyze platform p).Core.Wcet.wcet in
  let w_roomy = (Core.Wcet.analyze roomy p).Core.Wcet.wcet in
  Alcotest.(check bool) "thrashing costs more" true (w_tiny > w_roomy);
  let r =
    (Sim.Machine.run (Core.Platform.machine platform)
       ~cores:[| Sim.Machine.task p |] ()).(0)
  in
  Alcotest.(check bool)
    (Printf.sprintf "tiny cache sound: %d >= %d" w_tiny r.Sim.Machine.cycles)
    true
    (w_tiny >= r.Sim.Machine.cycles)

(* ------------------------------------------------------------------ *)
(* Joint interleaving explorer                                        *)
(* ------------------------------------------------------------------ *)

let test_interleaving_product_growth () =
  let g = build "main:\n  li r1, 2\nl:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n" in
  let s1 = Core.Joint_interleaving.explore [ g ] in
  let s2 = Core.Joint_interleaving.explore [ g; g ] in
  let s3 = Core.Joint_interleaving.explore [ g; g; g ] in
  Alcotest.(check int) "1 thread = blocks" (Cfg.Graph.num_blocks g)
    s1.Core.Joint_interleaving.states;
  Alcotest.(check int) "2 threads = blocks^2"
    (s1.Core.Joint_interleaving.states * s1.Core.Joint_interleaving.states)
    s2.Core.Joint_interleaving.states;
  Alcotest.(check int) "3 threads = blocks^3"
    (s1.Core.Joint_interleaving.states * s2.Core.Joint_interleaving.states)
    s3.Core.Joint_interleaving.states;
  Alcotest.(check int) "a-priori bound matches"
    s2.Core.Joint_interleaving.states
    (Core.Joint_interleaving.product_size_bound [ g; g ])

let test_interleaving_cap () =
  let g = build "main:\n  li r1, 2\nl:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n" in
  let s = Core.Joint_interleaving.explore ~max_states:5 [ g; g; g ] in
  Alcotest.(check bool) "capped flagged" true s.Core.Joint_interleaving.capped;
  Alcotest.(check bool) "states at cap" true
    (s.Core.Joint_interleaving.states <= 5)

(* ------------------------------------------------------------------ *)
(* Dynamic locking                                                    *)
(* ------------------------------------------------------------------ *)

let test_dynamic_locking_runs () =
  let sys = mk_system 2 in
  let stat = get_wcets (Core.Multicore.analyze_locked sys) in
  let dyn = get_wcets (Core.Multicore.analyze_locked_dynamic sys) in
  Alcotest.(check int) "two static" 2 (List.length stat);
  Alcotest.(check int) "two dynamic" 2 (List.length dyn);
  List.iter (fun w -> Alcotest.(check bool) "positive" true (w > 0)) dyn

let test_bypass_lines_of_straightline () =
  (* A straight-line task's whole footprint is single-usage. *)
  let b = Workloads.Bench_programs.straightline ~n:8 in
  let sys =
    Core.Multicore.default_system ~cores:1
      ~tasks:
        [| Some
             ( b.Workloads.Bench_programs.program,
               b.Workloads.Bench_programs.annot ) |]
  in
  let lines =
    Core.Multicore.bypass_lines sys
      (b.Workloads.Bench_programs.program, b.Workloads.Bench_programs.annot)
  in
  Alcotest.(check bool) "nonempty" true (lines <> []);
  (* And a looped task keeps its loop lines out of the bypass set. *)
  let loop = Workloads.Bench_programs.memory_bound ~n:8 in
  let loop_lines =
    Core.Multicore.bypass_lines sys
      ( loop.Workloads.Bench_programs.program,
        loop.Workloads.Bench_programs.annot )
  in
  let g =
    Cfg.Graph.build loop.Workloads.Bench_programs.program ~entry:"main"
  in
  let loop_instr = Isa.Program.label_index g.Cfg.Graph.program "loop" in
  let loop_code_line =
    Cache.Config.line_of_addr sys.Core.Multicore.l2
      (Isa.Program.addr_of_index g.Cfg.Graph.program loop_instr)
  in
  Alcotest.(check bool) "loop code line not bypassed" false
    (List.mem loop_code_line loop_lines)

(* The bypass heuristic reads the plain value analysis (every register
   forgotten at calls), not the interprocedurally refined one the WCET
   uses.  On this generated program the two give different L2 access
   targets, and the refined one drops line 65,538 from the bypass set. *)
let test_bypass_lines_read_plain_analysis () =
  let gen = Fuzz.Generator.generate ~seed:5 ~index:64 () in
  let task = (gen.Fuzz.Generator.program, gen.Fuzz.Generator.annot) in
  let sys =
    Core.Multicore.default_system ~cores:2 ~tasks:[| Some task; Some task |]
  in
  let ctx =
    Core.Context.build ~annot:gen.Fuzz.Generator.annot
      ~l1i:sys.Core.Multicore.l1i ~l1d:sys.Core.Multicore.l1d
      gen.Fuzz.Generator.program
  in
  (* The single-usage lines over each procedure's accesses under [va]. *)
  let lines_under va_of =
    List.concat_map
      (fun (_, (p : Core.Context.proc)) ->
        let g = p.Core.Context.graph and va = va_of p in
        Cache.Multilevel.single_usage_lines g p.Core.Context.loops
          ~l2_accesses:(fun id ->
            Cache.Analysis.instruction_accesses sys.Core.Multicore.l2 g id
            @ Cache.Analysis.data_accesses sys.Core.Multicore.l2 g va id))
      ctx.Core.Context.procs
    |> List.sort_uniq compare
  in
  let plain =
    lines_under (fun p ->
        Dataflow.Value_analysis.analyze p.Core.Context.graph)
  in
  let refined = lines_under (fun p -> p.Core.Context.va) in
  Alcotest.(check bool) "plain set holds line 65538" true
    (List.mem 65538 plain);
  Alcotest.(check bool) "refined set lacks it" false (List.mem 65538 refined);
  Alcotest.(check (list int)) "bypass lines = plain reference" plain
    (Core.Multicore.bypass_lines sys task);
  Alcotest.(check (list int)) "same over a shared context" plain
    (Core.Multicore.bypass_lines ~ctx sys task)

(* ------------------------------------------------------------------ *)
(* Mode-invariant contexts                                            *)
(* ------------------------------------------------------------------ *)

let test_context_backend_identical () =
  let program =
    parse
      "main:\n\
      \  li r1, 24\n\
       loop:\n\
      \  subi r1, r1, 1\n\
      \  ld.d r2, 0(r1)\n\
      \  bne r1, r0, loop\n\
      \  halt\n"
  in
  let annot = Dataflow.Annot.empty in
  let platform =
    Core.Platform.single_core
      ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
      ()
  in
  let fresh = Core.Wcet.analyze ~annot platform program in
  let ctx = Core.Context.of_platform ~annot platform program in
  let shared = Core.Wcet.analyze_with ~ctx platform in
  Alcotest.(check int) "wcet" fresh.Core.Wcet.wcet shared.Core.Wcet.wcet;
  List.iter2
    (fun (n1, (p1 : Core.Wcet.proc_result)) (n2, p2) ->
      Alcotest.(check string) "proc order" n1 n2;
      Alcotest.(check int)
        ("ipet objective of " ^ n1)
        p1.Core.Wcet.ipet.Core.Ipet.wcet p2.Core.Wcet.ipet.Core.Ipet.wcet)
    fresh.Core.Wcet.procs shared.Core.Wcet.procs;
  (* the whole attribution surface, row by row *)
  Alcotest.(check bool) "attrib rows identical" true
    (Attrib.of_wcet fresh = Attrib.of_wcet shared);
  let bf = Core.Bcet.analyze ~annot platform program in
  let bs = Core.Bcet.analyze_with ~ctx platform in
  Alcotest.(check int) "bcet" bf.Core.Bcet.bcet bs.Core.Bcet.bcet;
  Alcotest.(check bool) "bcet attrib identical" true
    (Attrib.of_bcet bf = Attrib.of_bcet bs);
  (* One facts value under two L1 geometries — the solo 64x2 L1 and the
     2-core system's 4x2 L1 — as the fuzz oracle shares it: the contexts
     hold the geometry-free facts physically, and each context's back
     ends equal the fresh analysis on its own platform. *)
  let facts = Core.Context.facts ~annot program in
  let sys =
    Core.Multicore.default_system ~cores:2
      ~tasks:(Array.make 2 (Some (program, annot)))
  in
  let system_platform =
    {
      platform with
      Core.Platform.l1i = sys.Core.Multicore.l1i;
      l1d = sys.Core.Multicore.l1d;
      l2 = Core.Platform.Private_l2 sys.Core.Multicore.l2;
    }
  in
  let of_platform (pl : Core.Platform.t) =
    Core.Context.of_facts facts ~l1i:pl.Core.Platform.l1i
      ~l1d:pl.Core.Platform.l1d ()
  in
  let solo_ctx = of_platform platform
  and sys_ctx = of_platform system_platform in
  List.iter2
    (fun (name, (a : Core.Context.proc)) (_, (b : Core.Context.proc)) ->
      Alcotest.(check bool) (name ^ " shares va") true
        (a.Core.Context.va == b.Core.Context.va);
      Alcotest.(check bool) (name ^ " shares ipet_wcet") true
        (a.Core.Context.ipet_wcet == b.Core.Context.ipet_wcet))
    solo_ctx.Core.Context.procs sys_ctx.Core.Context.procs;
  List.iter
    (fun (label, ctx, pl) ->
      let fw = Core.Wcet.analyze ~annot pl program
      and sw = Core.Wcet.analyze_with ~ctx pl in
      Alcotest.(check int) (label ^ " wcet") fw.Core.Wcet.wcet
        sw.Core.Wcet.wcet;
      Alcotest.(check bool) (label ^ " wcet attrib") true
        (Attrib.of_wcet fw = Attrib.of_wcet sw);
      let fb = Core.Bcet.analyze ~annot pl program
      and sb = Core.Bcet.analyze_with ~ctx pl in
      Alcotest.(check int) (label ^ " bcet") fb.Core.Bcet.bcet
        sb.Core.Bcet.bcet;
      Alcotest.(check bool) (label ^ " bcet attrib") true
        (Attrib.of_bcet fb = Attrib.of_bcet sb))
    [ ("solo L1", solo_ctx, platform); ("system L1", sys_ctx, system_platform) ]

let contended_modes = List.filter (( <> ) Core.Mode.Solo) Core.Mode.all

(* The fresh reference: one context per occupied slot, shared with no
   other slot, so every slot runs its own front and back end. *)
let unshared_contexts (sys : Core.Multicore.system) =
  Array.map
    (Option.map (fun (program, annot) ->
         Core.Context.build ~annot ~l1i:sys.Core.Multicore.l1i
           ~l1d:sys.Core.Multicore.l1d program))
    sys.Core.Multicore.tasks

(* Every slot of a shared-context analysis against the fresh per-slot
   one: the store entry, the attribution rows and the core id. *)
let check_slots label fresh shared =
  Alcotest.(check int) (label ^ ": slots") (Array.length fresh)
    (Array.length shared);
  Array.iteri
    (fun i f ->
      match (f, shared.(i)) with
      | None, None -> ()
      | Some (f : Core.Wcet.t), Some (s : Core.Wcet.t) ->
          if
            not
              (Store.Entry.equal (Store.Entry.of_wcet f)
                 (Store.Entry.of_wcet s))
          then Alcotest.failf "%s, slot %d: store entries differ" label i;
          if Attrib.of_wcet f <> Attrib.of_wcet s then
            Alcotest.failf "%s, slot %d: attribution rows differ" label i;
          if f.Core.Wcet.platform.Core.Platform.core
             <> s.Core.Wcet.platform.Core.Platform.core
          then Alcotest.failf "%s, slot %d: core ids differ" label i
      | _ -> Alcotest.failf "%s, slot %d: occupancy differs" label i)
    fresh

(* One context per distinct task, and one back end per distinct slot:
   over the catalog, cores 1-4, three arbiters (round-robin, TDMA,
   weighted with a different wait per core) and the seven contended
   modes, the shared path equals one context per slot on every slot. *)
let test_context_shared_across_slots () =
  let sys = mk_system 4 in
  let ctxs = Core.Multicore.contexts sys in
  Alcotest.(check int) "four slots" 4 (Array.length ctxs);
  (match ctxs.(0) with
  | None -> Alcotest.fail "no context for slot 0"
  | Some c0 ->
      Array.iteri
        (fun i c ->
          match c with
          | Some ci ->
              Alcotest.(check bool)
                (Printf.sprintf "slot %d shares slot 0's context" i)
                true (ci == c0)
          | None -> Alcotest.fail "missing slot context")
        ctxs);
  let arbiters n =
    [
      Interconnect.Arbiter.Round_robin { cores = n };
      Interconnect.Arbiter.Tdma { cores = n; slot = 80 };
      Interconnect.Arbiter.Weighted
        { weights = Array.init n (fun i -> i + 1) };
    ]
  in
  List.iter
    (fun (b : Workloads.Bench_programs.t) ->
      let task = Workloads.Bench_programs.(b.program, b.annot) in
      for cores = 1 to 4 do
        List.iter
          (fun arbiter ->
            let sys =
              {
                (Core.Multicore.default_system ~cores
                   ~tasks:(Array.make cores (Some task)))
                with
                Core.Multicore.arbiter;
              }
            in
            let ctxs = Core.Multicore.contexts sys in
            List.iter
              (fun mode ->
                check_slots
                  (Printf.sprintf "%s, %d cores, %s, %s"
                     b.Workloads.Bench_programs.name cores
                     (Interconnect.Arbiter.describe arbiter)
                     (Core.Mode.name mode))
                  (Core.Mode.analyze ~ctxs:(unshared_contexts sys) sys mode)
                  (Core.Mode.analyze ~ctxs sys mode))
              contended_modes)
          (arbiters cores)
      done)
    (Workloads.Bench_programs.suite ())

(* Joint analysis over [A; A; B] where only slots 0 and 2 run at the
   same time: slots 0 and 1 share a context but not their conflicts, so
   each keeps its own back end, and every slot equals the unshared
   reference. *)
let test_context_shared_overlaps () =
  let suite = Array.of_list (Workloads.Bench_programs.suite ()) in
  let overlaps i j = i <> j && i + j = 2 in
  Array.iteri
    (fun i (a : Workloads.Bench_programs.t) ->
      let b = suite.((i + 1) mod Array.length suite) in
      let task (p : Workloads.Bench_programs.t) =
        Some Workloads.Bench_programs.(p.program, p.annot)
      in
      let sys =
        Core.Multicore.default_system ~cores:3
          ~tasks:[| task a; task a; task b |]
      in
      let ctxs = Core.Multicore.contexts sys in
      List.iter
        (fun bypass ->
          check_slots
            (Printf.sprintf "[%s; %s; %s], bypass %b"
               a.Workloads.Bench_programs.name a.Workloads.Bench_programs.name
               b.Workloads.Bench_programs.name bypass)
            (Core.Multicore.analyze_joint ~ctxs:(unshared_contexts sys) sys
               ~bypass ~overlaps ())
            (Core.Multicore.analyze_joint ~ctxs sys ~bypass ~overlaps ()))
        [ false; true ])
    suite

(* Slots that cannot differ run one back end: on an identical 4-slot
   group every mode solves each procedure's IPET once, and locking
   twice (the lock selection's oblivious analysis, then the locked
   one).  The joint modes read their phase-1 footprints from the
   context.  Without sharing that is 4/8/8/4/4/8/4 solves. *)
let test_context_one_backend_per_slot () =
  let b = Option.get (Workloads.Bench_programs.by_name "fir") in
  let task = Workloads.Bench_programs.(b.program, b.annot) in
  let sys =
    Core.Multicore.default_system ~cores:4 ~tasks:(Array.make 4 (Some task))
  in
  let ctxs = Core.Multicore.contexts sys in
  let procs =
    match ctxs.(0) with
    | Some c -> List.length c.Core.Context.procs
    | None -> Alcotest.fail "no context for slot 0"
  in
  List.iter2
    (fun mode solves ->
      let sink = Obs.Sink.create () in
      Obs.with_sink sink (fun () -> ignore (Core.Mode.analyze ~ctxs sys mode));
      let calls =
        match
          List.find_opt
            (fun (p : Obs.Summary.phase) -> p.Obs.Summary.name = "ipet-solve")
            (Obs.Summary.of_sink sink).Obs.Summary.phases
        with
        | Some p -> p.Obs.Summary.calls
        | None -> 0
      in
      Alcotest.(check int)
        (Core.Mode.name mode ^ ": ipet-solve spans")
        (solves * procs) calls)
    contended_modes [ 1; 1; 1; 1; 1; 2; 1 ]

(* A call without contexts builds its own, one per distinct task, and
   bounds every slot on them: one front end per mode call on an
   identical 4-slot group, where one context per slot would be 4. *)
let test_context_built_per_call () =
  let b = Option.get (Workloads.Bench_programs.by_name "fir") in
  let task = Workloads.Bench_programs.(b.program, b.annot) in
  let sys =
    Core.Multicore.default_system ~cores:4 ~tasks:(Array.make 4 (Some task))
  in
  let ctxs = Core.Multicore.contexts sys in
  List.iter
    (fun mode ->
      let own, builds =
        Front_ends.count (fun () -> Core.Mode.analyze sys mode)
      in
      Alcotest.(check int)
        (Core.Mode.name mode ^ ": ctx.build spans")
        1 builds;
      check_slots (Core.Mode.name mode)
        (Core.Mode.analyze ~ctxs sys mode)
        own)
    contended_modes

(* ------------------------------------------------------------------ *)
(* Approach modes                                                     *)
(* ------------------------------------------------------------------ *)

let test_mode_names () =
  Alcotest.(check int) "eight modes" 8 (List.length Core.Mode.all);
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Core.Mode.name m ^ " round-trips")
        true
        (Core.Mode.of_string (Core.Mode.name m) = Ok m))
    Core.Mode.all;
  Alcotest.(check bool) "case-insensitive" true
    (Core.Mode.of_string "JOINT" = Ok Core.Mode.Joint);
  match Core.Mode.of_string "nosuch" with
  | Ok _ -> Alcotest.fail "unknown mode parsed"
  | Error msg ->
      List.iter
        (fun m ->
          Alcotest.(check bool)
            ("error lists " ^ Core.Mode.name m)
            true
            (Astring.String.is_infix ~affix:(Core.Mode.name m) msg))
        Core.Mode.all

(* Two catalog programs on a 2-core system, one plain setup per slot. *)
let mode_group ?(names = [ "crc"; "vector_sum" ]) () =
  let tasks =
    List.map
      (fun name ->
        let b = Option.get (Workloads.Bench_programs.by_name name) in
        Workloads.Bench_programs.(b.program, b.annot))
      names
    |> Array.of_list
  in
  ( Core.Multicore.default_system ~cores:2
      ~tasks:(Array.map (fun t -> Some t) tasks),
    tasks,
    Array.map (fun (p, _) -> Sim.Machine.task p) tasks )

let test_mode_runs () =
  let sys, tasks, setups = mode_group () in
  let l2 = sys.Core.Multicore.l2 in
  let runs m = Core.Mode.runs sys m setups in
  let group m =
    match runs m with
    | [ r ] ->
        Alcotest.(check (array int))
          (Core.Mode.name m ^ " runs both slots")
          [| 0; 1 |] r.Core.Mode.slots;
        Alcotest.(check bool)
          (Core.Mode.name m ^ " keeps the system's bus")
          true
          (r.Core.Mode.config.Sim.Machine.arbiter
          = sys.Core.Multicore.arbiter);
        r
    | rs ->
        Alcotest.failf "%s: %d runs, expected one group run"
          (Core.Mode.name m) (List.length rs)
  in
  (match runs Core.Mode.Oblivious with
  | [ r0; r1 ] ->
      List.iteri
        (fun i (r : Core.Mode.run) ->
          Alcotest.(check (array int))
            "one slot each" [| i |] r.Core.Mode.slots;
          Alcotest.(check int) "one core" 1 (Array.length r.Core.Mode.setups);
          Alcotest.(check bool) "private L2" true
            (r.Core.Mode.config.Sim.Machine.l2
            = Sim.Machine.Private_l2 [| l2 |]);
          Alcotest.(check bool) "private bus" true
            (r.Core.Mode.config.Sim.Machine.arbiter
            = Interconnect.Arbiter.Private);
          Alcotest.(check bool) "the slot's program" true
            (r.Core.Mode.setups.(0).Sim.Machine.program
            = Some (fst tasks.(i))))
        [ r0; r1 ]
  | rs -> Alcotest.failf "oblivious: %d runs, expected 2" (List.length rs));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Core.Mode.name m ^ " on the shared L2")
        true
        ((group m).Core.Mode.config.Sim.Machine.l2
        = Sim.Machine.Shared_l2 l2))
    Core.Mode.[ Joint; Bypass; Locked ];
  List.iter
    (fun (m, scheme) ->
      let alloc = Cache.Partition.even_shares scheme l2 ~parts:2 in
      let slices =
        Array.init 2 (fun index ->
            Cache.Partition.partition_config l2 alloc ~index)
      in
      Alcotest.(check bool)
        (Core.Mode.name m ^ " on even slices")
        true
        ((group m).Core.Mode.config.Sim.Machine.l2
        = Sim.Machine.Private_l2 slices))
    [
      (Core.Mode.Columnized, Cache.Partition.Columnization);
      (Core.Mode.Bankized, Cache.Partition.Bankization);
    ];
  Alcotest.(check int) "dynamic has no run" 0
    (List.length (runs Core.Mode.Dynamic));
  (* Bypass: each setup bypasses exactly its task's single-usage lines
     (crc and vector_sum have none; straightline's are all of its). *)
  List.iter
    (fun names ->
      let sys, tasks, setups = mode_group ~names () in
      let lines = Array.map (Core.Multicore.bypass_lines sys) tasks in
      let top = List.fold_left max 0 (List.concat (Array.to_list lines)) in
      match Core.Mode.runs sys Core.Mode.Bypass setups with
      | [ r ] ->
          Array.iteri
            (fun i (s : Sim.Machine.core_setup) ->
              for l = 0 to top + 64 do
                if s.Sim.Machine.l2_bypass l <> List.mem l lines.(i) then
                  Alcotest.failf "slot %d: bypass of line %d disagrees" i l
              done)
            r.Core.Mode.setups
      | _ -> Alcotest.fail "bypass: expected one group run")
    [ [ "crc"; "vector_sum" ]; [ "crc"; "straightline" ] ];
  Alcotest.(check bool) "straightline's lines are bypassed" true
    (let sys, tasks, _ = mode_group ~names:[ "crc"; "straightline" ] () in
     Core.Multicore.bypass_lines sys tasks.(1) <> []);
  (* Locked: every setup preloads the global static selection. *)
  let locked =
    (Core.Multicore.static_lock_selection sys).Cache.Locking.locked
  in
  Array.iter
    (fun (s : Sim.Machine.core_setup) ->
      Alcotest.(check (list int)) "locked lines" locked
        s.Sim.Machine.locked_l2_lines)
    (group Core.Mode.Locked).Core.Mode.setups

let test_mode_solo_not_on_system () =
  let sys, _, setups = mode_group () in
  Alcotest.check_raises "analyze"
    (Invalid_argument "Mode: solo does not run on a system") (fun () ->
      ignore (Core.Mode.analyze sys Core.Mode.Solo));
  Alcotest.check_raises "runs"
    (Invalid_argument "Mode: solo does not run on a system") (fun () ->
      ignore (Core.Mode.runs sys Core.Mode.Solo setups))

(* ------------------------------------------------------------------ *)
(* Predictability                                                     *)
(* ------------------------------------------------------------------ *)

let test_quotient () =
  Alcotest.(check (float 1e-9)) "constant" 1.0
    (Core.Predictability.quotient [ 5; 5; 5 ]);
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Core.Predictability.quotient [ 10; 20 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Core.Predictability.quotient [])

let test_state_induced_quotient () =
  let p =
    parse "main:\n  li r1, 8\nl:\n  subi r1, r1, 1\n  ld.d r2, 0(r1)\n  bne r1, r0, l\n  halt\n"
  in
  let cfg =
    {
      Sim.Machine.latencies = Pipeline.Latencies.default;
      l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l2 = Sim.Machine.No_l2;
      arbiter = Interconnect.Arbiter.Private;
      refresh = Interconnect.Arbiter.Burst;
      i_path = Sim.Machine.Conventional;
    }
  in
  let addresses =
    List.init 8 (fun i -> Isa.Layout.byte_addr Isa.Instr.Data i)
  in
  let warmups =
    Core.Predictability.random_warmups ~seed:42 ~count:8 ~addresses
  in
  let q = Core.Predictability.state_induced cfg p ~warmups in
  Alcotest.(check bool) "0 < q <= 1" true (q > 0.0 && q <= 1.0);
  (* Warm data caches can only help: the cold run is the slowest, so
     with a warm state in the set the quotient is < 1. *)
  Alcotest.(check bool) "state variation observed" true (q < 1.0)

(* ------------------------------------------------------------------ *)
(* Report / dot / input-induced quotient                              *)
(* ------------------------------------------------------------------ *)

let test_report_render () =
  let p = parse sum_src in
  let a = Core.Wcet.analyze (Core.Platform.single_core ()) p in
  let r = Core.Report.render a in
  Alcotest.(check bool) "mentions wcet" true
    (Astring.String.is_infix ~affix:(string_of_int a.Core.Wcet.wcet) r);
  Alcotest.(check bool) "mentions loop bound" true
    (Astring.String.is_infix ~affix:"<= 9 back edges" r);
  let proc = Core.Report.render_proc a "main" in
  Alcotest.(check bool) "per-proc blocks listed" true
    (Astring.String.is_infix ~affix:"B0" proc)

let test_dot_output () =
  let p = parse sum_src in
  let a = Core.Wcet.analyze (Core.Platform.single_core ()) p in
  let dot = Core.Report.dot_of_proc a "main" in
  Alcotest.(check bool) "digraph" true
    (Astring.String.is_prefix ~affix:"digraph" dot);
  Alcotest.(check bool) "edges present" true
    (Astring.String.is_infix ~affix:"->" dot);
  Alcotest.(check bool) "counts annotated" true
    (Astring.String.is_infix ~affix:"x10" dot)

let test_input_induced_quotient () =
  (* A data-dependent branch: zero input skips the expensive arm. *)
  let p =
    parse
      "main:\n  li r1, 12\nl:\n  ld.d r2, 0(r1)\n  beq r2, r0, s\n  mul r3, r2, r2\n  mul r3, r3, r3\ns:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n"
  in
  let cfg =
    {
      Sim.Machine.latencies = Pipeline.Latencies.default;
      l1i = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16;
      l2 = Sim.Machine.No_l2;
      arbiter = Interconnect.Arbiter.Private;
      refresh = Interconnect.Arbiter.Burst;
      i_path = Sim.Machine.Conventional;
    }
  in
  let zero = [] in
  let ones = List.init 13 (fun i -> (i, 1)) in
  let q = Core.Predictability.input_induced cfg p ~inputs:[ zero; ones ] in
  Alcotest.(check bool) (Printf.sprintf "0 < %f < 1" q) true
    (q > 0.0 && q < 1.0);
  (* Same input twice: perfectly input-predictable. *)
  Alcotest.(check (float 1e-9)) "same inputs" 1.0
    (Core.Predictability.input_induced cfg p ~inputs:[ ones; ones ])

(* ------------------------------------------------------------------ *)
(* Monotonicity over generated programs (QCheck)                      *)
(* ------------------------------------------------------------------ *)

(* An index into a fixed fuzzing campaign: cheap to generate, trivially
   printable, and each index is an independent structured program. *)
let arb_fuzz_index =
  QCheck.make
    ~print:(fun i ->
      (Fuzz.Generator.generate ~seed:20260805 ~index:i ()).Fuzz.Generator.source)
    QCheck.Gen.(int_range 0 499)

let fuzz_system ~cores idx =
  let g = Fuzz.Generator.generate ~seed:20260805 ~index:idx () in
  Core.Multicore.default_system ~cores
    ~tasks:
      (Array.init cores (fun _ ->
           Some (g.Fuzz.Generator.program, g.Fuzz.Generator.annot)))

let wcet0 results =
  match results.(0) with
  | Some (a : Core.Wcet.t) -> a.Core.Wcet.wcet
  | None -> Alcotest.fail "core 0 has a task, expected a result"

(* More interfering cores never shrink the joint bound: both the bus
   population and the co-runner cache footprints grow with the task
   set. *)
let prop_joint_wcet_monotone_in_cores =
  QCheck.Test.make ~name:"joint WCET non-decreasing in interfering cores"
    ~count:12 arb_fuzz_index (fun idx ->
      let bound cores =
        wcet0 (Core.Multicore.analyze_joint (fuzz_system ~cores idx) ())
      in
      let w1 = bound 1 and w2 = bound 2 and w4 = bound 4 in
      w1 <= w2 && w2 <= w4)

(* The interference-oblivious analysis is the private-cache baseline
   every sharing-control scheme pays on top of: single-usage bypass and
   static locking must never report a bound below it. *)
let prop_sharing_controls_dominate_oblivious =
  QCheck.Test.make
    ~name:"bypass/locked bounds never below the private baseline" ~count:10
    arb_fuzz_index (fun idx ->
      List.for_all
        (fun cores ->
          let sys = fuzz_system ~cores idx in
          let obl = Core.Multicore.analyze_oblivious sys in
          let byp = Core.Multicore.analyze_joint sys ~bypass:true () in
          let locked = Core.Multicore.analyze_locked sys in
          wcet0 obl <= wcet0 byp && wcet0 obl <= wcet0 locked)
        [ 2; 3 ])

let () =
  Alcotest.run "core"
    [
      ( "ipet",
        [
          Alcotest.test_case "straight line" `Quick test_ipet_straightline;
          Alcotest.test_case "diamond takes max" `Quick
            test_ipet_diamond_takes_max;
          Alcotest.test_case "loop bound" `Quick test_ipet_loop_bound;
          Alcotest.test_case "nested bounds multiply" `Quick
            test_ipet_nested_bounds_multiply;
          Alcotest.test_case "unbounded rejected" `Quick
            test_ipet_unbounded_loop_rejected;
          Alcotest.test_case "mutually exclusive" `Quick
            test_ipet_mutually_exclusive;
          Alcotest.test_case "catalog systems match the reference stack"
            `Quick test_ipet_catalog_matches_reference;
        ] );
      ( "platform",
        [
          Alcotest.test_case "bounds" `Quick test_platform_bounds;
          Alcotest.test_case "equivalent agrees with fingerprint" `Quick
            test_platform_equivalent;
        ] );
      ( "wcet",
        [
          Alcotest.test_case "sound and tight" `Quick test_wcet_sound_and_tight;
          Alcotest.test_case "sound with L2" `Quick test_wcet_with_l2_sound;
          Alcotest.test_case "calls" `Quick test_wcet_calls;
          Alcotest.test_case "rejects recursion" `Quick
            test_wcet_rejects_recursion;
          Alcotest.test_case "rejects unbounded / accepts annotation" `Quick
            test_wcet_rejects_unbounded;
          Alcotest.test_case "monotone in bus wait" `Quick
            test_wcet_monotone_in_bus_wait;
          Alcotest.test_case "footprint" `Quick test_wcet_footprint;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "oblivious is lowest (unsafe)" `Quick
            test_multicore_oblivious_lowest;
          Alcotest.test_case "joint refinements help" `Quick
            test_multicore_joint_refinements_help;
          Alcotest.test_case "partition schemes" `Quick
            test_multicore_partition_schemes;
          Alcotest.test_case "locked" `Quick test_multicore_locked;
          Alcotest.test_case "joint bound validates" `Quick
            test_multicore_validation_joint;
          Alcotest.test_case "partitioned bound validates" `Quick
            test_multicore_validation_partitioned;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "BCET sandwich" `Quick test_bcet_sandwich;
          Alcotest.test_case "BCET honors min loop bounds" `Quick
            test_bcet_uses_min_loop_bounds;
          Alcotest.test_case "BCET takes cheap arm" `Quick
            test_bcet_diamond_takes_min;
          Alcotest.test_case "analytic quotient" `Quick test_analytic_quotient;
          Alcotest.test_case "method cache sound" `Quick
            test_method_cache_sound;
          Alcotest.test_case "method cache exact (no calls)" `Quick
            test_method_cache_misses_only_at_calls;
          Alcotest.test_case "method cache thrashing" `Quick
            test_method_cache_thrashing_charged;
          Alcotest.test_case "interleaving product growth" `Quick
            test_interleaving_product_growth;
          Alcotest.test_case "interleaving cap" `Quick test_interleaving_cap;
          Alcotest.test_case "dynamic locking" `Quick test_dynamic_locking_runs;
          Alcotest.test_case "bypass line discovery" `Quick
            test_bypass_lines_of_straightline;
          Alcotest.test_case "bypass reads the plain value analysis" `Quick
            test_bypass_lines_read_plain_analysis;
        ] );
      ( "mode",
        [
          Alcotest.test_case "names and parser" `Quick test_mode_names;
          Alcotest.test_case "machine runs per mode" `Quick test_mode_runs;
          Alcotest.test_case "solo does not run on a system" `Quick
            test_mode_solo_not_on_system;
        ] );
      ( "context",
        [
          Alcotest.test_case "back end identical to fresh" `Quick
            test_context_backend_identical;
          Alcotest.test_case "shared across core slots" `Quick
            test_context_shared_across_slots;
          Alcotest.test_case "shared slots with partial overlap" `Quick
            test_context_shared_overlaps;
          Alcotest.test_case "one back end per distinct slot" `Quick
            test_context_one_backend_per_slot;
          Alcotest.test_case "one front end per call without contexts" `Quick
            test_context_built_per_call;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "np response times" `Quick test_np_response_times;
          Alcotest.test_case "unschedulable" `Quick test_np_unschedulable;
          Alcotest.test_case "lifetime refinement" `Quick
            test_lifetime_refinement;
          Alcotest.test_case "lifetime refinement front ends" `Quick
            test_lifetime_refinement_front_ends;
        ] );
      ( "predictability",
        [
          Alcotest.test_case "quotient" `Quick test_quotient;
          Alcotest.test_case "state-induced" `Quick
            test_state_induced_quotient;
          Alcotest.test_case "input-induced" `Quick
            test_input_induced_quotient;
        ] );
      ( "report",
        [
          Alcotest.test_case "text render" `Quick test_report_render;
          Alcotest.test_case "graphviz" `Quick test_dot_output;
        ] );
      ( "monotonicity",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_joint_wcet_monotone_in_cores;
            prop_sharing_controls_dominate_oblivious;
          ] );
    ]
