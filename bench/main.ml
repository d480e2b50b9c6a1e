(* Experiment harness: regenerates every table and figure of
   EXPERIMENTS.md, one per comparative claim of the surveyed paper.

   Usage:
     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- --only T5    -- one experiment
     dune exec bench/main.exe -- --list       -- list experiments
     dune exec bench/main.exe -- --no-bechamel -- skip timing benchmarks
     dune exec bench/main.exe -- -j 4          -- 4 worker domains
                                                  (or PARATIME_WORKERS) *)

module B = Workloads.Bench_programs

(* Experiments run as {!Engine.Pool} jobs, one per catalog entry, so a
   worker domain may execute any of them concurrently with the others.
   All experiment printing goes through a domain-local buffer; the driver
   prints each job's buffer in catalog order, so every experiment table
   is byte-identical to a sequential run.  (The trailing per-experiment
   cache-attribution lines and the wall-clock numbers can shift under
   parallelism — concurrent misses on a shared key are analyzed by
   whichever job gets there first — but the bounds never do.) *)
let out_key = Domain.DLS.new_key (fun () -> Buffer.create 4096)
let out () = Domain.DLS.get out_key
let printf fmt = Printf.ksprintf (fun s -> Buffer.add_string (out ()) s) fmt

let print_endline s =
  Buffer.add_string (out ()) s;
  Buffer.add_char (out ()) '\n'

(* Soundness tallies are bumped from worker domains. *)
let soundness_checks = Atomic.make 0
let soundness_failures = Atomic.make 0

let check_sound ~bound ~observed =
  Atomic.incr soundness_checks;
  if observed > bound then Atomic.incr soundness_failures

(* Shared memoizing result cache: experiments repeat many (program,
   annotations, platform) points — T2's four identical tasks, F1's sweep
   rows, T12's conventional platform equal to T1's — and the cache serves
   the repeats.  T10 and the bechamel rows time the *cost* of analysis,
   so they keep calling the raw entry points (and the run installs no
   trace sink, which would time them traced). *)
let memo = Core.Memo.create ~capacity:512 ()

let rule width = print_endline (String.make width '-')

let header id title =
  printf "\n==== %s: %s ====\n" id title

(* ------------------------------------------------------------------ *)
(* Shared setup helpers                                                *)
(* ------------------------------------------------------------------ *)

let l2_default = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16

let system_of ?(arbiter = fun cores -> Interconnect.Arbiter.Round_robin { cores })
    (tasks : B.t array) =
  let cores = Array.length tasks in
  let sys =
    Core.Multicore.default_system ~cores
      ~tasks:
        (Array.map
           (fun (b : B.t) -> Some (b.B.program, b.B.annot))
           tasks)
  in
  { sys with Core.Multicore.arbiter = arbiter cores }

(* The group run of a contended mode, one result per task's core. *)
let simulate mode sys (tasks : B.t array) =
  let setups =
    Array.map (fun (b : B.t) -> Sim.Machine.task b.B.program) tasks
  in
  match Core.Mode.runs sys mode setups with
  | [ { Core.Mode.config; setups; _ } ] ->
      Sim.Machine.run config ~cores:setups ()
  | _ -> invalid_arg "simulate: not a group-run mode"

let wcet_or_zero = function Some (w : Core.Wcet.t) -> w.Core.Wcet.wcet | None -> 0

(* ------------------------------------------------------------------ *)
(* T1: single-core soundness and tightness across the suite           *)
(* ------------------------------------------------------------------ *)

let t1 () =
  header "T1" "single-core WCET bounds vs. observed execution (full suite)";
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let sim_cfg = Core.Platform.machine platform in
  printf "%-14s %8s %10s %10s %8s\n" "benchmark" "instrs" "observed"
    "WCET" "ratio";
  rule 56;
  List.iter
    (fun (b : B.t) ->
      let a = Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program in
      let r = (Sim.Machine.run sim_cfg ~cores:[| Sim.Machine.task b.B.program |] ()).(0) in
      check_sound ~bound:a.Core.Wcet.wcet ~observed:r.Sim.Machine.cycles;
      printf "%-14s %8d %10d %10d %8.2f%s\n" b.B.name
        r.Sim.Machine.instructions r.Sim.Machine.cycles a.Core.Wcet.wcet
        (float_of_int a.Core.Wcet.wcet /. float_of_int r.Sim.Machine.cycles)
        (if r.Sim.Machine.cycles > a.Core.Wcet.wcet then "  UNSOUND!" else ""))
    (B.suite ())

(* ------------------------------------------------------------------ *)
(* T2: ignoring resource sharing is unsafe                            *)
(* ------------------------------------------------------------------ *)

let t2 () =
  header "T2"
    "interference-oblivious bounds vs. contended reality (Section 2.2)";
  let tasks = Array.init 4 (fun _ -> B.l1_thrash ~n:48) in
  let sys = system_of tasks in
  let oblivious = Core.Multicore.analyze_oblivious ~memo sys in
  let joint = Core.Multicore.analyze_joint ~memo sys () in
  let rs = simulate Core.Mode.Joint sys tasks in
  printf "%-8s %10s %12s %12s\n" "core" "observed" "oblivious" "joint";
  rule 48;
  Array.iteri
    (fun i (r : Sim.Machine.core_result) ->
      let ob = wcet_or_zero oblivious.(i) in
      let jo = wcet_or_zero joint.(i) in
      check_sound ~bound:jo ~observed:r.Sim.Machine.cycles;
      printf "core %-3d %10d %12d %12d%s\n" i r.Sim.Machine.cycles ob jo
        (if r.Sim.Machine.cycles > ob then "   oblivious VIOLATED" else ""))
    rs;
  print_endline
    "(the oblivious column pretends the task owns the machine; the joint\n\
    \ column accounts for the shared L2 and the round-robin bus)"

(* ------------------------------------------------------------------ *)
(* T3: joint-analysis degradation and its refinements                 *)
(* ------------------------------------------------------------------ *)

let t3 () =
  header "T3"
    "shared-L2 joint analysis vs. number of co-runners (Section 4.1)";
  printf "%-12s %12s %12s %12s %12s\n" "co-runners" "victim WCET"
    "+bypass" "disjoint" "degraded%";
  rule 64;
  List.iter
    (fun m ->
      let tasks =
        Array.init (m + 1) (fun i ->
            if i = 0 then B.assoc_stress ~ways:4 ~reps:12
            else B.straightline ~n:24)
      in
      let sys = system_of tasks in
      let joint = Core.Multicore.analyze_joint ~memo sys () in
      let bypass = Core.Multicore.analyze_joint ~memo sys ~bypass:true () in
      let disjoint =
        Core.Multicore.analyze_joint ~memo sys ~overlaps:(fun _ _ -> false) ()
      in
      (* Validate the bypass bound on a bypass-capable machine. *)
      let rs = simulate Core.Mode.Bypass sys tasks in
      check_sound
        ~bound:(wcet_or_zero bypass.(0))
        ~observed:rs.(0).Sim.Machine.cycles;
      (* Degradation metric: fraction of the victim's L2 accesses whose
         classification the co-runner conflicts destroyed. *)
      let degraded =
        match (joint.(0), disjoint.(0)) with
        | Some w, Some w0 ->
            let infos w =
              List.concat_map
                (fun (_, m) ->
                  List.map
                    (fun (i : Cache.Multilevel.access_info) ->
                      (i.Cache.Multilevel.instr, i.Cache.Multilevel.l2_class))
                    (Cache.Multilevel.access_infos m))
                w.Core.Wcet.multilevels
            in
            ignore (infos w);
            ignore w0;
            100.
            *. (float_of_int (wcet_or_zero joint.(0) - wcet_or_zero disjoint.(0))
               /. float_of_int (max 1 (wcet_or_zero disjoint.(0))))
        | _ -> 0.0
      in
      printf "%-12d %12d %12d %12d %11.1f%%\n" m
        (wcet_or_zero joint.(0))
        (wcet_or_zero bypass.(0))
        (wcet_or_zero disjoint.(0))
        degraded)
    [ 0; 1; 3; 7 ];
  print_endline
    "(victim reuses 4 same-set L2 lines; co-runner conflicts age them out.\n\
    \ 'disjoint' = Li-style lifetime refinement proving no overlap)"

(* ------------------------------------------------------------------ *)
(* T4: partition granularity and locking policy                       *)
(* ------------------------------------------------------------------ *)

let t4 () =
  header "T4"
    "core-based vs task-based partitions; static vs dynamic locking (4.2)";
  (* Two cores, two tasks per core. *)
  let core_tasks =
    [| [| B.assoc_stress ~ways:2 ~reps:12; B.crc ~n:8 |];
       [| B.vector_sum ~n:24; B.bitcount |] |]
  in
  let base_platform slice core =
    {
      (Core.Platform.single_core ()) with
      Core.Platform.l1i = Cache.Config.make ~sets:4 ~assoc:1 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:1 ~line_size:16;
      l2 = Core.Platform.Private_l2 slice;
      arbiter = Interconnect.Arbiter.Round_robin { cores = 2 };
      core;
    }
  in
  let alloc =
    Cache.Partition.even_shares Cache.Partition.Columnization l2_default
      ~parts:2
  in
  printf "%-14s %6s | %12s %12s\n" "task" "core" "core-based"
    "task-based";
  rule 52;
  let totals = ref (0, 0) in
  Array.iteri
    (fun core tasks ->
      let core_slice =
        Cache.Partition.partition_config l2_default alloc ~index:core
      in
      let task_slice =
        Cache.Config.columnize core_slice
          ~ways:(max 1 (core_slice.Cache.Config.assoc / Array.length tasks))
      in
      Array.iter
        (fun (b : B.t) ->
          let wc slice =
            (Core.Memo.wcet memo ~annot:b.B.annot (base_platform slice core)
               b.B.program)
              .Core.Wcet.wcet
          in
          let cb = wc core_slice and tb = wc task_slice in
          let c, t = !totals in
          totals := (c + cb, t + tb);
          printf "%-14s %6d | %12d %12d\n" b.B.name core cb tb)
        tasks)
    core_tasks;
  let c, t = !totals in
  printf "%-14s %6s | %12d %12d\n" "TOTAL" "" c t;
  (* Locking: static global selection vs per-region dynamic. *)
  let flat = Array.concat (Array.to_list core_tasks) in
  let sys4 = system_of flat in
  let locked = Core.Multicore.analyze_locked ~memo sys4 in
  let dyn = Core.Multicore.analyze_locked_dynamic ~memo sys4 in
  printf "\n%-14s %12s %12s\n" "task" "locked-static" "locked-dyn";
  rule 42;
  Array.iteri
    (fun i (b : B.t) ->
      printf "%-14s %12d %12d\n" b.B.name
        (wcet_or_zero locked.(i))
        (wcet_or_zero dyn.(i)))
    flat;
  print_endline
    "(core-based partitions are larger than task-based ones, hence lower\n\
    \ WCETs — Suhendra & Mitra's finding; dynamic locking lets each hot\n\
    \ region own the locked capacity at a reload cost)"

(* ------------------------------------------------------------------ *)
(* T5: columnization vs bankization                                   *)
(* ------------------------------------------------------------------ *)

let t5 () =
  header "T5" "columnization vs bankization (Paolieri et al., Section 4.2)";
  let tasks = Array.init 4 (fun _ -> B.assoc_stress ~ways:4 ~reps:12) in
  let sys = system_of tasks in
  let col =
    Core.Multicore.analyze_partitioned ~memo sys
      ~scheme:Cache.Partition.Columnization
  in
  let bank =
    Core.Multicore.analyze_partitioned ~memo sys
      ~scheme:Cache.Partition.Bankization
  in
  let col_rs = simulate Core.Mode.Columnized sys tasks in
  let bank_rs = simulate Core.Mode.Bankized sys tasks in
  printf "%-8s %14s %14s %14s %14s\n" "core" "colmn WCET"
    "colmn observed" "bank WCET" "bank observed";
  rule 70;
  Array.iteri
    (fun i _ ->
      check_sound ~bound:(wcet_or_zero col.(i))
        ~observed:col_rs.(i).Sim.Machine.cycles;
      check_sound ~bound:(wcet_or_zero bank.(i))
        ~observed:bank_rs.(i).Sim.Machine.cycles;
      printf "core %-3d %14d %14d %14d %14d\n" i
        (wcet_or_zero col.(i))
        col_rs.(i).Sim.Machine.cycles
        (wcet_or_zero bank.(i))
        bank_rs.(i).Sim.Machine.cycles)
    tasks;
  print_endline
    "(the workload reuses 4 lines of one set: a 1-way column slice\n\
    \ thrashes where a full-associativity bank slice keeps them all)"

(* ------------------------------------------------------------------ *)
(* T6: TDMA slot-length sweep                                         *)
(* ------------------------------------------------------------------ *)

let t6 () =
  header "T6" "TDMA slots vs round-robin (Sections 5.2/5.3)";
  let lmax =
    Pipeline.Latencies.default.Pipeline.Latencies.l2_hit
    + Pipeline.Latencies.default.Pipeline.Latencies.mem
  in
  let rows =
    ("round-robin", fun cores -> Interconnect.Arbiter.Round_robin { cores })
    :: List.map
         (fun mult ->
           ( Printf.sprintf "tdma slot=%dL" mult,
             fun cores ->
               Interconnect.Arbiter.Tdma { cores; slot = mult * lmax } ))
         [ 1; 2; 4 ]
  in
  printf "%-16s %12s %12s %12s %12s\n" "arbiter" "wait bound"
    "max observed" "WCET core0" "observed c0";
  rule 70;
  List.iter
    (fun (label, arbiter) ->
      let tasks = Array.init 4 (fun _ -> B.l1_thrash ~n:32) in
      let sys = system_of ~arbiter tasks in
      let joint = Core.Multicore.analyze_joint ~memo sys () in
      let rs = simulate Core.Mode.Joint sys tasks in
      let bound =
        Interconnect.Arbiter.worst_wait (arbiter 4) ~core:0 ~own_latency:lmax
          ~max_latency:lmax
      in
      let max_wait =
        Array.fold_left
          (fun acc (r : Sim.Machine.core_result) ->
            max acc r.Sim.Machine.max_bus_wait)
          0 rs
      in
      check_sound ~bound:(wcet_or_zero joint.(0))
        ~observed:rs.(0).Sim.Machine.cycles;
      printf "%-16s %12d %12d %12d %12d\n" label bound max_wait
        (wcet_or_zero joint.(0))
        rs.(0).Sim.Machine.cycles)
    rows

(* ------------------------------------------------------------------ *)
(* T7: round-robin D = N*L - 1 scaling                                *)
(* ------------------------------------------------------------------ *)

let t7 () =
  header "T7" "round-robin delay bound vs core count (Section 5.3)";
  let lmax =
    Pipeline.Latencies.default.Pipeline.Latencies.l2_hit
    + Pipeline.Latencies.default.Pipeline.Latencies.mem
  in
  printf "%-6s %14s %12s %12s %12s %12s\n" "N" "survey N*L-1"
    "wait bound" "max observed" "WCET core0" "observed c0";
  rule 74;
  List.iter
    (fun n ->
      let tasks = Array.init n (fun _ -> B.l1_thrash ~n:32) in
      let sys = system_of tasks in
      let joint = Core.Multicore.analyze_joint ~memo sys () in
      let rs = simulate Core.Mode.Joint sys tasks in
      let bound =
        Interconnect.Arbiter.worst_wait
          (Interconnect.Arbiter.Round_robin { cores = n })
          ~core:0 ~own_latency:lmax ~max_latency:lmax
      in
      let max_wait =
        Array.fold_left
          (fun acc (r : Sim.Machine.core_result) ->
            max acc r.Sim.Machine.max_bus_wait)
          0 rs
      in
      check_sound ~bound:(wcet_or_zero joint.(0))
        ~observed:rs.(0).Sim.Machine.cycles;
      printf "%-6d %14d %12d %12d %12d %12d\n" n
        ((n * lmax) - 1)
        bound max_wait
        (wcet_or_zero joint.(0))
        rs.(0).Sim.Machine.cycles)
    [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* T8: weighted arbitration for heterogeneous demands                 *)
(* ------------------------------------------------------------------ *)

let t8 () =
  header "T8"
    "multiple-bandwidth arbitration for heterogeneous demands (Bourgade)";
  let tasks =
    [| B.memory_bound ~n:48; B.fibonacci ~n:48; B.fibonacci ~n:48;
       B.fibonacci ~n:48 |]
  in
  let arbiters =
    [
      ("round-robin", Interconnect.Arbiter.Round_robin { cores = 4 });
      ("weighted 5:1:1:1", Interconnect.Arbiter.Weighted { weights = [| 5; 1; 1; 1 |] });
    ]
  in
  printf "%-18s %14s %14s %14s\n" "arbiter" "hungry WCET"
    "light WCET" "hungry observed";
  rule 64;
  List.iter
    (fun (label, arbiter) ->
      let sys = system_of ~arbiter:(fun _ -> arbiter) tasks in
      let joint = Core.Multicore.analyze_joint ~memo sys () in
      let rs = simulate Core.Mode.Joint sys tasks in
      check_sound ~bound:(wcet_or_zero joint.(0))
        ~observed:rs.(0).Sim.Machine.cycles;
      check_sound ~bound:(wcet_or_zero joint.(1))
        ~observed:rs.(1).Sim.Machine.cycles;
      printf "%-18s %14d %14d %14d\n" label
        (wcet_or_zero joint.(0))
        (wcet_or_zero joint.(1))
        rs.(0).Sim.Machine.cycles)
    arbiters;
  print_endline
    "(the memory-hungry core pays the arbiter wait on every iteration;\n\
    \ giving it 5 of 8 slots shrinks its gap and thus its WCET, while the\n\
    \ compute-bound cores barely notice their wider gap)"

(* ------------------------------------------------------------------ *)
(* T9: SMT isolation (CarCore and PRET)                               *)
(* ------------------------------------------------------------------ *)

let t9 () =
  header "T9" "SMT task isolation: CarCore HRT and PRET threads (5.3)";
  let lat = Pipeline.Latencies.default in
  let hrt = (B.vector_sum ~n:24).B.program in
  let heavy = (B.memory_bound ~n:64).B.program in
  let cfg =
    {
      Sim.Machine.latencies = lat;
      l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l2 = Sim.Machine.No_l2;
      arbiter = Interconnect.Arbiter.Private;
      refresh = Interconnect.Arbiter.Burst;
      i_path = Sim.Machine.Conventional;
    }
  in
  let alone = Sim.Machine.run_single cfg hrt () in
  printf "%-24s %12s %12s %16s\n" "configuration" "HRT cycles"
    "identical" "NRT instrs";
  rule 68;
  printf "%-24s %12d %12s %16s\n" "HRT alone"
    alone.Sim.Machine.cycles "-" "-";
  List.iter
    (fun m ->
      let r =
        Sim.Smt.run_carcore cfg ~hrt ~nrts:(Array.make m heavy) ()
      in
      printf "%-24s %12d %12b %16d\n"
        (Printf.sprintf "CarCore HRT + %d NRT" m)
        r.Sim.Smt.hrt.Sim.Machine.cycles
        (r.Sim.Smt.hrt.Sim.Machine.cycles = alone.Sim.Machine.cycles)
        (Array.fold_left ( + ) 0 r.Sim.Smt.nrt_instructions))
    [ 1; 2; 3 ];
  (* PRET *)
  let pret k =
    let threads =
      Array.init 4 (fun i ->
          if i = 0 then Some hrt else if i < k then Some heavy else None)
    in
    (Sim.Smt.run_pret lat ~threads ()).Sim.Smt.thread_cycles.(0)
  in
  printf "\n%-24s %12s\n" "PRET (4 hw threads)" "T0 cycles";
  rule 38;
  List.iter
    (fun k ->
      printf "%-24s %12d\n"
        (Printf.sprintf "thread0 + %d co-threads" (k - 1))
        (pret k))
    [ 1; 2; 4 ];
  print_endline
    "(CarCore: the HRT timing is bit-identical to running alone; NRTs\n\
    \ progress only in its stall slack.  PRET: thread-interleaving makes\n\
    \ thread 0's time independent of what the other threads run)"

(* ------------------------------------------------------------------ *)
(* T10: joint interleaving does not scale                             *)
(* ------------------------------------------------------------------ *)

let time_ms f =
  let t0 = Sys.time () in
  let x = f () in
  (x, (Sys.time () -. t0) *. 1000.)

let t10 () =
  header "T10"
    "joint interleaving analysis vs isolation analysis (Crowley & Baer)";
  let program = (B.crc ~n:4).B.program in
  let g = Cfg.Graph.build program ~entry:"main" in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  printf "%-10s %16s %16s | %18s\n" "threads" "product states"
    "explore ms" "isolation ms";
  rule 68;
  List.iter
    (fun k ->
      let graphs = List.init k (fun _ -> g) in
      let stats, explore_ms =
        time_ms (fun () ->
            Core.Joint_interleaving.explore ~max_states:2_000_000 graphs)
      in
      let _, iso_ms =
        time_ms (fun () ->
            List.init k (fun _ -> Core.Wcet.analyze platform program))
      in
      printf "%-10d %16d %16.2f | %18.2f%s\n" k
        stats.Core.Joint_interleaving.states explore_ms iso_ms
        (if stats.Core.Joint_interleaving.capped then "  (capped)" else ""))
    [ 1; 2; 3; 4 ];
  print_endline
    "(product states multiply with each thread — the survey's \"not\n\
    \ scalable\"; the isolation analyses grow linearly in thread count)"

(* ------------------------------------------------------------------ *)
(* T11: hierarchical sharing (Section 6 outlook)                      *)
(* ------------------------------------------------------------------ *)

let t11 () =
  header "T11"
    "flat 16-core bus vs 4x4 clustered hierarchy (Section 6 outlook)";
  let l2_slice = Cache.Config.make ~sets:16 ~assoc:4 ~line_size:16 in
  let mk ~arbiter ~mem_arbiter =
    {
      (Core.Platform.single_core ()) with
      Core.Platform.l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l2 = Core.Platform.Private_l2 l2_slice;
      arbiter;
      core = 0;
      mem_arbiter;
    }
  in
  let flat =
    mk ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 16 })
      ~mem_arbiter:None
  in
  let clustered =
    mk
      ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 4 })
      ~mem_arbiter:(Some (Interconnect.Arbiter.Round_robin { cores = 4 }, 0))
  in
  printf "%-14s %16s %16s %10s
" "task" "flat 16-core"
    "clustered 4x4" "gain";
  rule 60;
  List.iter
    (fun (b : B.t) ->
      let wc p =
        (Core.Memo.wcet memo ~annot:b.B.annot p b.B.program)
          .Core.Wcet.wcet
      in
      let f = wc flat and c = wc clustered in
      printf "%-14s %16d %16d %9.2fx
" b.B.name f c
        (float_of_int f /. float_of_int c))
    [ B.assoc_stress ~ways:4 ~reps:12; B.memory_bound ~n:32; B.crc ~n:8 ];
  print_endline
    "(each core owns an L2 slice either way; in the hierarchy only 4\n\
    \ cores contend per cluster bus and only 4 cluster ports contend for\n\
    \ memory, so both bus legs carry smaller arbitration bounds — the\n\
    \ survey's closing argument for hierarchical task isolation)"

(* ------------------------------------------------------------------ *)
(* T12: method cache (Schoeberl / Patmos, same proceedings)           *)
(* ------------------------------------------------------------------ *)

let t12 () =
  header "T12"
    "conventional I-cache vs method cache (Schoeberl; Patmos paper)";
  let mc = { Cache.Method_cache.slots = 8; fill_per_word = 2 } in
  let conventional = Core.Platform.single_core ~l2:l2_default () in
  let methodp =
    { (Core.Platform.single_core ()) with Core.Platform.method_cache = Some mc }
  in
  printf "%-12s | %10s %10s %6s | %10s %10s %6s\n" "benchmark"
    "conv obs" "conv WCET" "ratio" "mc obs" "mc WCET" "ratio";
  rule 78;
  List.iter
    (fun (b : B.t) ->
      let conv_a =
        Core.Memo.wcet memo ~annot:b.B.annot conventional b.B.program
      in
      let conv_r =
        (Sim.Machine.run
           (Core.Platform.machine conventional)
           ~cores:[| Sim.Machine.task b.B.program |] ()).(0)
      in
      let mc_a =
        Core.Memo.wcet memo ~annot:b.B.annot methodp b.B.program
      in
      let mc_r =
        (Sim.Machine.run
           (Core.Platform.machine methodp)
           ~cores:[| Sim.Machine.task b.B.program |] ()).(0)
      in
      check_sound ~bound:conv_a.Core.Wcet.wcet
        ~observed:conv_r.Sim.Machine.cycles;
      check_sound ~bound:mc_a.Core.Wcet.wcet ~observed:mc_r.Sim.Machine.cycles;
      printf "%-12s | %10d %10d %6.2f | %10d %10d %6.2f\n" b.B.name
        conv_r.Sim.Machine.cycles conv_a.Core.Wcet.wcet
        (float_of_int conv_a.Core.Wcet.wcet
        /. float_of_int conv_r.Sim.Machine.cycles)
        mc_r.Sim.Machine.cycles mc_a.Core.Wcet.wcet
        (float_of_int mc_a.Core.Wcet.wcet /. float_of_int mc_r.Sim.Machine.cycles))
    [ B.calls; B.crc ~n:8; B.fibonacci ~n:32; B.matmul ~n:4 ];
  print_endline
    "(the method cache moves all instruction-memory traffic to call and\n\
    \ return points, so the fetch analysis is trivially exact — tighter\n\
    \ WCET ratios at the cost of whole-function loads)"

(* ------------------------------------------------------------------ *)
(* T13: task-lifetime refinement across schedules (Li et al.)         *)
(* ------------------------------------------------------------------ *)

let t13 () =
  header "T13"
    "task-lifetime refinement vs release offsets (Li et al., Section 4.1)";
  let tasks =
    [| B.assoc_stress ~ways:4 ~reps:12; B.vector_sum ~n:32;
       B.vector_sum ~n:32; B.vector_sum ~n:32 |]
  in
  let sys = system_of tasks in
  printf "%-22s %12s %12s %6s\n" "schedule" "victim WCET"
    "iterations" "overlap";
  rule 58;
  List.iter
    (fun (label, offsets) ->
      let r = Core.Response_time.lifetime_refinement ~memo sys ~offsets in
      let overlapping =
        let n = Array.length tasks in
        let c = ref 0 in
        for i = 0 to n - 1 do
          for j = 0 to n - 1 do
            if i <> j && r.Core.Response_time.overlaps.(i).(j) then incr c
          done
        done;
        !c
      in
      printf "%-22s %12s %12d %6d\n" label
        (match r.Core.Response_time.wcets.(0) with
        | Some w -> string_of_int w
        | None -> "-")
        r.Core.Response_time.iterations overlapping)
    [
      ("synchronous (0,0,0,0)", [| 0; 0; 0; 0 |]);
      ("staggered 100k", [| 0; 100_000; 200_000; 300_000 |]);
      ("fully serialized", [| 0; 1_000_000; 2_000_000; 3_000_000 |]);
    ];
  print_endline
    "(staggering releases shrinks the overlap relation the iterative\n\
    \ WCET <-> window fixpoint proves, which removes shared-L2 conflicts\n\
    \ -- Li et al.'s lifetime-aware interference analysis)"

(* ------------------------------------------------------------------ *)
(* T14: schedulability downstream of WCET quality                     *)
(* ------------------------------------------------------------------ *)

let t14 () =
  header "T14"
    "schedulability under each approach's WCETs (the paper's framing)";
  (* Two tasks per core on a 2-core system; non-preemptive fixed-priority
     RTA per core with the WCETs each approach produces. *)
  let core_tasks =
    [| [| (B.crc ~n:8, 15_000); (B.vector_sum ~n:24, 30_000) |];
       [| (B.bitcount, 7_500); (B.assoc_stress ~ways:2 ~reps:12, 22_500) |] |]
  in
  let flat =
    Array.to_list core_tasks
    |> List.concat_map (fun arr ->
           Array.to_list arr |> List.map (fun ((b : B.t), _) -> b))
  in
  let sys = system_of (Array.of_list flat) in
  let approaches =
    [
      ("oblivious (unsafe)", fun s -> Core.Multicore.analyze_oblivious ~memo s);
      ("joint", fun s -> Core.Multicore.analyze_joint ~memo s ());
      ( "partitioned",
        fun s ->
          Core.Multicore.analyze_partitioned ~memo
            ~scheme:Cache.Partition.Bankization s );
      ("locked", fun s -> Core.Multicore.analyze_locked ~memo s);
    ]
  in
  printf "%-20s %14s %28s\n" "approach" "schedulable?"
    "worst response / period";
  rule 66;
  List.iter
    (fun (label, analyze) ->
      let wcets = Core.Multicore.wcets (analyze sys) in
      (* Assign WCETs back to the per-core task lists (flat order). *)
      let k = ref 0 in
      let all_ok = ref true in
      let worst = ref 0.0 in
      Array.iter
        (fun tasks ->
          let np =
            Array.to_list tasks
            |> List.map (fun ((b : B.t), period) ->
                   let w =
                     match wcets.(!k) with Some w -> w | None -> max_int
                   in
                   incr k;
                   { Core.Response_time.name = b.B.name; wcet = w; period })
          in
          List.iter2
            (fun (t : Core.Response_time.np_task) (_, r) ->
              match r with
              | Some rt ->
                  let ratio =
                    float_of_int rt /. float_of_int t.Core.Response_time.period
                  in
                  if ratio > !worst then worst := ratio
              | None -> all_ok := false)
            np
            (Core.Response_time.non_preemptive_response_times np))
        core_tasks;
      printf "%-20s %14b %27.0f%%\n" label !all_ok (100. *. !worst))
    approaches;
  print_endline
    "(the paper's opening question: scheduling needs per-task WCETs; the\n\
    \ tighter the multicore analysis, the more slack the RTA certifies —\n\
    \ and the unsafe oblivious numbers would certify a schedule that the\n\
    \ hardware can actually violate)"

(* ------------------------------------------------------------------ *)
(* F1: the three approach families across core counts                 *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1" "WCET vs cores for the approach families (Sections 3/6)";
  printf "%-6s %12s %12s %12s %12s\n" "cores" "oblivious" "joint"
    "partitioned" "locked";
  rule 60;
  List.iter
    (fun n ->
      let tasks =
        Array.init n (fun i ->
            if i = 0 then B.assoc_stress ~ways:4 ~reps:12
            else B.memory_bound ~n:16)
      in
      let sys = system_of tasks in
      let get f = wcet_or_zero (f sys).(0) in
      printf "%-6d %12d %12d %12d %12d\n" n
        (get (Core.Multicore.analyze_oblivious ~memo))
        (get (fun s -> Core.Multicore.analyze_joint ~memo s ()))
        (get
           (Core.Multicore.analyze_partitioned ~memo
              ~scheme:Cache.Partition.Bankization))
        (get (Core.Multicore.analyze_locked ~memo)))
    [ 1; 2; 4 ];
  print_endline
    "(oblivious is unsafe and flat; joint degrades with co-runner\n\
    \ footprints; partitioning and locking isolate at a capacity cost)"

(* ------------------------------------------------------------------ *)
(* F2: partition share sweep                                          *)
(* ------------------------------------------------------------------ *)

let f2 () =
  header "F2" "isolation vs capacity: partition share sweep (Section 4.2)";
  let b = B.assoc_stress ~ways:3 ~reps:12 in
  printf "%-10s %12s %12s %10s\n" "ways" "WCET" "observed" "L2 AH%";
  rule 48;
  List.iter
    (fun ways ->
      let slice = Cache.Config.columnize l2_default ~ways in
      let platform =
        {
          (Core.Platform.single_core ()) with
          Core.Platform.l1i = Cache.Config.make ~sets:4 ~assoc:1 ~line_size:16;
          l1d = Cache.Config.make ~sets:4 ~assoc:1 ~line_size:16;
          l2 = Core.Platform.Private_l2 slice;
        }
      in
      let a = Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program in
      let infos =
        List.concat_map
          (fun (_, m) -> Cache.Multilevel.access_infos m)
          a.Core.Wcet.multilevels
      in
      let reaching =
        List.filter
          (fun (i : Cache.Multilevel.access_info) ->
            i.Cache.Multilevel.cac <> Cache.Multilevel.Never)
          infos
      in
      let ah =
        List.length
          (List.filter
             (fun (i : Cache.Multilevel.access_info) ->
               i.Cache.Multilevel.l2_class = Cache.Analysis.Always_hit
               || i.Cache.Multilevel.l2_class = Cache.Analysis.Persistent)
             reaching)
      in
      let r =
        Sim.Machine.run_single (Core.Platform.machine platform) b.B.program ()
      in
      check_sound ~bound:a.Core.Wcet.wcet ~observed:r.Sim.Machine.cycles;
      printf "%-10d %12d %12d %9.0f%%\n" ways a.Core.Wcet.wcet
        r.Sim.Machine.cycles
        (100.
        *. float_of_int ah
        /. float_of_int (max 1 (List.length reaching))))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* F3: predictability quotients across platforms                      *)
(* ------------------------------------------------------------------ *)

let f3 () =
  header "F3" "state-induced predictability quotients (Grund et al.)";
  let lat = Pipeline.Latencies.default in
  let addresses = List.init 32 (fun i -> Isa.Layout.byte_addr Isa.Instr.Data i) in
  let warmups = Core.Predictability.random_warmups ~seed:11 ~count:12 ~addresses in
  let analytic_platform =
    {
      (Core.Platform.single_core ()) with
      Core.Platform.l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
    }
  in
  let cached_cfg = Core.Platform.machine analytic_platform in
  printf "%-14s %14s %14s %16s\n" "benchmark" "cached core"
    "PRET thread" "analytic B/W";
  rule 62;
  List.iter
    (fun (b : B.t) ->
      let q_cached =
        Core.Predictability.state_induced cached_cfg b.B.program ~warmups
      in
      let q_pret =
        Core.Predictability.quotient
          (List.map
             (fun _ ->
               (Sim.Smt.run_pret lat ~threads:[| Some b.B.program |] ())
                 .Sim.Smt.thread_cycles.(0))
             warmups)
      in
      let analytic =
        let w =
          (Core.Memo.wcet memo ~annot:b.B.annot analytic_platform b.B.program)
            .Core.Wcet.wcet
        in
        let bc =
          (Core.Memo.bcet memo ~annot:b.B.annot analytic_platform b.B.program)
            .Core.Bcet.bcet
        in
        Core.Bcet.analytic_quotient ~bcet:bc ~wcet:w
      in
      printf "%-14s %14.3f %14.3f %16.3f\n" b.B.name q_cached q_pret
        analytic)
    [ B.vector_sum ~n:16; B.crc ~n:8; B.bubble_sort ~n:8; B.memory_bound ~n:16 ];
  print_endline
    "(1.0 = perfectly predictable; the PRET core has no cache state, so\n\
    \ its quotient is 1 by construction.  The analytic column is the\n\
    \ guaranteed BCET/WCET quotient — a lower bound on any measured one)"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: analysis cost behind the tables         *)
(* ------------------------------------------------------------------ *)

let measure_ns name fn =
  let open Bechamel in
  let test = Test.make ~name (Staged.stage fn) in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.3) ~stabilize:false ()
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun _ v acc ->
      match Bechamel.Analyze.OLS.estimates v with
      | Some (x :: _) -> x
      | Some [] | None -> acc)
    results nan

let bechamel_suite () =
  header "BENCH" "analysis-cost micro-benchmarks (Bechamel, ns per run)";
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let crc = B.crc ~n:8 in
  let fib = B.fibonacci ~n:16 in
  let g = Cfg.Graph.build crc.B.program ~entry:"main" in
  let rows =
    [
      ( "T1 single-task analysis (crc)",
        fun () -> ignore (Core.Wcet.analyze ~annot:crc.B.annot platform crc.B.program) );
      ( "T1 single-task analysis (fibonacci)",
        fun () -> ignore (Core.Wcet.analyze platform fib.B.program) );
      ( "T3 joint 2-task analysis",
        let sys = system_of [| crc; fib |] in
        fun () -> ignore (Core.Multicore.analyze_joint sys ()) );
      ( "T10 interleaving explore x2",
        fun () ->
          ignore (Core.Joint_interleaving.explore ~max_states:100_000 [ g; g ])
      );
      ( "IPET solve (crc main)",
        let dom = Cfg.Dominators.compute g in
        let loops = Cfg.Loops.analyze g dom in
        let va = Dataflow.Value_analysis.analyze g in
        let bounds = Dataflow.Loop_bounds.infer g dom loops va Dataflow.Annot.empty in
        fun () ->
          ignore (Core.Ipet.solve g ~loop_bounds:bounds ~block_cost:(fun _ -> 1) ())
      );
      ( "cycle-level simulation (crc)",
        let cfg = Core.Platform.machine platform in
        fun () -> ignore (Sim.Machine.run_single cfg crc.B.program ()) );
    ]
  in
  printf "%-38s %16s\n" "benchmark" "ns/run";
  rule 56;
  List.iter
    (fun (name, fn) ->
      let ns = measure_ns name fn in
      printf "%-38s %16.0f\n" name ns)
    rows

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("T1", "single-core soundness/tightness", t1);
    ("T2", "oblivious bounds are unsafe", t2);
    ("T3", "joint-analysis degradation + refinements", t3);
    ("T4", "partition granularity; locking policy", t4);
    ("T5", "columnization vs bankization", t5);
    ("T6", "TDMA slot sweep vs round-robin", t6);
    ("T7", "round-robin scaling in cores", t7);
    ("T8", "weighted arbitration", t8);
    ("T9", "SMT isolation (CarCore/PRET)", t9);
    ("T10", "interleaving explosion", t10);
    ("T11", "hierarchical vs flat sharing", t11);
    ("T12", "method cache vs conventional I-cache", t12);
    ("T13", "lifetime refinement vs schedules", t13);
    ("T14", "schedulability composition", t14);
    ("F1", "approach families vs cores", f1);
    ("F2", "partition share sweep", f2);
    ("F3", "predictability quotients", f3);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let only =
    let rec find = function
      | "--only" :: id :: _ -> Some id
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let workers =
    let rec find = function
      | ("-j" | "--jobs") :: n :: _ -> Some n
      | _ :: rest -> find rest
      | [] -> None
    in
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ ->
          Printf.eprintf "bad worker count %S\n" s;
          exit 1
    in
    match find args with
    | Some s -> parse s
    | None -> (
        match Sys.getenv_opt "PARATIME_WORKERS" with
        | Some s -> parse s
        | None -> 1)
  in
  if List.mem "--list" args then
    List.iter
      (fun (id, title, _) -> Stdlib.Printf.printf "%-5s %s\n" id title)
      experiments
  else begin
    let selected =
      match only with
      | Some id ->
          List.filter (fun (i, _, _) -> String.lowercase_ascii i = String.lowercase_ascii id) experiments
      | None -> experiments
    in
    if selected = [] then begin
      Printf.eprintf "unknown experiment; try --list\n";
      exit 1
    end;
    let t0 = Obs.now_ns () in
    (* One pool job per experiment; each job collects its output in the
       worker's domain-local buffer and returns it, together with the
       result-cache traffic it generated. *)
    let jobs =
      List.map
        (fun (id, _, run) ->
          Engine.Pool.job ~label:id (fun _ctx ->
              Buffer.clear (out ());
              let h0, l0 = Core.Memo.local_stats () in
              run ();
              let h1, l1 = Core.Memo.local_stats () in
              if l1 > l0 then
                printf "[%s result cache: %d hits / %d lookups]\n" id (h1 - h0)
                  (l1 - l0);
              Buffer.contents (out ())))
        selected
    in
    let outcomes = Engine.Pool.run ~workers jobs in
    let job_failures = ref 0 in
    List.iter2
      (fun (id, _, _) outcome ->
        match outcome with
        | Engine.Pool.Done text -> Stdlib.print_string text
        | Engine.Pool.Failed { error; _ } ->
            incr job_failures;
            Stdlib.Printf.printf "\n==== %s FAILED: %s ====\n" id error
        | Engine.Pool.Timed_out { after_ns; _ } ->
            incr job_failures;
            Stdlib.Printf.printf "\n==== %s TIMED OUT after %.1f ms ====\n" id
              (Int64.to_float after_ns /. 1e6))
      selected outcomes;
    if only = None && not (List.mem "--no-bechamel" args) then begin
      Buffer.clear (out ());
      bechamel_suite ();
      Stdlib.print_string (Buffer.contents (out ()))
    end;
    let wall_ns = Int64.sub (Obs.now_ns ()) t0 in
    Stdlib.Printf.printf "\n==== engine: %d workers, wall %.1f ms ====\n"
      workers
      (Int64.to_float wall_ns /. 1e6);
    Format.printf "result cache: %a@." Engine.Lru.pp_stats
      (Core.Memo.stats memo);
    Stdlib.Printf.printf
      "\n==== soundness summary: %d checks, %d violations ====\n"
      (Atomic.get soundness_checks)
      (Atomic.get soundness_failures);
    if Atomic.get soundness_failures > 0 || !job_failures > 0 then exit 1
  end
