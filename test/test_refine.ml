(* Tests for CEGAR infeasible-path refinement: the refined bound never
   exceeds the unrefined one under any approach mode, stays above every
   simulated run (the oracle sandwich), cut injection is idempotent on
   the prepared tableau, a from-scratch solve of each iteration's cut
   system reaches the warm path's bound, and a fixed iteration budget
   makes the loop deterministic at any worker count. *)

module G = Fuzz.Generator
module O = Fuzz.Oracle
module MC = Core.Multicore
module B = Workloads.Bench_programs

let cfg = Refine.default
let l2_cfg = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16
let solo_platform () = Core.Platform.single_core ~l2:l2_cfg ()

let arb_index =
  QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 500)

let le_unrefined what (w : Core.Wcet.t) =
  match w.Core.Wcet.unrefined_wcet with
  | Some u ->
      if w.Core.Wcet.wcet > u then
        QCheck.Test.fail_reportf "%s: refined %d > unrefined %d" what
          w.Core.Wcet.wcet u;
      true
  | None ->
      QCheck.Test.fail_reportf "%s: refined run lost its unrefined bound"
        what

(* 1. Refined <= unrefined, every mode.  Each refined analysis carries
   its own cut-free pipeline, so the comparison is internal to one
   run — no chance of comparing across diverged front ends. *)
let prop_refined_le_unrefined =
  QCheck.Test.make ~name:"refined <= unrefined across all 8 modes" ~count:6
    arb_index (fun index ->
      let ta = G.generate ~seed:13 ~index ()
      and tb = G.generate ~seed:13 ~index:(index + 1) () in
      let sys =
        MC.default_system ~cores:2
          ~tasks:
            [|
              Some (ta.G.program, ta.G.annot); Some (tb.G.program, tb.G.annot);
            |]
      in
      let each name results =
        Array.for_all
          (function
            | Some w -> le_unrefined name w
            | None -> true)
          results
      in
      le_unrefined "solo"
        (Core.Wcet.analyze ~annot:ta.G.annot ~refine:cfg (solo_platform ())
           ta.G.program)
      && each "oblivious" (MC.analyze_oblivious ~refine:cfg sys)
      && each "joint" (MC.analyze_joint ~refine:cfg sys ())
      && each "bypass" (MC.analyze_joint ~refine:cfg sys ~bypass:true ())
      && each "columnized"
           (MC.analyze_partitioned ~refine:cfg sys
              ~scheme:Cache.Partition.Columnization)
      && each "bankized"
           (MC.analyze_partitioned ~refine:cfg sys
              ~scheme:Cache.Partition.Bankization)
      && each "locked" (MC.analyze_locked ~refine:cfg sys)
      && each "dynamic" (MC.analyze_locked_dynamic ~refine:cfg sys))

(* 2. Refined >= observed: the oracle's sandwich checks the refined
   bound against the simulator when [?refine] is on, so an empty
   violation list IS the soundness statement. *)
let prop_refined_ge_observed =
  QCheck.Test.make ~name:"refined bound stays above every simulated run"
    ~count:10 arb_index (fun index ->
      let t = G.generate ~seed:17 ~index () in
      let r = O.check_solo ~refine:cfg t in
      r.O.violations = [] && r.O.errors = [] && r.O.checks <> [])

(* 3. Cut injection is idempotent: re-running the CEGAR session on the
   same prepared tableau is bit-identical (no state leaks into the
   shared snapshot), and duplicating the candidate list changes nothing
   (a cut already injected, or already satisfied, is never re-injected).
   The cost function is synthetic — the property is about the loop, not
   the cost model. *)
let prop_cut_injection_idempotent =
  QCheck.Test.make ~name:"cut injection idempotent on the prepared tableau"
    ~count:12 arb_index (fun index ->
      let t = G.generate ~seed:29 ~index () in
      let ctx =
        Core.Context.of_platform ~annot:t.G.annot (solo_platform ())
          t.G.program
      in
      List.for_all
        (fun ((name, p) : string * Core.Context.proc) ->
          let prepared = Lazy.force p.Core.Context.ipet_wcet in
          let candidates = Lazy.force p.Core.Context.refine_candidates in
          let block_cost id = 7 + (3 * id mod 11) in
          let solve candidates =
            Core.Ipet.refine_prepared prepared ~block_cost ~candidates
              ~config:cfg
          in
          let r1, s1 = solve candidates in
          let r2, s2 = solve candidates in
          let r3, _ = solve (candidates @ candidates) in
          if (r1, s1) <> (r2, s2) then
            QCheck.Test.fail_reportf "%s: re-run diverged (%d vs %d)" name
              r1.Core.Ipet.wcet r2.Core.Ipet.wcet;
          if r3.Core.Ipet.wcet <> r1.Core.Ipet.wcet then
            QCheck.Test.fail_reportf
              "%s: duplicated candidates changed the bound (%d vs %d)" name
              r3.Core.Ipet.wcet r1.Core.Ipet.wcet;
          true)
        ctx.Core.Context.procs)

(* 4. Fixed budget => deterministic at any worker count: the refined
   campaign report (every bound, cut count and CSV row) is a function of
   the seed alone. *)
let prop_workers_deterministic =
  QCheck.Test.make
    ~name:"refined campaign deterministic at any worker count" ~count:3
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 1000))
    (fun seed ->
      let run workers =
        O.csv_of_report
          (O.run_campaign ~refine:cfg ~seed ~count:6 ~workers ()).O.report
      in
      run 1 = run 4)

(* The three catalog benchmarks built to exercise each cut generator
   must strictly tighten solo — the deterministic anchor behind the
   bench gate's >= 3. *)
let test_catalog_tightens () =
  List.iter
    (fun name ->
      match B.by_name name with
      | None -> Alcotest.failf "%s missing from the catalog" name
      | Some b ->
          let w =
            Core.Wcet.analyze ~annot:b.B.annot ~refine:cfg (solo_platform ())
              b.B.program
          in
          let u =
            match w.Core.Wcet.unrefined_wcet with
            | Some u -> u
            | None -> Alcotest.failf "%s: no unrefined bound" name
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s tightened (%d < %d)" name w.Core.Wcet.wcet u)
            true (w.Core.Wcet.wcet < u))
    [ "mode_select"; "exclusive_modes"; "dead_arm" ]

(* Every refinement iteration of the catalog, re-solved from scratch:
   the procedure's model prepared afresh with the cut rows of iterations
   1..i, then branch and bound.  Its optimum is the iteration's bound, so
   the warm path (one dual-simplex run per cut on the root state) and a
   cold solve of the same cut system agree. *)
let test_catalog_cold_resolve () =
  let platform = Core.Mode.solo_platform () in
  let iterations = ref 0 in
  List.iter
    (fun (b : B.t) ->
      let ctx =
        Core.Context.of_platform ~annot:b.B.annot platform b.B.program
      in
      let w = Core.Wcet.analyze_with ~refine:cfg ~ctx platform in
      List.iter
        (fun (name, (p : Core.Context.proc)) ->
          let pr = List.assoc name w.Core.Wcet.procs in
          match pr.Core.Wcet.refine with
          | None -> ()
          | Some s ->
              let prepared = Lazy.force p.Core.Context.ipet_wcet in
              let m =
                Core.Ipet.model prepared ~block_cost:(fun id ->
                    pr.Core.Wcet.block_costs.(id))
              in
              ignore
                (List.fold_left
                   (fun rows (it : Core.Ipet.refine_iteration) ->
                     let extra =
                       rows
                       @ [ Core.Ipet.cut_row prepared it.Core.Ipet.ri_cut ]
                     in
                     incr iterations;
                     let what =
                       Printf.sprintf "%s/%s iteration %d" b.B.name name
                         (List.length extra)
                     in
                     (match
                        (Lp.Ilp.solve_result_prepared
                           (Lp.Simplex.prepare m ~extra)
                           m)
                          .Lp.Ilp.outcome
                      with
                     | Lp.Ilp.Optimal (o, _) ->
                         Alcotest.(check int) what it.Core.Ipet.ri_wcet
                           (Lp.Q.to_int_exn o)
                     | Lp.Ilp.Unbounded | Lp.Ilp.Infeasible ->
                         Alcotest.failf "%s: cold re-solve found no optimum"
                           what);
                     extra)
                   [] s.Core.Ipet.rf_iterations))
        ctx.Core.Context.procs)
    (B.suite ());
  (* The three refinement benchmarks each inject at least one cut. *)
  Alcotest.(check bool) "iterations re-solved" true (!iterations >= 3)

(* Off means off: ?refine:None leaves the result without refine stats or
   an unrefined bound — the bit-identical legacy path. *)
let test_off_by_default () =
  let b = Option.get (B.by_name "mode_select") in
  let w = Core.Wcet.analyze ~annot:b.B.annot (solo_platform ()) b.B.program in
  Alcotest.(check bool) "no unrefined bound" true
    (w.Core.Wcet.unrefined_wcet = None);
  List.iter
    (fun (_, (pr : Core.Wcet.proc_result)) ->
      Alcotest.(check bool) "no refine stats" true (pr.Core.Wcet.refine = None))
    w.Core.Wcet.procs

let () =
  Alcotest.run "refine"
    [
      ( "catalog",
        [
          Alcotest.test_case "refinement benchmarks tighten" `Quick
            test_catalog_tightens;
          Alcotest.test_case "off by default" `Quick test_off_by_default;
          Alcotest.test_case "cold re-solves reach every iteration's bound"
            `Quick test_catalog_cold_resolve;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_refined_le_unrefined;
            prop_refined_ge_observed;
            prop_cut_injection_idempotent;
            prop_workers_deterministic;
          ] );
    ]
