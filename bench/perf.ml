(* Performance harness: the sparse warm-started LP stack and worklist
   fixpoint engine against their reference counterparts on the benchmark
   catalog, the block-predecoded simulator against the per-instruction
   reference interpreter on a fuzz corpus, and the shared-context 8-mode
   sweep against the fresh-per-mode discipline, emitting one
   machine-readable report.

   Usage:
     dune exec bench/perf.exe                      -- full run
     dune exec bench/perf.exe -- --quick           -- single timing rep (CI)
     dune exec bench/perf.exe -- --out FILE        -- report path
                                                      (default BENCH_pr9.json)
     dune exec bench/perf.exe -- --baseline FILE   -- WCET/BCET drift guard
                                                      (default bench/wcet_baseline.txt)
     dune exec bench/perf.exe -- --write-baseline  -- regenerate the baseline

   The report carries, per program and in aggregate: simplex pivots and
   branch-and-bound nodes for both solver stacks, fixpoint block
   examinations (pops) for both scheduling strategies, transfer counts,
   wall times, the simulator section (per approach mode, total simulated
   cycles and wall time under both interpreters), and the context-sweep
   section: the full 8-mode analysis sweep per catalog program, fresh
   per mode versus one shared mode-invariant context pack.  The analyses
   always run the production LP stack; the reference column re-solves
   every procedure's WCET and BCET system ([Core.Ipet.model], with the
   block costs the analysis installed) with the dense cold-start stack
   of [Lp_reference] and charges only that stack's own counters, and the
   refinement section re-solves each iteration's cut system from scratch
   ([Lp.Simplex.prepare] with the cut rows of [Core.Ipet.cut_row]).  Both
   solver stacks must agree on every optimum, both interpreters must be
   bit-identical on every run (cycles, attribution vectors, per-block
   tables, architectural state), the block interpreter must clear a 3x
   aggregate throughput gate, and the shared-context sweep must be
   bit-identical to fresh (bounds, IPET worst paths, attribution) while
   clearing a 2.5x aggregate wall-clock gate — a disagreement or a
   regression is a hard failure, as is any drift from the committed
   baseline. *)

module B = Workloads.Bench_programs
module G = Fuzz.Generator
module MC = Core.Multicore

let quick = ref false
let out_path = ref "BENCH_pr9.json"
let baseline_path = ref "bench/wcet_baseline.txt"
let write_baseline = ref false

let usage = "perf.exe [--quick] [--out FILE] [--baseline FILE] [--write-baseline]"

let spec =
  [
    ("--quick", Arg.Set quick, " single timing repetition (CI smoke)");
    ("--out", Arg.Set_string out_path, "FILE report path (default BENCH_pr9.json)");
    ( "--baseline",
      Arg.Set_string baseline_path,
      "FILE committed WCET/BCET baseline (default bench/wcet_baseline.txt)" );
    ( "--write-baseline",
      Arg.Set write_baseline,
      " regenerate the baseline file instead of checking against it" );
  ]

let l2_default = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16
let platform = Core.Platform.single_core ~l2:l2_default ()

(* The modes that run on a multicore system: every mode but solo. *)
let system_modes = List.filter (fun m -> m <> Core.Mode.Solo) Core.Mode.all

type counters = {
  pivots : int; (* simplex pivots, whichever stack ran *)
  ilp_nodes : int;
  pops : int; (* fixpoint block examinations *)
  transfers : int; (* fixpoint transfer applications *)
  sweeps : int; (* fixpoint rounds/sweeps *)
  wall_ms : float;
  wcet : int;
  bcet : int;
}

(* Minimum wall time of [reps] runs of [f]. *)
let best_of ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Sys.time () in
    f ();
    best := Float.min !best (Sys.time () -. t0)
  done;
  !best

(* One analysis run (WCET + BCET) under a fixpoint strategy, with every
   per-domain counter read before and after.  Runs on the calling
   domain so the DLS counters are coherent. *)
let measure ~strategy ~reps (b : B.t) =
  let read () =
    ( Lp.Simplex.pivots (),
      Lp.Ilp.nodes_explored (),
      Dataflow.Worklist.pops (),
      Dataflow.Worklist.transfers (),
      Cache.Analysis.fixpoint_iterations () )
  in
  Dataflow.Worklist.with_strategy strategy @@ fun () ->
  let p0, n0, pop0, tr0, sw0 = read () in
  let t0 = Sys.time () in
  let w = Core.Wcet.analyze ~annot:b.B.annot platform b.B.program in
  let bc = Core.Bcet.analyze ~annot:b.B.annot platform b.B.program in
  let t1 = Sys.time () in
  let p1, n1, pop1, tr1, sw1 = read () in
  (* Extra repetitions refine the wall time only; counters come from the
     first (they are identical across reps). *)
  let wall =
    Float.min (t1 -. t0)
      (best_of ~reps:(reps - 1) (fun () ->
           ignore (Core.Wcet.analyze ~annot:b.B.annot platform b.B.program);
           ignore (Core.Bcet.analyze ~annot:b.B.annot platform b.B.program)))
  in
  {
    pivots = p1 - p0;
    ilp_nodes = n1 - n0;
    pops = pop1 - pop0;
    transfers = tr1 - tr0;
    sweeps = sw1 - sw0;
    wall_ms = wall *. 1000.;
    wcet = w.Core.Wcet.wcet;
    bcet = bc.Core.Bcet.bcet;
  }

(* The reference stack's LP work: every procedure's WCET and BCET system,
   with the block costs the analysis installed ([Core.Ipet.model]),
   solved again by the dense cold-start stack.  Only that stack's own
   counters are charged.  Returns its pivots, nodes and best wall time,
   and the procedures whose optimum differs from the production one. *)
let reference_solve ~reps (b : B.t) =
  let ctx = Core.Context.of_platform ~annot:b.B.annot platform b.B.program in
  let w = Core.Wcet.analyze_with ~ctx platform in
  let bc = Core.Bcet.analyze_with ~ctx platform in
  let systems =
    List.concat_map
      (fun (name, (p : Core.Context.proc)) ->
        let pw = List.assoc name w.Core.Wcet.procs in
        let pb = List.assoc name bc.Core.Bcet.procs in
        (* A BCET block costs its own optimistic vector plus its callee's
           BCET, as [Core.Bcet.analyze_with] sums it. *)
        let bcet_cost id =
          Pipeline.Cost.Vec.total pb.Core.Bcet.attrib.(id)
          +
          match Cfg.Graph.callee_of_block p.Core.Context.graph id with
          | Some callee ->
              (List.assoc callee bc.Core.Bcet.procs).Core.Bcet.bcet
          | None -> 0
        in
        [
          ( name ^ " wcet",
            Lazy.force p.Core.Context.ipet_wcet,
            (fun id -> pw.Core.Wcet.block_costs.(id)),
            pw.Core.Wcet.ipet.Core.Ipet.wcet );
          ( name ^ " bcet",
            Lazy.force p.Core.Context.ipet_bcet,
            bcet_cost,
            -pb.Core.Bcet.ipet.Core.Ipet.wcet );
        ])
      ctx.Core.Context.procs
  in
  let solve_all () =
    List.filter_map
      (fun (what, prepared, block_cost, expected) ->
        match
          Lp_reference.solve_ilp (Core.Ipet.model prepared ~block_cost)
        with
        | Lp_reference.Ilp_optimal (o, _)
          when Lp.Q.equal o (Lp.Q.of_int expected) ->
            None
        | _ -> Some what)
      systems
  in
  let p0 = Lp_reference.pivots () and n0 = Lp_reference.ilp_nodes () in
  let t0 = Sys.time () in
  let disagree = solve_all () in
  let t1 = Sys.time () in
  let pivots = Lp_reference.pivots () - p0 in
  let nodes = Lp_reference.ilp_nodes () - n0 in
  let wall =
    Float.min (t1 -. t0)
      (best_of ~reps:(reps - 1) (fun () -> ignore (solve_all ())))
  in
  (pivots, nodes, wall *. 1000., disagree)

let ratio num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

(* Observability overhead guard.  With no sink installed every
   instrumentation point costs one atomic load and a branch; the report
   asserts that at the catalog's instrumentation volume this stays under
   2% of the catalog's wall time.  Estimated as (per-call disabled cost)
   x (instrumentation calls in one traced catalog pass) / (untraced
   catalog wall time); the volume deliberately overcounts — every
   recorded event counts as a call even though a span is one call for
   two events — so the guard errs toward failing. *)
let obs_overhead_fraction () =
  assert (not (Obs.enabled ()));
  let iters = 2_000_000 in
  let body = Sys.opaque_identity (fun () -> 0) in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (body ()))
  done;
  let t_plain = Sys.time () -. t0 in
  let t0 = Sys.time () in
  for _ = 1 to iters do
    ignore (Sys.opaque_identity (Obs.span "noop" body))
  done;
  let t_span = Sys.time () -. t0 in
  let per_call = Float.max 0. (t_span -. t_plain) /. float_of_int iters in
  let catalog () =
    List.iter
      (fun (b : B.t) ->
        ignore (Core.Wcet.analyze ~annot:b.B.annot platform b.B.program);
        ignore (Core.Bcet.analyze ~annot:b.B.annot platform b.B.program))
      (B.suite ())
  in
  let t0 = Sys.time () in
  catalog ();
  let wall = Sys.time () -. t0 in
  let sink = Obs.Sink.create ~track_capacity:(1 lsl 20) () in
  Obs.with_sink sink catalog;
  let events =
    List.fold_left
      (fun acc tr ->
        acc + List.length (Obs.Sink.events tr) + Obs.Sink.dropped tr)
      0 (Obs.Sink.tracks sink)
  in
  let observes =
    List.fold_left
      (fun acc item ->
        match item with
        | Obs.Metrics.Hist_v (_, s) -> acc + s.Obs.Histogram.s_count
        | Obs.Metrics.Counter_v _ | Obs.Metrics.Gauge_v _ -> acc)
      0
      (Obs.Metrics.snapshot (Obs.Sink.metrics sink))
  in
  let calls = events + (2 * observes) in
  (calls, per_call, wall, per_call *. float_of_int calls /. wall)

(* Attribution overhead guard.  The per-category cost vectors ride along
   inside the analyses (their cost is pinned by the drift guard and the
   wall-time rows above); what is *optional* is (a) flattening them into
   the per-block view ([Attrib.of_wcet]/[of_bcet], run only when someone
   asks to explain a bound) and (b) the simulator's per-block counter
   tables ([attrib_blocks], off by default).  Both are measured against
   the catalog here; the flatten path must stay under 2% of the catalog's
   analysis wall time, since it is the piece a disabled-by-default
   [attribute] run adds. *)
let attrib_overhead_fraction () =
  let suite = B.suite () in
  let t0 = Sys.time () in
  let analyses =
    List.map
      (fun (b : B.t) ->
        ( Core.Wcet.analyze ~annot:b.B.annot platform b.B.program,
          Core.Bcet.analyze ~annot:b.B.annot platform b.B.program ))
      suite
  in
  let t_analysis = Sys.time () -. t0 in
  (* best of a few reps: the flatten is microseconds per program, so a
     single scheduler hiccup would dominate a one-shot measurement *)
  let t_flatten = ref infinity in
  for _ = 1 to 5 do
    let t0 = Sys.time () in
    List.iter
      (fun (w, bc) ->
        ignore (Sys.opaque_identity (Attrib.of_wcet w));
        ignore (Sys.opaque_identity (Attrib.of_bcet bc)))
      analyses;
    t_flatten := Float.min !t_flatten (Sys.time () -. t0)
  done;
  let t_flatten = !t_flatten in
  let sim_cfg =
    {
      Sim.Machine.latencies = Pipeline.Latencies.default;
      l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
      l2 = Sim.Machine.Private_l2 [| l2_default |];
      arbiter = Interconnect.Arbiter.Private;
      refresh = Interconnect.Arbiter.Burst;
      i_path = Sim.Machine.Conventional;
    }
  in
  let sim_catalog ~attrib_blocks =
    List.iter
      (fun (b : B.t) ->
        ignore
          (Sim.Machine.run sim_cfg
             ~cores:
               [| { (Sim.Machine.task b.B.program) with attrib_blocks } |]
             ()))
      suite
  in
  let t0 = Sys.time () in
  sim_catalog ~attrib_blocks:false;
  let t_sim_off = Sys.time () -. t0 in
  let t0 = Sys.time () in
  sim_catalog ~attrib_blocks:true;
  let t_sim_on = Sys.time () -. t0 in
  ( t_analysis *. 1000.,
    t_flatten *. 1000.,
    t_flatten /. Float.max 1e-9 t_analysis,
    t_sim_off *. 1000.,
    t_sim_on *. 1000. )

(* ---- simulator: block-predecoded vs reference interpreter ------------ *)

(* Corpus: generator programs with bench-heavy parameters (more pieces,
   longer and deeper loops) so steady-state simulation dominates the
   per-run machine construction that both interpreters share.  Each
   adjacent pair forms a 2-core task group; the seven simulable approach
   modes reuse exactly the machine shapes the fuzz oracle validates
   (dynamic locking is analysis-only and has no run to speed up). *)
let sim_params =
  {
    G.default_params with
    G.max_pieces = 8;
    max_ops = 8;
    max_iters = 48;
    max_depth = 3;
  }

type sim_row = {
  sim_mode : string;
  sim_cycles : int;  (* identical under both interpreters, or we failed *)
  sim_block_ms : float;
  sim_ref_ms : float;
}

let sim_bench ~reps ~programs =
  let gens =
    Array.init programs (fun i -> G.generate ~params:sim_params ~seed:7 ~index:i ())
  in
  let setup (g : G.t) =
    {
      (Sim.Machine.task g.G.program) with
      Sim.Machine.init_data = g.G.data_init;
    }
  in
  (* One (config, setups) unit per machine the mode runs; "solo" is
     each program's oblivious run on a one-core system. *)
  let units mode sys setups =
    List.map
      (fun (r : Core.Mode.run) -> (r.Core.Mode.config, r.Core.Mode.setups))
      (Core.Mode.runs sys mode setups)
  in
  let system gens =
    MC.default_system ~cores:(Array.length gens)
      ~tasks:(Array.map (fun (g : G.t) -> Some (g.G.program, g.G.annot)) gens)
  in
  let solo_units =
    List.concat_map
      (fun g -> units Core.Mode.Oblivious (system [| g |]) [| setup g |])
      (Array.to_list gens)
  in
  let pair_units mode =
    List.concat
      (List.init (programs / 2) (fun k ->
           let pair = Array.sub gens (2 * k) 2 in
           units mode (system pair) (Array.map setup pair)))
  in
  let modes =
    ("solo", solo_units)
    :: List.map (fun m -> (Core.Mode.name m, pair_units m)) system_modes
    |> List.filter (fun (_, units) -> units <> [])
  in
  (* Verification pass: both interpreters, per-block attribution on,
     every result field bit-identical (the corpus halts, so the
     truncation caveat never applies). *)
  let cycles_of (mode, units) =
    List.fold_left
      (fun acc (cfg, setups) ->
        let with_attrib =
          Array.map
            (fun s -> { s with Sim.Machine.attrib_blocks = true })
            setups
        in
        let rb = Sim.Machine.run ~interp:`Block cfg ~cores:with_attrib () in
        let rr = Sim.Machine.run ~interp:`Reference cfg ~cores:with_attrib () in
        Array.iteri
          (fun i (b : Sim.Machine.core_result) ->
            let r = rr.(i) in
            if not r.Sim.Machine.halted then begin
              Printf.eprintf "FAIL sim %s: core %d did not halt\n" mode i;
              exit 1
            end;
            if b <> r then begin
              Printf.eprintf
                "FAIL sim %s: interpreters diverge on core %d (block %d \
                 cycles, reference %d cycles)\n"
                mode i b.Sim.Machine.cycles r.Sim.Machine.cycles;
              exit 1
            end)
          rb;
        acc
        + Array.fold_left
            (fun a (r : Sim.Machine.core_result) -> a + r.Sim.Machine.cycles)
            0 rb)
      0 units
  in
  let time_pass interp units =
    let t0 = Sys.time () in
    List.iter
      (fun (cfg, setups) -> ignore (Sim.Machine.run ~interp cfg ~cores:setups ()))
      units;
    Sys.time () -. t0
  in
  List.map
    (fun (mode, units) ->
      let sim_cycles = cycles_of (mode, units) in
      let best f =
        let m = ref infinity in
        for _ = 1 to reps do
          m := Float.min !m (f ())
        done;
        !m
      in
      let sim_block_ms = 1000. *. best (fun () -> time_pass `Block units) in
      let sim_ref_ms = 1000. *. best (fun () -> time_pass `Reference units) in
      { sim_mode = mode; sim_cycles; sim_block_ms; sim_ref_ms })
    modes

(* Stall-replay guard for the reference interpreter: cycles that merely
   count down an instruction's remaining local work (the stall-replay
   path) must not re-plan or re-decode the instruction — the fix keeps
   the decoded instruction cached on the core and decrements the work
   item in place.  A div-heavy loop spends ~12 local cycles per
   instruction against the ALU loop's ~2, so with the fix its cycle
   rate is strictly higher (planning is amortized over 6x the cycles);
   if replay cycles re-decoded, the two rates would collapse together.
   The guard asserts the div loop stays faster per cycle. *)
let stall_replay_guard () =
  let loop body =
    Isa.Asm.parse ~name:"guard"
      (Printf.sprintf
         "main:\n  addi r1, r0, 30000\nloop:\n%s  subi r1, r1, 1\n  bne r1, \
          r0, loop\n  halt\n"
         body)
  in
  let alu = loop "  addi r2, r2, 3\n  addi r3, r3, 7\n" in
  let divs = loop "  div r2, r2, r1\n  div r3, r3, r1\n" in
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
  let rate program =
    ignore (Sim.Machine.run_single ~interp:`Reference cfg program ());
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      let r = Sim.Machine.run_single ~interp:`Reference cfg program () in
      let dt = Sys.time () -. t0 in
      best := Float.min !best (dt /. float_of_int r.Sim.Machine.cycles)
    done;
    1e-6 /. !best (* Mcycles/s *)
  in
  let alu_rate = rate alu in
  let stall_rate = rate divs in
  (alu_rate, stall_rate)

(* ---- mode-invariant contexts: the 8-mode sweep, fresh vs shared ------ *)

(* Every approach mode over the catalog, once fresh (each analysis call
   builds its own front end: [Wcet.analyze]/[Bcet.analyze] solo, one
   [Context.build] per core slot per mode call) and once from a shared
   [Core.Context]/[Multicore.contexts] pack — one front end per program,
   thin per-mode back ends, prepared IPET tableaus re-solved per
   objective.  Bounds, IPET worst paths (per-proc objective + block
   counts) and full attribution tables must be bit-identical between the
   two; the wall-clock gate is on the aggregate sweep. *)

let ctx_sweep_cores = 2

let ctx_sweep_bench ~reps suite =
  let solo_platform = Core.Mode.solo_platform () in
  let fingerprint (w : Core.Wcet.t) =
    ( w.Core.Wcet.wcet,
      List.map
        (fun (name, (pr : Core.Wcet.proc_result)) ->
          ( name,
            pr.Core.Wcet.ipet.Core.Ipet.wcet,
            Array.to_list pr.Core.Wcet.ipet.Core.Ipet.block_counts,
            pr.Core.Wcet.wcet_vec ))
        w.Core.Wcet.procs,
      Attrib.of_wcet w )
  in
  let sweep engine (b : B.t) =
    let task = (b.B.program, b.B.annot) in
    let sys =
      MC.default_system ~cores:ctx_sweep_cores
        ~tasks:(Array.make ctx_sweep_cores (Some task))
    in
    (* [ctxs ()] gives a mode call its contexts: fresh, one per slot
       and shared with nothing; or the pack's. *)
    let ctxs, solo_ctx =
      match engine with
      | `Fresh ->
          ( (fun () ->
              Array.map
                (Option.map (fun (program, annot) ->
                     Core.Context.build ~annot ~l1i:sys.MC.l1i
                       ~l1d:sys.MC.l1d program))
                sys.MC.tasks),
            None )
      | `Context ->
          let ctxs = MC.contexts sys in
          ( (fun () -> ctxs),
            Some
              (Core.Context.of_platform ~annot:b.B.annot solo_platform
                 b.B.program) )
    in
    let w0 r =
      match r.(0) with Some w -> w | None -> failwith "no core-0 result"
    in
    let solo =
      match solo_ctx with
      | Some ctx -> Core.Wcet.analyze_with ~ctx solo_platform
      | None -> Core.Wcet.analyze ~annot:b.B.annot solo_platform b.B.program
    in
    let bcet =
      match solo_ctx with
      | Some ctx -> Core.Bcet.analyze_with ~ctx solo_platform
      | None -> Core.Bcet.analyze ~annot:b.B.annot solo_platform b.B.program
    in
    ( bcet.Core.Bcet.bcet,
      List.map fingerprint
        (solo
        :: List.map
             (fun mode -> w0 (Core.Mode.analyze ~ctxs:(ctxs ()) sys mode))
             system_modes) )
  in
  let time engine b =
    let p0 = Lp.Simplex.pivots () in
    let t0 = Sys.time () in
    let r = sweep engine b in
    let t1 = Sys.time () in
    let pivots = Lp.Simplex.pivots () - p0 in
    let wall = ref (t1 -. t0) in
    for _ = 2 to reps do
      let t0 = Sys.time () in
      ignore (sweep engine b);
      let t1 = Sys.time () in
      wall := Float.min !wall (t1 -. t0)
    done;
    (r, !wall *. 1000., pivots)
  in
  List.map
    (fun (b : B.t) ->
      let fresh_r, fresh_ms, fresh_pivots = time `Fresh b in
      let ctx_r, ctx_ms, ctx_pivots = time `Context b in
      (* structural equality IS bit-identity: the fingerprints are pure
         data (ints, strings, cost vectors, attribution rows) *)
      (b.B.name, fresh_r = ctx_r, fresh_ms, ctx_ms, fresh_pivots, ctx_pivots))
    suite

(* ---- infeasible-path refinement: catalog x 8 modes ------------------- *)

(* Every catalog program under every approach mode, once through the
   CEGAR refinement loop.  Each refined run carries its own cut-free
   unrefined bound ([Core.Wcet.unrefined_wcet], the parallel pipeline),
   so refined-vs-unrefined is one analysis per cell and the comparison
   can never be skewed by front-end drift.  The gates: refinement never
   loosens any bound anywhere, it strictly tightens at least three
   catalog programs, and (measured solo) every refinement iteration's
   warm-started pivots stay at or below the from-scratch re-solve of the
   same cut system. *)

type refine_cell = {
  rc_mode : string;
  rc_wcet : int;
  rc_unrefined : int;
  rc_cuts : int;
}

type refine_iter_row = {
  rw_bench : string;
  rw_proc : string;
  rw_index : int;
  rw_warm : int;
  rw_cold : int;
}

let refine_bench () =
  let cfg = Refine.default in
  let solo_platform = Core.Mode.solo_platform () in
  let cuts_of (w : Core.Wcet.t) =
    List.fold_left
      (fun acc (_, (pr : Core.Wcet.proc_result)) ->
        match pr.Core.Wcet.refine with
        | Some s -> acc + Core.Ipet.refine_cuts_applied s
        | None -> acc)
      0 w.Core.Wcet.procs
  in
  let cell mode (w : Core.Wcet.t) =
    match w.Core.Wcet.unrefined_wcet with
    | Some u ->
        {
          rc_mode = mode;
          rc_wcet = w.Core.Wcet.wcet;
          rc_unrefined = u;
          rc_cuts = cuts_of w;
        }
    | None -> failwith "refined analysis lost its unrefined pipeline"
  in
  let sweep (b : B.t) =
    let task = (b.B.program, b.B.annot) in
    let sys =
      MC.default_system ~cores:ctx_sweep_cores
        ~tasks:(Array.make ctx_sweep_cores (Some task))
    in
    let ctxs = Some (MC.contexts sys) in
    let solo_ctx =
      Core.Context.of_platform ~annot:b.B.annot solo_platform b.B.program
    in
    let w0 name r =
      match r.(0) with
      | Some w -> cell name w
      | None -> failwith "no core-0 result"
    in
    cell "solo"
      (Core.Wcet.analyze_with ~refine:cfg ~ctx:solo_ctx solo_platform)
    :: List.map
         (fun mode ->
           w0 (Core.Mode.name mode)
             (Core.Mode.analyze ?ctxs ~refine:cfg sys mode))
         system_modes
  in
  let rows =
    List.map (fun (b : B.t) -> (b.B.name, sweep b)) (B.suite ())
  in
  (* Warm-vs-cold pivot differential, solo per program: iteration [i]'s
     cut system re-solved from scratch (the procedure's model prepared
     afresh with the cut rows of iterations 1..i, then branch and bound),
     whose optimum must equal the warm path's. *)
  let iter_rows =
    List.concat_map
      (fun (b : B.t) ->
        let ctx =
          Core.Context.of_platform ~annot:b.B.annot solo_platform b.B.program
        in
        let w = Core.Wcet.analyze_with ~refine:cfg ~ctx solo_platform in
        List.concat_map
          (fun (proc, (p : Core.Context.proc)) ->
            let pr = List.assoc proc w.Core.Wcet.procs in
            match pr.Core.Wcet.refine with
            | None -> []
            | Some s ->
                let prepared = Lazy.force p.Core.Context.ipet_wcet in
                let m =
                  Core.Ipet.model prepared ~block_cost:(fun id ->
                      pr.Core.Wcet.block_costs.(id))
                in
                snd
                  (List.fold_left_map
                     (fun rows (it : Core.Ipet.refine_iteration) ->
                       let extra =
                         rows
                         @ [ Core.Ipet.cut_row prepared it.Core.Ipet.ri_cut ]
                       in
                       let index = List.length extra in
                       let p0 = Lp.Simplex.pivots () in
                       let cold =
                         Lp.Ilp.solve_result_prepared
                           (Lp.Simplex.prepare m ~extra)
                           m
                       in
                       let rw_cold = Lp.Simplex.pivots () - p0 in
                       (match cold.Lp.Ilp.outcome with
                       | Lp.Ilp.Optimal (o, _)
                         when Lp.Q.equal o (Lp.Q.of_int it.Core.Ipet.ri_wcet)
                         ->
                           ()
                       | _ ->
                           Printf.eprintf
                             "FAIL %s/%s: refinement iteration %d's cold \
                              re-solve misses its bound %d\n"
                             b.B.name proc index it.Core.Ipet.ri_wcet;
                           exit 1);
                       ( extra,
                         {
                           rw_bench = b.B.name;
                           rw_proc = proc;
                           rw_index = index;
                           rw_warm = it.Core.Ipet.ri_warm_pivots;
                           rw_cold;
                         } ))
                     [] s.Core.Ipet.rf_iterations))
          ctx.Core.Context.procs)
      (B.suite ())
  in
  (rows, iter_rows)

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let () =
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  let reps = if !quick then 1 else 3 in
  let suite = B.suite () in
  let rows =
    List.map
      (fun (b : B.t) ->
        let sparse = measure ~strategy:`Worklist ~reps b in
        let sweep = measure ~strategy:`Sweep ~reps b in
        let ref_pivots, ref_nodes, ref_ms, disagree =
          reference_solve ~reps b
        in
        if sparse.wcet <> sweep.wcet || sparse.bcet <> sweep.bcet then begin
          Printf.eprintf
            "FAIL %s: fixpoint strategies disagree (worklist %d/%d vs sweep \
             %d/%d)\n"
            b.B.name sparse.wcet sparse.bcet sweep.wcet sweep.bcet;
          exit 1
        end;
        if disagree <> [] then begin
          Printf.eprintf "FAIL %s: solver stacks disagree on %s\n" b.B.name
            (String.concat ", " disagree);
          exit 1
        end;
        (* The reference column: the sweep schedule's fixpoint work and
           the dense stack's LP work. *)
        let dense =
          {
            sweep with
            pivots = ref_pivots;
            ilp_nodes = ref_nodes;
            wall_ms = sweep.wall_ms +. ref_ms;
          }
        in
        (b.B.name, sparse, dense))
      suite
  in
  (* WCET/BCET drift guard against the committed baseline. *)
  let baseline_line (name, (s : counters), _) =
    Printf.sprintf "%s %d %d" name s.wcet s.bcet
  in
  if !write_baseline then begin
    let oc = open_out !baseline_path in
    output_string oc
      "# benchmark catalog WCET/BCET baseline: <name> <wcet> <bcet>\n";
    List.iter (fun r -> output_string oc (baseline_line r ^ "\n")) rows;
    close_out oc;
    Printf.printf "wrote %s (%d programs)\n" !baseline_path (List.length rows)
  end
  else if Sys.file_exists !baseline_path then begin
    let ic = open_in !baseline_path in
    let expected = Hashtbl.create 32 in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line <> "" && line.[0] <> '#' then
           match String.split_on_char ' ' line with
           | [ name; w; b ] ->
               Hashtbl.replace expected name (int_of_string w, int_of_string b)
           | _ -> failwith ("malformed baseline line: " ^ line)
       done
     with End_of_file -> ());
    close_in ic;
    let drift = ref 0 in
    List.iter
      (fun (name, (s : counters), _) ->
        match Hashtbl.find_opt expected name with
        | None ->
            incr drift;
            Printf.eprintf "DRIFT %s: missing from baseline\n" name
        | Some (w, b) ->
            if (w, b) <> (s.wcet, s.bcet) then begin
              incr drift;
              Printf.eprintf "DRIFT %s: baseline %d/%d, got %d/%d\n" name w b
                s.wcet s.bcet
            end)
      rows;
    if !drift > 0 then begin
      Printf.eprintf
        "%d WCET/BCET bound(s) changed; if intentional, rerun with --write-baseline and commit\n"
        !drift;
      exit 1
    end
  end
  else
    Printf.eprintf "note: no baseline at %s (run --write-baseline to create)\n"
      !baseline_path;
  (* Aggregate + report. *)
  let sum f = List.fold_left (fun acc (_, s, d) -> acc + f s d) 0 rows in
  let sparse_pivots = sum (fun s _ -> s.pivots) in
  let dense_pivots = sum (fun _ d -> d.pivots) in
  let sparse_nodes = sum (fun s _ -> s.ilp_nodes) in
  let dense_nodes = sum (fun _ d -> d.ilp_nodes) in
  let worklist_pops = sum (fun s _ -> s.pops) in
  let sweep_pops = sum (fun _ d -> d.pops) in
  let transfers = sum (fun s _ -> s.transfers) in
  let pivot_speedup = ratio dense_pivots sparse_pivots in
  let pop_reduction = 1.0 -. ratio worklist_pops sweep_pops in
  let obs_calls, obs_per_call, obs_wall, obs_frac = obs_overhead_fraction () in
  let attrib_analysis_ms, attrib_flatten_ms, attrib_frac, sim_off_ms, sim_on_ms
      =
    attrib_overhead_fraction ()
  in
  (* The corpus size stays fixed in quick mode (the gate needs the
     long-running programs of the corpus tail); only timing reps drop. *)
  let sim_rows = sim_bench ~reps:(if !quick then 1 else 3) ~programs:8 in
  let sim_block_total =
    List.fold_left (fun a r -> a +. r.sim_block_ms) 0. sim_rows
  in
  let sim_ref_total = List.fold_left (fun a r -> a +. r.sim_ref_ms) 0. sim_rows in
  let sim_speedup = sim_ref_total /. Float.max 1e-9 sim_block_total in
  let guard_alu_rate, guard_stall_rate = stall_replay_guard () in
  (* Shared-context 8-mode sweep vs fresh-per-mode, over the catalog. *)
  let ctx_rows = ctx_sweep_bench ~reps:(if !quick then 1 else 3) suite in
  let ctx_fresh_ms =
    List.fold_left (fun a (_, _, f, _, _, _) -> a +. f) 0. ctx_rows
  in
  let ctx_ctx_ms =
    List.fold_left (fun a (_, _, _, c, _, _) -> a +. c) 0. ctx_rows
  in
  let ctx_fresh_pivots =
    List.fold_left (fun a (_, _, _, _, fp, _) -> a + fp) 0 ctx_rows
  in
  let ctx_ctx_pivots =
    List.fold_left (fun a (_, _, _, _, _, cp) -> a + cp) 0 ctx_rows
  in
  let ctx_identical = List.for_all (fun (_, ok, _, _, _, _) -> ok) ctx_rows in
  let ctx_speedup = ctx_fresh_ms /. Float.max 1e-9 ctx_ctx_ms in
  List.iter
    (fun (name, ok, _, _, _, _) ->
      if not ok then
        Printf.eprintf
          "FAIL: ctx sweep for %s: shared-context results differ from fresh\n"
          name)
    ctx_rows;
  if not ctx_identical then exit 1;
  (* Infeasible-path refinement over the catalog, plus a refined fuzz
     campaign for the soundness side (observed <= refined WCET). *)
  let refine_rows, refine_iters = refine_bench () in
  let refine_never_loosens =
    List.for_all
      (fun (_, cells) ->
        List.for_all (fun c -> c.rc_wcet <= c.rc_unrefined) cells)
      refine_rows
  in
  let refine_tightened =
    List.filter
      (fun (_, cells) ->
        List.exists (fun c -> c.rc_wcet < c.rc_unrefined) cells)
      refine_rows
  in
  let refine_warm_le_cold =
    List.for_all (fun r -> r.rw_warm <= r.rw_cold) refine_iters
  in
  let refine_fuzz_count = if !quick then 30 else 100 in
  let refine_fuzz =
    Fuzz.Oracle.run_campaign ~refine:Refine.default ~seed:11
      ~count:refine_fuzz_count ()
  in
  let refine_fuzz_violations =
    List.length refine_fuzz.Fuzz.Oracle.report.Fuzz.Oracle.violations
  in
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "{\n";
  p "  \"bench\": \"pr9-refine\",\n";
  p "  \"quick\": %b,\n" !quick;
  p "  \"programs\": [\n";
  List.iteri
    (fun i (name, (s : counters), (d : counters)) ->
      p "    {\"name\": \"%s\", \"wcet\": %d, \"bcet\": %d,\n" (json_escape name)
        s.wcet s.bcet;
      p
        "     \"sparse\": {\"pivots\": %d, \"ilp_nodes\": %d, \"wall_ms\": %.3f},\n"
        s.pivots s.ilp_nodes s.wall_ms;
      p
        "     \"reference\": {\"pivots\": %d, \"ilp_nodes\": %d, \"wall_ms\": %.3f},\n"
        d.pivots d.ilp_nodes d.wall_ms;
      p
        "     \"worklist\": {\"pops\": %d, \"transfers\": %d, \"rounds\": %d},\n"
        s.pops s.transfers s.sweeps;
      p "     \"sweep\": {\"pops\": %d, \"transfers\": %d, \"rounds\": %d}}%s\n"
        d.pops d.transfers d.sweeps
        (if i = List.length rows - 1 then "" else ","))
    rows;
  p "  ],\n";
  p "  \"totals\": {\n";
  p "    \"sparse_pivots\": %d,\n" sparse_pivots;
  p "    \"reference_pivots\": %d,\n" dense_pivots;
  p "    \"pivot_speedup\": %.3f,\n" pivot_speedup;
  p "    \"sparse_ilp_nodes\": %d,\n" sparse_nodes;
  p "    \"reference_ilp_nodes\": %d,\n" dense_nodes;
  p "    \"worklist_pops\": %d,\n" worklist_pops;
  p "    \"sweep_pops\": %d,\n" sweep_pops;
  p "    \"block_transfer_reduction\": %.3f,\n" pop_reduction;
  p "    \"transfer_applications\": %d\n" transfers;
  p "  },\n";
  p "  \"obs_overhead\": {\n";
  p "    \"instrumentation_calls\": %d,\n" obs_calls;
  p "    \"disabled_ns_per_call\": %.3f,\n" (obs_per_call *. 1e9);
  p "    \"catalog_wall_ms\": %.3f,\n" (obs_wall *. 1000.);
  p "    \"disabled_fraction\": %.6f\n" obs_frac;
  p "  },\n";
  p "  \"attrib_overhead\": {\n";
  p "    \"catalog_analysis_ms\": %.3f,\n" attrib_analysis_ms;
  p "    \"flatten_ms\": %.3f,\n" attrib_flatten_ms;
  p "    \"flatten_fraction\": %.6f,\n" attrib_frac;
  p "    \"sim_block_attrib_off_ms\": %.3f,\n" sim_off_ms;
  p "    \"sim_block_attrib_on_ms\": %.3f\n" sim_on_ms;
  p "  },\n";
  p "  \"sim\": {\n";
  p "    \"modes\": [\n";
  List.iteri
    (fun i r ->
      p
        "      {\"mode\": \"%s\", \"cycles\": %d, \"block_ms\": %.3f, \
         \"reference_ms\": %.3f, \"speedup\": %.3f}%s\n"
        r.sim_mode r.sim_cycles r.sim_block_ms r.sim_ref_ms
        (r.sim_ref_ms /. Float.max 1e-9 r.sim_block_ms)
        (if i = List.length sim_rows - 1 then "" else ","))
    sim_rows;
  p "    ],\n";
  p "    \"block_ms\": %.3f,\n" sim_block_total;
  p "    \"reference_ms\": %.3f,\n" sim_ref_total;
  p "    \"speedup\": %.3f,\n" sim_speedup;
  p "    \"stall_replay_alu_mcps\": %.2f,\n" guard_alu_rate;
  p "    \"stall_replay_div_mcps\": %.2f\n" guard_stall_rate;
  p "  },\n";
  p "  \"ctx_sweep\": {\n";
  p "    \"cores\": %d,\n" ctx_sweep_cores;
  p "    \"modes\": 8,\n";
  p "    \"programs\": [\n";
  List.iteri
    (fun i (name, ok, fresh_ms, ctx_ms, fresh_pivots, ctx_pivots) ->
      p
        "      {\"name\": \"%s\", \"fresh_ms\": %.3f, \"ctx_ms\": %.3f, \
         \"speedup\": %.3f, \"fresh_pivots\": %d, \"ctx_pivots\": %d, \
         \"identical\": %b}%s\n"
        (json_escape name) fresh_ms ctx_ms
        (fresh_ms /. Float.max 1e-9 ctx_ms)
        fresh_pivots ctx_pivots ok
        (if i = List.length ctx_rows - 1 then "" else ","))
    ctx_rows;
  p "    ],\n";
  p "    \"fresh_ms\": %.3f,\n" ctx_fresh_ms;
  p "    \"ctx_ms\": %.3f,\n" ctx_ctx_ms;
  p "    \"speedup\": %.3f,\n" ctx_speedup;
  p "    \"fresh_pivots\": %d,\n" ctx_fresh_pivots;
  p "    \"ctx_pivots\": %d\n" ctx_ctx_pivots;
  p "  },\n";
  p "  \"refine\": {\n";
  p "    \"config\": \"%s\",\n" (json_escape (Refine.salt Refine.default));
  p "    \"cores\": %d,\n" ctx_sweep_cores;
  p "    \"programs\": [\n";
  List.iteri
    (fun i (name, cells) ->
      let tightened =
        List.exists (fun c -> c.rc_wcet < c.rc_unrefined) cells
      in
      p "      {\"name\": \"%s\", \"tightened\": %b, \"modes\": [\n"
        (json_escape name) tightened;
      List.iteri
        (fun j c ->
          p
            "        {\"mode\": \"%s\", \"wcet\": %d, \"unrefined\": %d, \
             \"cuts\": %d}%s\n"
            c.rc_mode c.rc_wcet c.rc_unrefined c.rc_cuts
            (if j = List.length cells - 1 then "" else ","))
        cells;
      p "      ]}%s\n" (if i = List.length refine_rows - 1 then "" else ","))
    refine_rows;
  p "    ],\n";
  p "    \"iterations\": [\n";
  List.iteri
    (fun i r ->
      p
        "      {\"benchmark\": \"%s\", \"proc\": \"%s\", \"iteration\": %d, \
         \"warm_pivots\": %d, \"cold_pivots\": %d}%s\n"
        (json_escape r.rw_bench) (json_escape r.rw_proc) r.rw_index r.rw_warm
        r.rw_cold
        (if i = List.length refine_iters - 1 then "" else ","))
    refine_iters;
  p "    ],\n";
  p "    \"tightened_benchmarks\": %d,\n" (List.length refine_tightened);
  p "    \"fuzz\": {\"seed\": 11, \"count\": %d, \"violations\": %d}\n"
    refine_fuzz_count refine_fuzz_violations;
  p "  },\n";
  p "  \"acceptance\": {\n";
  p "    \"refine_never_loosens\": %b,\n" refine_never_loosens;
  p "    \"refine_tightens_ge_3_benchmarks\": %b,\n"
    (List.length refine_tightened >= 3);
  p "    \"refine_iter_warm_pivots_le_cold\": %b,\n" refine_warm_le_cold;
  p "    \"refine_fuzz_zero_violations\": %b,\n"
    (refine_fuzz_violations = 0);
  p "    \"ctx_sweep_speedup_ge_2_5x\": %b,\n" (ctx_speedup >= 2.5);
  p "    \"ctx_bit_identical\": %b,\n" ctx_identical;
  p "    \"ctx_pivots_le_fresh\": %b,\n" (ctx_ctx_pivots <= ctx_fresh_pivots);
  p "    \"warm_pivot_reduction_vs_cold_ge_2x\": %b,\n" (pivot_speedup >= 2.0);
  p "    \"sim_speedup_ge_3x\": %b,\n" (sim_speedup >= 3.0);
  p "    \"sim_bit_identical\": true,\n";
  p "    \"stall_replay_not_redecoding\": %b,\n"
    (guard_stall_rate >= guard_alu_rate);
  p "    \"pivot_speedup_ge_2x\": %b,\n" (pivot_speedup >= 2.0);
  p "    \"block_transfer_reduction_ge_30pct\": %b,\n" (pop_reduction >= 0.30);
  p "    \"obs_disabled_overhead_lt_2pct\": %b,\n" (obs_frac < 0.02);
  p "    \"attrib_overhead_lt_2pct\": %b,\n" (attrib_frac < 0.02);
  p "    \"bounds_bit_identical\": true\n";
  p "  }\n";
  p "}\n";
  let oc = open_out !out_path in
  Buffer.output_buffer oc buf;
  close_out oc;
  Printf.printf
    "%d programs | pivots: %d sparse vs %d reference (%.2fx) | fixpoint pops: %d worklist vs %d sweep (%.1f%% fewer) | obs disabled overhead %.3f%% | attrib flatten %.3f%% | sim %.1f/%.1f ms (%.2fx) | ctx sweep %.1f/%.1f ms (%.2fx) | refine: %d/%d tightened, %d fuzz violations -> %s\n"
    (List.length rows) sparse_pivots dense_pivots pivot_speedup worklist_pops
    sweep_pops (100. *. pop_reduction) (100. *. obs_frac) (100. *. attrib_frac)
    sim_block_total sim_ref_total sim_speedup ctx_fresh_ms ctx_ctx_ms
    ctx_speedup
    (List.length refine_tightened)
    (List.length refine_rows) refine_fuzz_violations !out_path;
  if pivot_speedup < 2.0 || pop_reduction < 0.30 then begin
    Printf.eprintf "FAIL: acceptance thresholds not met\n";
    exit 1
  end;
  if ctx_speedup < 2.5 then begin
    Printf.eprintf
      "FAIL: shared-context sweep speedup %.2fx below the 2.5x gate (fresh \
       %.1f ms, ctx %.1f ms)\n"
      ctx_speedup ctx_fresh_ms ctx_ctx_ms;
    exit 1
  end;
  if ctx_ctx_pivots > ctx_fresh_pivots then begin
    Printf.eprintf
      "FAIL: shared-context sweep pivoted more than fresh (%d vs %d) — warm \
       starts are not being reused\n"
      ctx_ctx_pivots ctx_fresh_pivots;
    exit 1
  end;
  if sim_speedup < 3.0 then begin
    Printf.eprintf
      "FAIL: block interpreter speedup %.2fx below the 3x gate (block %.1f \
       ms, reference %.1f ms)\n"
      sim_speedup sim_block_total sim_ref_total;
    exit 1
  end;
  if guard_stall_rate < guard_alu_rate then begin
    Printf.eprintf
      "FAIL: stall-replay guard: div loop %.1f Mc/s not above ALU loop %.1f \
       Mc/s — replay cycles look like they are re-planning\n"
      guard_stall_rate guard_alu_rate;
    exit 1
  end;
  if obs_frac >= 0.02 then begin
    Printf.eprintf
      "FAIL: disabled-tracing overhead %.3f%% exceeds the 2%% budget\n"
      (100. *. obs_frac);
    exit 1
  end;
  if attrib_frac >= 0.02 then begin
    Printf.eprintf
      "FAIL: attribution flatten overhead %.3f%% exceeds the 2%% budget\n"
      (100. *. attrib_frac);
    exit 1
  end;
  if not refine_never_loosens then begin
    Printf.eprintf
      "FAIL: refinement loosened a bound somewhere in the catalog sweep\n";
    exit 1
  end;
  if List.length refine_tightened < 3 then begin
    Printf.eprintf
      "FAIL: refinement tightened only %d benchmark(s), need >= 3\n"
      (List.length refine_tightened);
    exit 1
  end;
  if not refine_warm_le_cold then begin
    Printf.eprintf
      "FAIL: a warm-started refinement iteration pivoted more than its cold \
       re-solve\n";
    exit 1
  end;
  if refine_fuzz_violations > 0 then begin
    Printf.eprintf
      "FAIL: refined fuzz campaign found %d soundness violation(s)\n"
      refine_fuzz_violations;
    exit 1
  end
