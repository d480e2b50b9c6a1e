(* paratime — command-line front end.

   Subcommands:
     analyze   <file.asm|bench:NAME>  static WCET analysis
     simulate  <file.asm|bench:NAME>  cycle-level simulation
     multicore <bench:NAME>...        task-set analysis under each approach
     batch     <SOURCE>...            sources x configs in parallel, memoized
     fuzz                             differential soundness fuzzing
     trace     <file.asm|bench:NAME>  traced analysis run -> Chrome JSON
     benchmarks                       list the bundled benchmark suite *)

open Cmdliner

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "paratime: %s\n" msg;
      exit 2)
    fmt

(* Every command that takes a SOURCE resolves it here, so bad sources
   fail uniformly: exit 2 with the valid names spelled out. *)
let bench_listing () =
  String.concat ", "
    (List.map
       (fun (b : Workloads.Bench_programs.t) -> b.Workloads.Bench_programs.name)
       (Workloads.Bench_programs.suite ()))

let load source =
  if String.length source > 6 && String.sub source 0 6 = "bench:" then
    let name = String.sub source 6 (String.length source - 6) in
    match Workloads.Bench_programs.by_name name with
    | Some b ->
        (b.Workloads.Bench_programs.program, b.Workloads.Bench_programs.annot)
    | None -> die "unknown benchmark %S; available: %s" name (bench_listing ())
  else
    match open_in source with
    | exception Sys_error msg ->
        die "cannot read %s; expected an assembly file or bench:NAME with NAME one of: %s"
          msg (bench_listing ())
    | ic -> (
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in ic;
        match Isa.Asm.parse ~name:(Filename.basename source) text with
        | program -> (program, Dataflow.Annot.empty)
        | exception Isa.Asm.Parse_error (line, msg) ->
            die "%s:%d: %s" source line msg)

let l2_of_flag with_l2 =
  if with_l2 then Some (Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
  else None

let write_file path contents =
  match open_out path with
  | exception Sys_error msg -> die "cannot write %s" msg
  | oc ->
      output_string oc contents;
      close_out oc

(* [--trace FILE] / [--trace-csv FILE] support shared by batch and fuzz:
   install a sink before the run (also when [on]: batch's phase table
   reads the same sink), return the finisher that exports and
   uninstalls.  The finisher is called before any [exit], not from a
   [Fun.protect] — [exit] does not unwind the stack. *)
let start_trace ?(on = false) ?(csv = None) json =
  if (not on) && json = None && csv = None then fun () -> ()
  else
    let sink = Obs.Sink.create () in
    Obs.set_sink (Some sink);
    fun () ->
      Obs.set_sink None;
      Option.iter
        (fun path ->
          write_file path (Obs.Trace_export.to_json sink);
          Printf.eprintf "paratime: trace written to %s\n%!" path)
        json;
      Option.iter
        (fun path ->
          write_file path (Obs.Csv_export.to_csv sink);
          Printf.eprintf "paratime: trace CSV written to %s\n%!" path)
        csv

let arbiter_of cores kind =
  match kind with
  | "private" -> Interconnect.Arbiter.Private
  | "rr" -> Interconnect.Arbiter.Round_robin { cores }
  | "tdma" -> Interconnect.Arbiter.Tdma { cores; slot = 60 }
  | "fcfs" -> Interconnect.Arbiter.Fcfs { cores }
  | s -> die "unknown arbiter %S (expected private | rr | tdma | fcfs)" s

(* [--mode all]: every approach mode analyzed from one shared
   mode-invariant context pack ({!Server_lib.Modes.analyze_all}) on the
   standard serve/attribute hardware, rendered as one summary table —
   mode, bound, and the five attribution categories. *)
let render_all_modes results =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "%-12s %10s %10s %10s %10s %10s %10s\n" "mode" "wcet"
       "compute" "l1_miss" "l2_miss" "bus" "stall");
  List.iter
    (fun (mode, r) ->
      let name = Core.Mode.name mode in
      match r with
      | Ok (e : Store.Entry.t) ->
          let v = e.Store.Entry.attrib.Attrib.total in
          Buffer.add_string b
            (Printf.sprintf "%-12s %10d %10d %10d %10d %10d %10d\n" name
               e.Store.Entry.bound v.Pipeline.Cost.Vec.compute
               v.Pipeline.Cost.Vec.l1_miss v.Pipeline.Cost.Vec.l2_miss
               v.Pipeline.Cost.Vec.bus v.Pipeline.Cost.Vec.stall)
      | Error msg ->
          Buffer.add_string b (Printf.sprintf "%-12s %10s  %s\n" name "-" msg))
    results;
  Buffer.contents b

let all_modes_results ?refine ~cores task =
  if cores < 1 || cores > 4 then die "--cores must be in 1..4 with --mode all";
  Server_lib.Modes.analyze_all ?refine ~cores ~kind:Server_lib.Modes.Wcet task

(* [--refine] everywhere maps the flag to the default CEGAR budget. *)
let refine_of_flag refine = if refine then Some Refine.default else None

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let run_platform source with_l2 cores arbiter_kind core_id method_cache
      refine verbose report =
    let program, annot = load source in
    let l2 = l2_of_flag with_l2 in
    let platform =
      {
        (Core.Platform.single_core ?l2 ()) with
        Core.Platform.arbiter = arbiter_of cores arbiter_kind;
        core = core_id;
        method_cache =
          (if method_cache then Some Cache.Method_cache.default else None);
      }
    in
    match
      Core.Wcet.analyze ~annot ?refine:(refine_of_flag refine) platform program
    with
    | exception Core.Wcet.Not_analysable msg ->
        Printf.eprintf "not analysable: %s\n" msg;
        exit 1
    | a when report -> print_string (Core.Report.render a)
    | a ->
        Printf.printf "WCET bound: %d cycles\n" a.Core.Wcet.wcet;
        (match a.Core.Wcet.unrefined_wcet with
        | Some u ->
            let cuts =
              List.fold_left
                (fun acc (_, (pr : Core.Wcet.proc_result)) ->
                  match pr.Core.Wcet.refine with
                  | Some s -> acc + Core.Ipet.refine_cuts_applied s
                  | None -> acc)
                0 a.Core.Wcet.procs
            in
            Printf.printf
              "unrefined bound: %d cycles (refinement cut %d cycles with %d \
               conflict cuts)\n"
              u (u - a.Core.Wcet.wcet) cuts
        | None -> ());
        (match Core.Bcet.analyze ~annot platform program with
        | b ->
            Printf.printf "BCET bound: %d cycles (analytic quotient %.3f)\n"
              b.Core.Bcet.bcet
              (Core.Bcet.analytic_quotient ~bcet:b.Core.Bcet.bcet
                 ~wcet:a.Core.Wcet.wcet)
        | exception Core.Wcet.Not_analysable _ -> ());
        if verbose then
          List.iter
            (fun (name, (pr : Core.Wcet.proc_result)) ->
              Printf.printf "procedure %s: wcet %d (path %d + persistence %d)\n"
                name pr.Core.Wcet.wcet pr.Core.Wcet.ipet.Core.Ipet.wcet
                pr.Core.Wcet.ps_penalty;
              List.iter
                (fun (b : Dataflow.Loop_bounds.bound) ->
                  Printf.printf "  loop B%d: <= %d back edges (%s)\n"
                    b.Dataflow.Loop_bounds.header
                    b.Dataflow.Loop_bounds.max_back_edges
                    (match b.Dataflow.Loop_bounds.source with
                    | Dataflow.Loop_bounds.Inferred -> "inferred"
                    | Dataflow.Loop_bounds.Annotated -> "annotated"))
                pr.Core.Wcet.loop_bounds;
              match pr.Core.Wcet.refine with
              | None -> ()
              | Some s ->
                  let prev = ref s.Core.Ipet.rf_initial in
                  List.iteri
                    (fun i (it : Core.Ipet.refine_iteration) ->
                      Printf.printf
                        "  refine #%d: %d -> %d [%s] (warm pivots %d)\n"
                        (i + 1) !prev it.Core.Ipet.ri_wcet
                        (Format.asprintf "%a" Refine.pp_cut
                           it.Core.Ipet.ri_cut)
                        it.Core.Ipet.ri_warm_pivots;
                      prev := it.Core.Ipet.ri_wcet)
                    s.Core.Ipet.rf_iterations)
            a.Core.Wcet.procs
  in
  let run source mode_arg with_l2 cores arbiter_kind core_id method_cache
      refine verbose report =
    match mode_arg with
    | Some "all" ->
        print_string
          (render_all_modes
             (all_modes_results
                ?refine:(refine_of_flag refine)
                ~cores (load source)))
    | Some mode_s -> (
        match Core.Mode.of_string mode_s with
        | Error msg -> die "%s; or \"all\" for the whole sweep" msg
        | Ok mode ->
            if cores < 1 || cores > 4 then
              die "--cores must be in 1..4 with --mode";
            let task = load source in
            print_string
              (render_all_modes
                 [
                   ( mode,
                     Server_lib.Modes.analyze
                       ?refine:(refine_of_flag refine)
                       ~mode ~cores ~kind:Server_lib.Modes.Wcet task );
                 ]))
    | None ->
        run_platform source with_l2 cores arbiter_kind core_id method_cache
          refine verbose report
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let with_l2 =
    Arg.(value & flag & info [ "l2" ] ~doc:"Add a 64x4x16 private L2.")
  in
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~doc:"Bus population (for the arbiter bound).")
  in
  let arbiter =
    Arg.(
      value & opt string "private"
      & info [ "arbiter" ] ~doc:"private | rr | tdma | fcfs.")
  in
  let core_id =
    Arg.(value & opt int 0 & info [ "core" ] ~doc:"This task's core id.")
  in
  let verbose = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Per-procedure detail.") in
  let method_cache =
    Arg.(
      value & flag
      & info [ "method-cache" ]
          ~doc:"Serve instructions from a Schoeberl-style method cache.")
  in
  let report =
    Arg.(value & flag & info [ "report" ] ~doc:"Full per-block report.")
  in
  let refine =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:
            "Infeasible-path refinement: CEGAR conflict cuts over the \
             warm-started IPET tableau.  The printed bound is the refined \
             one; the unrefined bound and the tightening are reported next \
             to it ($(b,--verbose) adds per-iteration detail).")
  in
  let mode =
    Arg.(
      value
      & opt (some string) None
      & info [ "mode"; "m" ] ~docv:"MODE"
          ~doc:
            "Analyze under an approach mode (solo, oblivious, joint, bypass, \
             columnized, bankized, locked, dynamic) on the standard \
             serve/attribute hardware instead of the flag-built platform; \
             $(b,all) sweeps every mode from one shared analysis context \
             and prints a per-mode summary table.")
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Static WCET analysis of one task")
    Term.(
      const run $ source $ mode $ with_l2 $ cores $ arbiter $ core_id
      $ method_cache $ refine $ verbose $ report)

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let run source with_l2 method_cache =
    let program, _ = load source in
    let platform =
      {
        (Core.Platform.single_core ?l2:(l2_of_flag with_l2) ()) with
        Core.Platform.method_cache =
          (if method_cache then Some Cache.Method_cache.default else None);
      }
    in
    let r =
      match
        Sim.Machine.run_single (Core.Platform.machine platform) program ()
      with
      | r -> r
      | exception Isa.Exec.Fault msg ->
          Printf.eprintf "simulation fault: %s\n" msg;
          exit 1
    in
    Printf.printf "cycles:       %d\n" r.Sim.Machine.cycles;
    Printf.printf "instructions: %d\n" r.Sim.Machine.instructions;
    Printf.printf "halted:       %b\n" r.Sim.Machine.halted;
    Printf.printf "l1i hits/misses: %d/%d\n" r.Sim.Machine.l1i_hits
      r.Sim.Machine.l1i_misses;
    Printf.printf "l1d hits/misses: %d/%d\n" r.Sim.Machine.l1d_hits
      r.Sim.Machine.l1d_misses
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let with_l2 = Arg.(value & flag & info [ "l2" ] ~doc:"Add an L2.") in
  let method_cache =
    Arg.(
      value & flag
      & info [ "method-cache" ] ~doc:"Use a method cache for instructions.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Cycle-level simulation of one task")
    Term.(const run $ source $ with_l2 $ method_cache)

(* ---------------- multicore ---------------- *)

let multicore_cmd =
  let run sources =
    (* Columnization gives each core one of the L2's 4 ways: refuse a
       fifth task before any row prints. *)
    let cores = List.length sources in
    if cores > 4 then
      die "multicore takes 1 to 4 tasks (one per core), got %d" cores;
    let tasks = List.map load sources in
    let sys =
      Core.Multicore.default_system ~cores
        ~tasks:(Array.of_list (List.map (fun t -> Some t) tasks))
    in
    (* One front end per task, shared by every mode; a task it rejects
       fails the command before the table starts. *)
    let ctxs =
      try Core.Multicore.contexts sys
      with Core.Wcet.Not_analysable msg ->
        Printf.eprintf "not analysable: %s\n" msg;
        exit 1
    in
    let show mode =
      Printf.printf "%-14s" (Core.Mode.name mode);
      Array.iter
        (function
          | Some w -> Printf.printf " %10d" w
          | None -> Printf.printf " %10s" "-")
        (Core.Multicore.wcets (Core.Mode.analyze ~ctxs sys mode));
      print_newline ()
    in
    Printf.printf "%-14s" "approach";
    List.iteri (fun i _ -> Printf.printf " %10s" (Printf.sprintf "core%d" i)) sources;
    print_newline ();
    List.iter (fun m -> if m <> Core.Mode.Solo then show m) Core.Mode.all
  in
  let sources =
    Arg.(
      non_empty & pos_all string []
      & info [] ~docv:"SOURCE"
          ~doc:"One task per core, 1 to 4 tasks (file or bench:NAME).")
  in
  Cmd.v
    (Cmd.info "multicore"
       ~doc:"Analyze a task set under every approach family of the paper")
    Term.(const run $ sources)

(* ---------------- cfg ---------------- *)

let cfg_cmd =
  let run source dot =
    let program, annot = load source in
    if dot then begin
      let a =
        Core.Wcet.analyze ~annot (Core.Platform.single_core ()) program
      in
      List.iter
        (fun (name, _) -> print_string (Core.Report.dot_of_proc a name))
        a.Core.Wcet.procs
    end
    else begin
      let cg = Cfg.Callgraph.build program in
      List.iter
        (fun (_, g) -> Format.printf "%a@." Cfg.Graph.pp g)
        (Cfg.Callgraph.bottom_up cg)
    end
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let dot =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:"Graphviz output annotated with WCET costs and counts.")
  in
  Cmd.v
    (Cmd.info "cfg" ~doc:"Dump the control-flow graphs of a task")
    Term.(const run $ source $ dot)

(* ---------------- batch ---------------- *)

(* Named platform configurations a batch run sweeps each source through. *)
let batch_configs =
  [
    ("base", fun () -> Core.Platform.single_core ());
    ( "l2",
      fun () ->
        Core.Platform.single_core
          ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
          () );
    ( "mc",
      fun () ->
        {
          (Core.Platform.single_core ()) with
          Core.Platform.method_cache = Some Cache.Method_cache.default;
        } );
    ( "rr4",
      fun () ->
        {
          (Core.Platform.single_core ()) with
          Core.Platform.arbiter = Interconnect.Arbiter.Round_robin { cores = 4 };
        } );
    ( "tdma4",
      fun () ->
        {
          (Core.Platform.single_core ()) with
          Core.Platform.arbiter =
            Interconnect.Arbiter.Tdma { cores = 4; slot = 60 };
        } );
  ]

let workers_from_env () =
  match Sys.getenv_opt "PARATIME_WORKERS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Some n
      | _ -> die "PARATIME_WORKERS must be a positive integer, got %S" s)
  | None -> None

type batch_row = {
  wcet : int;
  wcet_vec : Pipeline.Cost.Vec.t;
  bcet : int option;
  job_ns : int64;
  cache_hits : int;
  cache_lookups : int;
}

let batch_cmd =
  let run sources config_names jobs_flag repeat timeout_ms capacity phases csv
      attrib trace trace_csv =
    if repeat < 1 then die "--repeat must be >= 1";
    let configs =
      List.map
        (fun name ->
          match List.assoc_opt name batch_configs with
          | Some mk -> (name, mk ())
          | None ->
              die "unknown config %S; available: %s" name
                (String.concat ", " (List.map fst batch_configs)))
        config_names
    in
    if sources = [] || configs = [] then
      die
        "nothing to do: the sources x configs product is empty (%d source(s), \
         %d config(s)); pass at least one SOURCE and one --config"
        (List.length sources) (List.length configs);
    let tasks = List.map (fun s -> (s, load s)) sources in
    let memo = Core.Memo.create ?capacity () in
    let points =
      (* repeat-major order so later rounds demonstrably hit the cache *)
      List.concat_map
        (fun round ->
          List.concat_map
            (fun (src, (program, annot)) ->
              List.map
                (fun (cname, platform) -> (round, src, cname, program, annot, platform))
                configs)
            tasks)
        (List.init repeat (fun i -> i))
    in
    let jobs =
      List.map
        (fun (_, src, cname, program, annot, platform) ->
          Engine.Pool.job
            ~label:(Printf.sprintf "%s@%s" src cname)
            (fun ctx ->
              Engine.Pool.check ctx;
              let h0, l0 = Core.Memo.local_stats () in
              let t0 = Obs.now_ns () in
              (* one mode-invariant front end serves both bound sides;
                 lazy so a double cache hit never builds it *)
              let actx =
                lazy (Core.Context.of_platform ~annot platform program)
              in
              let w =
                Core.Memo.wcet memo ~annot
                  ~compute:(fun () ->
                    Core.Wcet.analyze_with ~ctx:(Lazy.force actx) platform)
                  platform program
              in
              let b =
                match
                  Core.Memo.bcet memo ~annot
                    ~compute:(fun () ->
                      Core.Bcet.analyze_with ~ctx:(Lazy.force actx) platform)
                    platform program
                with
                | b -> Some b.Core.Bcet.bcet
                | exception Core.Wcet.Not_analysable _ -> None
              in
              let job_ns = Int64.sub (Obs.now_ns ()) t0 in
              let h1, l1 = Core.Memo.local_stats () in
              {
                wcet = w.Core.Wcet.wcet;
                wcet_vec =
                  (match List.rev w.Core.Wcet.procs with
                  | (_, pr) :: _ -> pr.Core.Wcet.wcet_vec
                  | [] -> Pipeline.Cost.Vec.zero);
                bcet = b;
                job_ns;
                cache_hits = h1 - h0;
                cache_lookups = l1 - l0;
              }))
        points
    in
    let workers =
      max 1
        (match jobs_flag with
        | Some n -> n
        | None -> (
            match workers_from_env () with
            | Some n -> n
            | None -> Engine.Pool.default_workers ()))
    in
    let timeout_ns =
      Option.map (fun ms -> Int64.of_int (ms * 1_000_000)) timeout_ms
    in
    (* Header up front, rows at the end: a run killed mid-way leaves a
       parseable (if row-less) CSV instead of an empty file. *)
    if csv then begin
      print_string Obs.Summary.csv_header;
      flush stdout
    end;
    let trace_finish = start_trace ~on:(phases || csv) ~csv:trace_csv trace in
    let t0 = Obs.now_ns () in
    let outcomes = Engine.Pool.run ~workers ?timeout_ns jobs in
    let wall_ns = Int64.sub (Obs.now_ns ()) t0 in
    Printf.printf "%-18s %-6s %3s %10s %10s %9s %6s\n" "source" "config" "rep"
      "wcet" "bcet" "ms" "cache";
    let failures = ref 0 in
    List.iter2
      (fun (round, src, cname, _, _, _) outcome ->
        match outcome with
        | Engine.Pool.Done r ->
            Printf.printf "%-18s %-6s %3d %10d %10s %9.2f %3d/%d\n" src cname
              round r.wcet
              (match r.bcet with Some b -> string_of_int b | None -> "-")
              (Int64.to_float r.job_ns /. 1e6)
              r.cache_hits r.cache_lookups
        | Engine.Pool.Failed { label; error } ->
            incr failures;
            Printf.printf "%-18s %-6s %3d  FAILED (%s): %s\n" src cname round
              label error
        | Engine.Pool.Timed_out { label; after_ns } ->
            incr failures;
            Printf.printf "%-18s %-6s %3d  TIMEOUT (%s) after %.2f ms\n" src
              cname round label
              (Int64.to_float after_ns /. 1e6))
      points outcomes;
    Printf.printf "\n%d jobs, %d workers, wall %.2f ms\n" (List.length jobs)
      workers
      (Int64.to_float wall_ns /. 1e6);
    Format.printf "result cache: %a@." Engine.Lru.pp_stats
      (Core.Memo.stats memo);
    if attrib then begin
      Printf.printf "\nWCET attribution (cycles per category, round 0):\n";
      Printf.printf "%-18s %-6s" "source" "config";
      List.iter
        (fun c -> Printf.printf " %9s" (Pipeline.Cost.category_name c))
        Pipeline.Cost.categories;
      Printf.printf " %9s\n" "total";
      List.iter2
        (fun (round, src, cname, _, _, _) outcome ->
          match outcome with
          | Engine.Pool.Done r when round = 0 ->
              Printf.printf "%-18s %-6s" src cname;
              List.iter
                (fun (_, n) -> Printf.printf " %9d" n)
                (Pipeline.Cost.Vec.to_alist r.wcet_vec);
              Printf.printf " %9d\n" (Pipeline.Cost.Vec.total r.wcet_vec)
          | _ -> ())
        points outcomes
    end;
    (match Obs.sink () with
    | Some sink when phases || csv ->
        let summary = Obs.Summary.of_sink sink in
        if phases then print_string (Obs.Summary.render summary);
        if csv then print_string (Obs.Summary.csv_rows summary)
    | _ -> ());
    flush stdout;
    trace_finish ();
    if !failures > 0 then exit 1
  in
  let sources =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"SOURCE" ~doc:"Assembly files or bench:NAME entries.")
  in
  let configs =
    Arg.(
      value
      & opt_all string [ "base"; "l2" ]
      & info [ "config"; "c" ] ~docv:"NAME"
          ~doc:"Platform configuration (repeatable): base, l2, mc, rr4, tdma4.")
  in
  let jobs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: \\$(b,PARATIME_WORKERS) or the domain \
             count recommended by the runtime).")
  in
  let repeat =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"K"
          ~doc:"Analyze the whole matrix K times (exercises the cache).")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-job analysis budget.")
  in
  let capacity =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Result-cache capacity (default 512).")
  in
  let phases =
    Arg.(
      value & flag
      & info [ "phases" ]
          ~doc:
            "Trace the run and print the time and calls of each analysis \
             phase, then the trace's work counters.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ]
          ~doc:"Trace the run and print the phase table as CSV rows.")
  in
  let attrib =
    Arg.(
      value & flag
      & info [ "attrib" ]
          ~doc:
            "Print each bound's per-category cycle attribution after the \
             result table.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a Chrome trace_event JSON of the run into $(docv).")
  in
  let trace_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE"
          ~doc:
            "Record the flat CSV export (spans and metrics, including the \
             pool's queue-wait and run-time histograms) into $(docv).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Analyze many sources under many platform configurations in \
          parallel, with a shared memoizing result cache")
    Term.(
      const run $ sources $ configs $ jobs_flag $ repeat $ timeout_ms
      $ capacity $ phases $ csv $ attrib $ trace $ trace_csv)

(* ---------------- fuzz ---------------- *)

let fuzz_cmd =
  let run seed count cores jobs_flag mode_args timeout_ms csv attrib trace
      interp_arg refine_flag =
    let interp =
      match String.lowercase_ascii interp_arg with
      | "block" -> `Block
      | "reference" -> `Reference
      | "both" -> `Both
      | s -> die "unknown --interp %S (expected block, reference or both)" s
    in
    let modes =
      match
        List.concat_map (String.split_on_char ',') mode_args
        |> List.filter (fun s -> s <> "")
      with
      | [] -> Core.Mode.all
      | names ->
          List.map
            (fun n ->
              match Core.Mode.of_string n with
              | Ok m -> m
              | Error msg -> die "%s" msg)
            names
    in
    let workers =
      match jobs_flag with Some n -> Some n | None -> workers_from_env ()
    in
    let timeout_ns =
      Option.map (fun ms -> Int64.of_int (ms * 1_000_000)) timeout_ms
    in
    let memo = Core.Memo.create () in
    let refine = refine_of_flag refine_flag in
    (* Header before the campaign: a run killed mid-way leaves a
       parseable (if row-less) CSV on stdout instead of nothing. *)
    if csv then begin
      print_string Fuzz.Oracle.csv_header;
      flush stdout
    end;
    let trace_finish = start_trace trace in
    let t0 = Obs.now_ns () in
    let c =
      match
        Fuzz.Oracle.run_campaign ~modes ~cores ?workers ?timeout_ns ~memo
          ?refine ~interp ~seed ~count ()
      with
      | c -> c
      | exception Invalid_argument msg -> die "%s" msg
    in
    let wall_ns = Int64.sub (Obs.now_ns ()) t0 in
    let r = c.Fuzz.Oracle.report in
    if csv then print_string (Fuzz.Oracle.csv_rows r)
    else begin
      Printf.printf
        "fuzz campaign: seed %d, %d programs in %d-core groups, %d checks, \
         wall %.2f ms\n\n"
        c.Fuzz.Oracle.seed c.Fuzz.Oracle.count c.Fuzz.Oracle.cores
        (List.length r.Fuzz.Oracle.checks)
        (Int64.to_float wall_ns /. 1e6);
      Printf.printf "%-12s %7s %6s %28s" "mode" "checks" "viol"
        "tightness (WCET/observed)";
      if refine <> None then Printf.printf " %11s" "refine gain";
      if attrib then Printf.printf " %13s" "dominant gap";
      print_newline ();
      List.iter
        (fun (s : Fuzz.Oracle.mode_stats) ->
          let ratios =
            if s.Fuzz.Oracle.s_max_ratio = 0. then
              "analytic only" (* no simulated side (dynamic locking) *)
            else
              Printf.sprintf "min %.2f / mean %.2f / max %.2f"
                s.Fuzz.Oracle.s_min_ratio s.Fuzz.Oracle.s_mean_ratio
                s.Fuzz.Oracle.s_max_ratio
          in
          Printf.printf "%-12s %7d %6d %28s"
            (Core.Mode.name s.Fuzz.Oracle.s_mode)
            s.Fuzz.Oracle.s_checks s.Fuzz.Oracle.s_violations ratios;
          if refine <> None then
            Printf.printf " %11s"
              (match s.Fuzz.Oracle.s_mean_reduction with
              | Some r -> Printf.sprintf "%.2f%%" (100. *. r)
              | None -> "-");
          if attrib then
            Printf.printf " %13s"
              (match s.Fuzz.Oracle.s_dominant_gap with
              | Some cat -> Pipeline.Cost.category_name cat
              | None -> "-");
          print_newline ())
        c.Fuzz.Oracle.stats;
      match c.Fuzz.Oracle.memo_stats with
      | Some st -> Format.printf "result cache: %a@." Engine.Lru.pp_stats st
      | None -> ()
    end;
    List.iter
      (fun e -> Printf.eprintf "fuzz: infrastructure error: %s\n" e)
      r.Fuzz.Oracle.errors;
    List.iter
      (fun (v : Fuzz.Oracle.violation) ->
        Printf.eprintf
          "\nSOUNDNESS VIOLATION [%s/%s] task %s core %d: %s\n\
           offending program:\n\
           %s\n\
           reproduce with: paratime fuzz --seed %d --count %d --modes %s%s\n"
          (Core.Mode.name v.Fuzz.Oracle.v_mode)
          v.Fuzz.Oracle.v_shape v.Fuzz.Oracle.v_task v.Fuzz.Oracle.v_core
          v.Fuzz.Oracle.reason v.Fuzz.Oracle.source seed count
          (String.concat ","
             (List.map Core.Mode.name c.Fuzz.Oracle.modes))
          ((match interp with
           | `Block -> ""
           | `Reference -> " --interp reference"
           | `Both -> " --interp both")
          ^ match refine with None -> "" | Some _ -> " --refine"))
      r.Fuzz.Oracle.violations;
    trace_finish ();
    if r.Fuzz.Oracle.violations <> [] || r.Fuzz.Oracle.errors <> [] then exit 1
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (default 42).")
  in
  let count =
    Arg.(
      value & opt int 100
      & info [ "count" ] ~docv:"N"
          ~doc:"Number of generated programs (default 100).")
  in
  let cores =
    Arg.(
      value & opt int 4
      & info [ "cores" ] ~docv:"N"
          ~doc:"Task-group size for the contended modes (1-4, default 4).")
  in
  let jobs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains (default: \\$(b,PARATIME_WORKERS) or the domain \
             count recommended by the runtime).")
  in
  let modes =
    Arg.(
      value & opt_all string []
      & info [ "modes"; "m" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated (or repeated) mode subset: solo, oblivious, \
             joint, bypass, columnized, bankized, locked, dynamic.  Default: \
             all.")
  in
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS" ~doc:"Per-group analysis budget.")
  in
  let csv =
    Arg.(
      value & flag
      & info [ "csv" ] ~doc:"Print every check as a CSV row instead.")
  in
  let attrib =
    Arg.(
      value & flag
      & info [ "attrib" ]
          ~doc:
            "Add the dominant analysis-minus-observed gap category to the \
             tightness table.")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Record a Chrome trace_event JSON of the campaign into $(docv).")
  in
  let interp_arg =
    Arg.(
      value & opt string "block"
      & info [ "interp" ] ~docv:"WHICH"
          ~doc:
            "Simulator interpreter for the observed side: $(b,block) (the \
             pre-decoded hot path, default), $(b,reference) (the \
             per-instruction stepper), or $(b,both) — run both and report \
             any block-vs-reference divergence as a violation.")
  in
  let refine_flag =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:
            "Run every analysis bound through CEGAR infeasible-path \
             refinement; the oracle then checks the $(i,refined) bound \
             against the simulator (observed <= refined WCET), and the \
             tightness table gains a mean refine-gain column.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential soundness fuzzing: random MiniRISC programs checked \
          simulator-vs-analysis (BCET <= observed <= WCET) across platform \
          shapes and all multicore approach families")
    Term.(
      const run $ seed $ count $ cores $ jobs_flag $ modes $ timeout_ms $ csv
      $ attrib $ trace $ interp_arg $ refine_flag)

(* ---------------- attribute ---------------- *)

(* The analysis side of an attribution is the request's
   {!Server_lib.Modes} entry; the observed side is core 0 of the mode's
   machine run ({!Core.Mode.runs}), built from the same system and
   context pack, so the gap compares one hardware description and one
   command builds one front end.  The attributed task runs on core 0;
   under the contended modes every other core runs the same program as
   a co-runner.  [Ok None] for dynamic locking, which the machine cannot
   execute; [Error] for a simulator fault.  Raises
   {!Core.Wcet.Not_analysable}. *)
let observed_attribution ~pack ~program mode =
  let sys = Server_lib.Modes.system pack in
  let setups =
    Array.mapi
      (fun i _ ->
        { (Sim.Machine.task program) with Sim.Machine.attrib_blocks = i = 0 })
      sys.Core.Multicore.tasks
  in
  let observe config cores =
    match Sim.Machine.run config ~cores () with
    | rs -> Ok (Some (Attrib.observed rs.(0)))
    | exception Isa.Exec.Fault msg -> Error ("simulation fault: " ^ msg)
  in
  match mode with
  | Core.Mode.Solo ->
      observe
        (Core.Platform.machine (Core.Mode.solo_platform ()))
        [| setups.(0) |]
  | m -> (
      match
        Core.Mode.runs ~ctxs:(Server_lib.Modes.contexts pack) sys m setups
      with
      (* slot 0's run comes first, with slot 0 on its core 0 *)
      | { Core.Mode.config; setups; _ } :: _ -> observe config setups
      | [] -> Ok None)

let attribute_cmd =
  let run_all source cores gap trace_out csv_out =
    let ((program, _) as task) = load source in
    let pack = Server_lib.Modes.pack ~cores task in
    let results =
      List.map
        (fun mode ->
          ( mode,
            Server_lib.Modes.analyze_mode ~mode ~kind:Server_lib.Modes.Wcet
              pack ))
        Core.Mode.all
    in
    print_string (render_all_modes results);
    if gap then begin
      (* Per-mode gap table: each mode's analysis paired with its own
         simulated machine.  Dynamic locking has no executable side,
         hence no gap. *)
      Printf.printf "\n%-12s %10s %10s %10s %14s\n" "mode" "wcet" "observed"
        "gap" "dominant gap";
      List.iter
        (fun (m, r) ->
          let name = Core.Mode.name m in
          match r with
          | Error msg -> Printf.printf "%-12s %s\n" name msg
          | Ok (e : Store.Entry.t) -> (
              let analysis = e.Store.Entry.attrib in
              match observed_attribution ~pack ~program m with
              | Error msg -> Printf.printf "%-12s %s\n" name msg
              | Ok (Some o) ->
                  let g = Attrib.gap ~analysis ~observed:o in
                  Printf.printf "%-12s %10d %10d %10d %14s\n" name
                    analysis.Attrib.bound o.Attrib.bound
                    (analysis.Attrib.bound - o.Attrib.bound)
                    (Pipeline.Cost.category_name g.Attrib.dominant)
              | Ok None ->
                  Printf.printf "%-12s %10d %10s %10s %14s\n" name
                    analysis.Attrib.bound "-" "-" "analytic only"))
        results
    end;
    let each f =
      List.iter
        (fun (m, r) ->
          match r with
          | Ok (e : Store.Entry.t) ->
              f (Core.Mode.name m) e.Store.Entry.attrib
          | Error _ -> ())
        results
    in
    (match csv_out with
    | Some path ->
        let b = Buffer.create 4096 in
        Buffer.add_string b Attrib.csv_header;
        each (fun side a -> Buffer.add_string b (Attrib.csv_rows ~side a));
        write_file path (Buffer.contents b);
        Printf.eprintf "paratime: attribution CSV written to %s\n%!" path
    | None -> ());
    match trace_out with
    | Some path ->
        let sink = Obs.Sink.create () in
        Obs.set_sink (Some sink);
        each (fun side a -> Attrib.emit_counters ~side a);
        Obs.set_sink None;
        write_file path (Obs.Trace_export.to_json sink);
        Printf.eprintf "paratime: attribution trace written to %s\n%!" path
    | None -> ()
  in
  let run source mode_arg cores gap trace_out csv_out =
    if cores < 1 || cores > 4 then die "--cores must be in 1..4";
    if mode_arg = "all" then run_all source cores gap trace_out csv_out
    else
    let mode =
      match Core.Mode.of_string mode_arg with
      | Ok m -> m
      | Error msg -> die "%s; or \"all\" for the whole sweep" msg
    in
    let ((program, _) as task) = load source in
    let pack = Server_lib.Modes.pack ~cores task in
    let analysis, observed =
      match
        Server_lib.Modes.analyze_mode ~mode ~kind:Server_lib.Modes.Wcet pack
      with
      | Error msg -> die "%s" msg
      | Ok e -> (
          match observed_attribution ~pack ~program mode with
          | Ok o -> (e.Store.Entry.attrib, o)
          | Error msg ->
              Printf.eprintf "%s\n" msg;
              exit 1)
    in
    print_string (Attrib.render analysis);
    (match observed with
    | Some o when gap ->
        print_newline ();
        print_string (Attrib.render o);
        print_newline ();
        print_string (Attrib.render_gap (Attrib.gap ~analysis ~observed:o))
    | Some o ->
        Printf.printf "\nobserved: %d cycles (pass --gap for the breakdown)\n"
          o.Attrib.bound
    | None ->
        print_string
          "\nmode dynamic is analysis-only: no simulated side, no gap\n");
    (match csv_out with
    | Some path ->
        let b = Buffer.create 2048 in
        Buffer.add_string b Attrib.csv_header;
        Buffer.add_string b (Attrib.csv_rows ~side:"analysis" analysis);
        Option.iter
          (fun o ->
            Buffer.add_string b (Attrib.csv_rows ~side:"observed" o);
            Buffer.add_string b
              (Attrib.gap_csv_rows (Attrib.gap ~analysis ~observed:o)))
          observed;
        write_file path (Buffer.contents b);
        Printf.eprintf "paratime: attribution CSV written to %s\n%!" path
    | None -> ());
    match trace_out with
    | Some path ->
        let sink = Obs.Sink.create () in
        Obs.set_sink (Some sink);
        Attrib.emit_counters ~side:"analysis" analysis;
        Option.iter (fun o -> Attrib.emit_counters ~side:"observed" o) observed;
        Obs.set_sink None;
        write_file path (Obs.Trace_export.to_json sink);
        Printf.eprintf "paratime: attribution trace written to %s\n%!" path
    | None -> ()
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let mode =
    Arg.(
      value & opt string "solo"
      & info [ "mode"; "m" ] ~docv:"MODE"
          ~doc:
            "Approach mode: solo, oblivious, joint, bypass, columnized, \
             bankized, locked, dynamic — or $(b,all) for a per-mode summary \
             table over every mode, analyzed from one shared context.")
  in
  let cores =
    Arg.(
      value & opt int 2
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Core count for the contended modes (1-4, default 2); co-runner \
             cores execute the same task.")
  in
  let gap =
    Arg.(
      value & flag
      & info [ "gap" ]
          ~doc:
            "Also print the observed attribution and the per-category \
             analysis-minus-observed gap; with $(b,--mode all), a per-mode \
             gap table (dynamic locking stays analytic-only).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Export the attribution as Chrome-trace counter tracks.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the per-block attribution (and gap) CSV into $(docv).")
  in
  Cmd.v
    (Cmd.info "attribute"
       ~doc:
         "Decompose a WCET bound into per-block, per-category cycle budgets \
          and compare against the simulator's observed attribution")
    Term.(const run $ source $ mode $ cores $ gap $ trace_out $ csv_out)

(* ---------------- report ---------------- *)

let report_cmd =
  let run source with_l2 dot proc =
    let program, annot = load source in
    let platform = Core.Platform.single_core ?l2:(l2_of_flag with_l2) () in
    match Core.Wcet.analyze ~annot platform program with
    | exception Core.Wcet.Not_analysable msg ->
        Printf.eprintf "not analysable: %s\n" msg;
        exit 1
    | a -> (
        let unknown p =
          die "unknown procedure %S; known procedures: %s" p
            (String.concat ", " (List.map fst a.Core.Wcet.procs))
        in
        match (dot, proc) with
        | Some p, _ -> (
            match Core.Report.dot_of_proc a p with
            | s -> print_string s
            | exception Not_found -> unknown p)
        | None, Some p -> (
            match Core.Report.render_proc a p with
            | s -> print_string s
            | exception Not_found -> unknown p)
        | None, None -> print_string (Core.Report.render a))
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let with_l2 =
    Arg.(value & flag & info [ "l2" ] ~doc:"Add a 64x4x16 private L2.")
  in
  let dot =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PROC"
          ~doc:"Graphviz CFG of one procedure, cost/count annotated.")
  in
  let proc =
    Arg.(
      value
      & opt (some string) None
      & info [ "proc" ] ~docv:"PROC" ~doc:"Report for one procedure only.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the full analysis report, one procedure's section, or a \
          procedure's annotated CFG in Graphviz dot")
    Term.(const run $ source $ with_l2 $ dot $ proc)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let run source with_l2 jobs_flag refine out csv_out =
    let program, annot = load source in
    let platform = Core.Platform.single_core ?l2:(l2_of_flag with_l2) () in
    let sink = Obs.Sink.create () in
    Obs.set_sink (Some sink);
    (* Results cross domains through refs: the pool joins its workers
       before [run] returns, which orders these writes before the reads
       below. *)
    let wcet = ref None and bcet = ref None and sim = ref None in
    let jobs =
      [
        (* both bound sides share one mode-invariant front end; a
           context is not domain-safe, so they ride in one job *)
        Engine.Pool.job ~label:"bounds" (fun _ ->
            let ctx = Core.Context.of_platform ~annot platform program in
            wcet :=
              Some
                (Core.Wcet.analyze_with
                   ?refine:(refine_of_flag refine)
                   ~ctx platform);
            bcet := Some (Core.Bcet.analyze_with ~ctx platform));
        Engine.Pool.job ~label:"sim" (fun _ ->
            sim :=
              Some
                (Sim.Machine.run_single (Core.Platform.machine platform)
                   program ()));
      ]
    in
    let workers =
      max 1
        (match jobs_flag with
        | Some n -> n
        | None -> (
            match workers_from_env () with
            | Some n -> n
            | None -> Engine.Pool.default_workers ()))
    in
    let outcomes = Engine.Pool.run ~workers jobs in
    Obs.set_sink None;
    write_file out (Obs.Trace_export.to_json sink);
    (match csv_out with
    | Some path -> write_file path (Obs.Csv_export.to_csv sink)
    | None -> ());
    let events =
      List.fold_left
        (fun acc tr -> acc + List.length (Obs.Sink.events tr))
        0 (Obs.Sink.tracks sink)
    in
    Printf.printf "trace: %d events on %d tracks -> %s\n" events
      (List.length (Obs.Sink.tracks sink))
      out;
    (match !wcet with
    | Some a ->
        Printf.printf "WCET bound: %d cycles\n" a.Core.Wcet.wcet;
        Option.iter
          (fun u ->
            Printf.printf "unrefined bound: %d cycles\n" u)
          a.Core.Wcet.unrefined_wcet
    | None -> ());
    (match !bcet with
    | Some b -> Printf.printf "BCET bound: %d cycles\n" b.Core.Bcet.bcet
    | None -> ());
    (match !sim with
    | Some r -> Printf.printf "simulated:  %d cycles\n" r.Sim.Machine.cycles
    | None -> ());
    let failed = ref false in
    List.iter
      (function
        | Engine.Pool.Done () -> ()
        | Engine.Pool.Failed { label; error } ->
            failed := true;
            Printf.eprintf "trace: %s failed: %s\n" label error
        | Engine.Pool.Timed_out { label; _ } ->
            failed := true;
            Printf.eprintf "trace: %s timed out\n" label)
      outcomes;
    if !failed then exit 1
  in
  let source =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"SOURCE" ~doc:"Assembly file or bench:NAME.")
  in
  let with_l2 =
    Arg.(value & flag & info [ "l2" ] ~doc:"Add a 64x4x16 private L2.")
  in
  let jobs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let out =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Chrome trace_event JSON output (load in chrome://tracing or \
             Perfetto).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Also export the flat CSV (spans and metrics) into $(docv).")
  in
  let refine =
    Arg.(
      value & flag
      & info [ "refine" ]
          ~doc:
            "Run the WCET side with infeasible-path refinement, so the \
             trace carries the $(i,refine) span and counter tracks (one \
             refine.iteration span and one refine.cuts counter per \
             injected cut).")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run WCET + BCET analysis and a simulation of one task under the \
          tracer and export the merged trace")
    Term.(const run $ source $ with_l2 $ jobs_flag $ refine $ out $ csv_out)

(* ---------------- benchmarks ---------------- *)

let benchmarks_cmd =
  let run () =
    List.iter
      (fun (b : Workloads.Bench_programs.t) ->
        Printf.printf "%-14s %4d instrs  %s\n" b.Workloads.Bench_programs.name
          (Isa.Program.length b.Workloads.Bench_programs.program)
          b.Workloads.Bench_programs.description)
      (Workloads.Bench_programs.suite ())
  in
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the bundled benchmark suite")
    Term.(const run $ const ())

(* ---------------- serve ---------------- *)

let serve_cmd =
  let run port jobs_flag queue store_root budget_mb mem_capacity trace_out
      csv_out trace_sample slow_ms flight_dir =
    let workers =
      match jobs_flag with Some n -> Some (max 1 n) | None -> workers_from_env ()
    in
    let config =
      {
        Server_lib.Server.port;
        workers;
        queue_capacity = max 0 queue;
        store_root;
        budget_bytes = max 4096 (budget_mb * 1024 * 1024);
        mem_capacity = max 1 mem_capacity;
        trace_sample = max 0 trace_sample;
        slow_ms;
        flight_dir;
      }
    in
    (* [Server.run] installs the sink for the serving window; it stays
       around afterwards for the optional trace export *)
    let sink = Obs.Sink.create () in
    let ready port =
      Printf.printf "paratime: serving on 127.0.0.1:%d%s\n%!" port
        (match store_root with
        | Some root -> Printf.sprintf " (store %s)" root
        | None -> " (in-memory store)")
    in
    Server_lib.Server.run ~ready ~sink config;
    Option.iter
      (fun path ->
        write_file path (Obs.Trace_export.to_json sink);
        Printf.eprintf "paratime: trace written to %s\n%!" path)
      trace_out;
    Option.iter
      (fun path ->
        write_file path (Obs.Csv_export.to_csv sink);
        Printf.eprintf "paratime: trace CSV written to %s\n%!" path)
      csv_out;
    Printf.printf "paratime: server stopped\n%!"
  in
  let port =
    Arg.(
      value & opt int 7421
      & info [ "p"; "port" ] ~docv:"PORT"
          ~doc:"Listening port on 127.0.0.1 (0 = ephemeral, default 7421).")
  in
  let jobs_flag =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Analysis worker domains (default: \\$(b,PARATIME_WORKERS) or \
             the domain count).")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Cold-analysis queue capacity; a full queue answers \
             $(b,busy) (default 64).")
  in
  let store_root =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persist results in a content-addressed store under $(docv); \
             omitted = in-memory only.")
  in
  let budget_mb =
    Arg.(
      value & opt int 64
      & info [ "budget-mb" ] ~docv:"MB"
          ~doc:"On-disk store byte budget; LRU-evicted above it (default 64).")
  in
  let mem_capacity =
    Arg.(
      value & opt int 512
      & info [ "mem-capacity" ] ~docv:"N"
          ~doc:"In-memory result-cache entries (default 512).")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Chrome trace_event JSON of the serving run, written at exit.")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE" ~doc:"Flat CSV trace, written at exit.")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Keep the span tree of 1-in-$(docv) cold requests (errors and \
             slow requests are always kept); 0 (default) disables request \
             tracing unless $(b,--flight-dir) is set.")
  in
  let slow_ms =
    Arg.(
      value & opt int 250
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-request threshold: at or above it a traced request is \
             always kept and dumped to the flight recorder (default 250; 0 \
             = every request, negative = never).")
  in
  let flight_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Bounded flight-recorder directory for slow-request span-tree \
             dumps (oldest pruned beyond 64 files).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the analysis service: line-delimited JSON over loopback TCP, \
          warm answers from the result store, cold analyses on a persistent \
          worker-domain pool with backpressure")
    Term.(
      const run $ port $ jobs_flag $ queue $ store_root $ budget_mb
      $ mem_capacity $ trace_out $ csv_out $ trace_sample $ slow_ms
      $ flight_dir)

(* ---------------- loadtest ---------------- *)

let loadtest_cmd =
  let run host port requests connections repeat working_set modes_s cores
      kind_s seed shutdown json_out scrape =
    let modes =
      if modes_s = "all" then Core.Mode.all
      else
        List.map
          (fun s ->
            match Core.Mode.of_string (String.trim s) with
            | Ok m -> m
            | Error msg -> die "%s" msg)
          (String.split_on_char ',' modes_s)
    in
    let kind =
      match Server_lib.Modes.kind_of_string kind_s with
      | Ok k -> k
      | Error msg -> die "%s" msg
    in
    if cores < 1 || cores > 4 then die "cores %d out of range 1..4" cores;
    let config =
      {
        Server_lib.Loadtest.host;
        port;
        requests;
        connections;
        repeat_ratio = repeat;
        working_set;
        modes;
        cores;
        kind;
        seed;
        shutdown_after = shutdown;
        scrape;
      }
    in
    match Server_lib.Loadtest.run config with
    | Error msg -> die "%s" msg
    | Ok report ->
        print_string (Server_lib.Loadtest.render report);
        Option.iter
          (fun path ->
            write_file path
              (Server_lib.Json.to_string
                 (Server_lib.Loadtest.report_json report)))
          json_out;
        if report.Server_lib.Loadtest.errors > 0 then exit 1
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server host (default 127.0.0.1).")
  in
  let port =
    Arg.(
      value & opt int 7421
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port (default 7421).")
  in
  let requests =
    Arg.(
      value & opt int 200
      & info [ "n"; "requests" ] ~docv:"N"
          ~doc:"Total requests across all connections (default 200).")
  in
  let connections =
    Arg.(
      value & opt int 8
      & info [ "c"; "connections" ] ~docv:"N"
          ~doc:"Concurrent client connections (default 8).")
  in
  let repeat =
    Arg.(
      value & opt float 0.8
      & info [ "repeat" ] ~docv:"R"
          ~doc:
            "Fraction of requests that repeat a catalog benchmark (cache \
             hits); the rest ship freshly generated programs inline \
             (default 0.8).")
  in
  let working_set =
    Arg.(
      value & opt int 4
      & info [ "working-set" ] ~docv:"N"
          ~doc:
            "How many catalog benchmarks the repeated mix draws from \
             (default 4).")
  in
  let modes_s =
    Arg.(
      value & opt string "all"
      & info [ "mode" ] ~docv:"MODES"
          ~doc:
            "Comma-separated approach-mode rotation, or $(b,all) (default) \
             for all eight.")
  in
  let cores =
    Arg.(
      value & opt int 2
      & info [ "cores" ] ~docv:"N"
          ~doc:"Core count for the contended modes (1-4, default 2).")
  in
  let kind_s =
    Arg.(
      value & opt string "wcet"
      & info [ "kind" ] ~docv:"KIND" ~doc:"wcet (default) or bcet (solo only).")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N" ~doc:"Workload seed (default 42).")
  in
  let shutdown =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Send a shutdown request when done.")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the report as JSON to $(docv).")
  in
  let scrape =
    Arg.(
      value & flag
      & info [ "scrape" ]
          ~doc:
            "Snapshot server metrics before and after the run and include \
             the delta in the report (and under $(b,server) in \
             $(b,--json)).")
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Drive a running paratime server with a repeated/fresh request mix \
          and report p50/p99 latency per outcome plus the cache hit-rate \
          curve")
    Term.(
      const run $ host $ port $ requests $ connections $ repeat $ working_set
      $ modes_s $ cores $ kind_s $ seed $ shutdown $ json_out $ scrape)

(* ---------------- top ---------------- *)

let top_cmd =
  let run addr host port interval_ms count no_clear =
    let host, port =
      match addr with
      | None -> (host, port)
      | Some a -> (
          (* HOST:PORT, bare HOST, or bare PORT *)
          match String.rindex_opt a ':' with
          | Some i -> (
              let h = String.sub a 0 i in
              let p = String.sub a (i + 1) (String.length a - i - 1) in
              match int_of_string_opt p with
              | Some p when h <> "" -> (h, p)
              | _ -> die "bad address %S (expected HOST:PORT)" a)
          | None -> (
              match int_of_string_opt a with
              | Some p -> (host, p)
              | None -> (a, port)))
    in
    let clear = (not no_clear) && (count <> 1 && Unix.isatty Unix.stdout) in
    let config =
      { Server_lib.Top.host; port; interval_ms = max 50 interval_ms; count; clear }
    in
    match Server_lib.Top.run config with
    | Ok () -> ()
    | Error msg -> die "%s" msg
  in
  let addr =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"ADDR"
          ~doc:
            "Server address as HOST:PORT (also accepts a bare host or a bare \
             port); overrides $(b,--host)/$(b,--port).")
  in
  let host =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"HOST" ~doc:"Server host (default 127.0.0.1).")
  in
  let port =
    Arg.(
      value & opt int 7421
      & info [ "p"; "port" ] ~docv:"PORT" ~doc:"Server port (default 7421).")
  in
  let interval_ms =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS"
          ~doc:"Refresh interval in milliseconds (default 1000, min 50).")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:
            "Render $(docv) frames then exit; 0 (default) runs until the \
             server goes away.")
  in
  let no_clear =
    Arg.(
      value & flag
      & info [ "no-clear" ]
          ~doc:"Append frames instead of clearing the screen between them.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Watch a running paratime server: req/s by outcome, interval \
          p50/p99, queue depth, store hit rate — all from metrics scrape \
          deltas")
    Term.(const run $ addr $ host $ port $ interval_ms $ count $ no_clear)

let () =
  let doc = "static WCET analysis for parallel architectures" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "paratime" ~version:"1.0.0" ~doc)
          [
            analyze_cmd;
            simulate_cmd;
            multicore_cmd;
            batch_cmd;
            fuzz_cmd;
            attribute_cmd;
            report_cmd;
            trace_cmd;
            cfg_cmd;
            serve_cmd;
            loadtest_cmd;
            top_cmd;
            benchmarks_cmd;
          ]))
