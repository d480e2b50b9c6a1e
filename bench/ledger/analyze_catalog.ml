(* analyze_catalog: the CLI's [paratime analyze bench:X --mode all
   --cores 2] and [--mode M], as a closed loop over the catalog on one
   domain.  Each pass visits every catalog program in a seed-shuffled
   order; each visit makes one 8-mode sweep ([Modes.analyze_all]) and
   then the eight single-mode analyses ([Modes.analyze]) in a
   seed-shuffled order.  Every pass therefore does the same work
   whatever the seed.  Only the analysis layers work here: store,
   server and simulator do nothing, so a change to those must leave
   this workload unchanged. *)

open Common
open Ledger_lib
module B = Workloads.Bench_programs
module M = Server_lib.Modes
module O = Fuzz.Oracle
module MC = Core.Multicore

let cores = Golden.cores

type prog = {
  name : string;
  task : Isa.Program.t * Dataflow.Annot.t;
  bounds : (O.mode * int) list;  (** golden WCET per mode *)
}

(* Work counts of the calling domain.  Every pass does the same work,
   so their per-pass deltas must repeat exactly: a difference means
   some cache survived from one pass into the next. *)
let count_names =
  [
    "lp.pivots";
    "lp.ilp_nodes";
    "dataflow.worklist_pops";
    "dataflow.transfers";
    "cache.fixpoint_iterations";
  ]

let counts () =
  [
    Lp.Simplex.pivots ();
    Lp.Ilp.nodes_explored ();
    Dataflow.Worklist.pops ();
    Dataflow.Worklist.transfers ();
    Cache.Analysis.fixpoint_iterations ();
  ]

let check p mode r =
  let name = O.mode_name mode in
  match (r, List.assoc_opt mode p.bounds) with
  | Ok (e : Store.Entry.t), Some w when e.Store.Entry.bound = w -> ()
  | Ok e, Some w ->
      fail "analyze %s/%s: bound %d, golden %d" p.name name e.Store.Entry.bound
        w
  | Ok _, None -> fail "analyze %s/%s: not in the golden file" p.name name
  | Error msg, _ -> fail "analyze %s/%s failed: %s" p.name name msg

(* The catalog with its golden bounds; the store keys must match too. *)
let programs cfg =
  let golden = Golden.load cfg.golden in
  Array.of_list
    (List.map
       (fun (b : B.t) ->
         let bounds =
           List.filter_map
             (fun mode ->
               let name = O.mode_name mode in
               match Golden.find golden ~program:b.B.name ~mode:name with
               | None ->
                   fail "golden file lacks %s/%s" b.B.name name;
                   None
               | Some (w, key) ->
                   let k =
                     M.store_key ~mode ~cores ~kind:M.Wcet b.B.annot
                       b.B.program
                   in
                   if k <> key then
                     fail "store key of %s/%s: %s, golden %s" b.B.name name k
                       key;
                   Some (mode, w))
             O.all_modes
         in
         { name = b.B.name; task = (b.B.program, b.B.annot); bounds })
       (B.suite ()))

(* One visit: the sweep, then every single mode in a seeded order.
   Returns the sweep latency and the single-mode latencies, on the CPU
   clock. *)
let visit ~sweep ~single rng p =
  let t0 = cpu_ms () in
  let all = sweep p in
  let sweep_ms = cpu_ms () -. t0 in
  List.iter (fun (m, r) -> check p m r) all;
  let modes = Array.of_list O.all_modes in
  shuffle rng modes;
  let singles =
    Array.map
      (fun mode ->
        let t0 = cpu_ms () in
        let r = single p mode in
        let ms = cpu_ms () -. t0 in
        check p mode r;
        ms)
      modes
  in
  attempted := !attempted + 1 + Array.length modes;
  (sweep_ms, Array.to_list singles)

(* The real calls, as the CLI makes them. *)
let real_sweep p = M.analyze_all ~cores ~kind:M.Wcet p.task
let real_single p mode = M.analyze ~mode ~cores ~kind:M.Wcet p.task

(* ---- the traced replay: analyze_all split into its parts ----

   The single-mode call stays whole: without prebuilt contexts it builds
   one per core slot (and more for locking), so no split into context
   and back end would do the same work. *)

let solo_platform () =
  Core.Platform.single_core
    ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
    ()

let system task = MC.default_system ~cores ~tasks:(Array.make cores (Some task))

(* One mode's back end over prebuilt contexts, as [Modes] runs it. *)
let backend ~ctxs ~solo_ctx task mode =
  Obs.span ~cat:"ledger" ("core.backend." ^ O.mode_name mode) @@ fun () ->
  let of_core0 r =
    match r.(0) with
    | Some w -> Ok (Store.Entry.of_wcet w)
    | None -> Error "no analysis result for core 0"
  in
  let sys = system task in
  match
    match mode with
    | O.Solo ->
        Ok
          (Store.Entry.of_wcet
             (Core.Wcet.analyze_with ~ctx:solo_ctx (solo_platform ())))
    | O.Oblivious -> of_core0 (MC.analyze_oblivious ~ctxs sys)
    | O.Joint -> of_core0 (MC.analyze_joint ~ctxs sys ())
    | O.Bypass -> of_core0 (MC.analyze_joint ~ctxs sys ~bypass:true ())
    | O.Columnized ->
        of_core0
          (MC.analyze_partitioned ~ctxs sys
             ~scheme:Cache.Partition.Columnization)
    | O.Bankized ->
        of_core0
          (MC.analyze_partitioned ~ctxs sys
             ~scheme:Cache.Partition.Bankization)
    | O.Locked -> of_core0 (MC.analyze_locked ~ctxs sys)
    | O.Dynamic -> of_core0 (MC.analyze_locked_dynamic ~ctxs sys)
  with
  | r -> r
  | exception Core.Wcet.Not_analysable msg -> Error ("not analysable: " ^ msg)

let replay_sweep p =
  let program, annot = p.task in
  let context f = Obs.span ~cat:"ledger" "core.context" f in
  let ctxs = context (fun () -> MC.contexts (system p.task)) in
  let solo_ctx =
    context (fun () ->
        Core.Context.of_platform ~annot (solo_platform ()) program)
  in
  List.map (fun m -> (m, backend ~ctxs ~solo_ctx p.task m)) O.all_modes

let traced_single p mode =
  Obs.span ~cat:"ledger" "core.one" (fun () -> real_single p mode)

(* The replay must compute exactly what the real sweep computes. *)
let check_replay p =
  List.iter2
    (fun (m, real) (_, parts) ->
      let same =
        match (real, parts) with
        | Ok x, Ok y -> Store.Entry.equal x y
        | Error x, Error y -> x = y
        | _ -> false
      in
      if not same then
        fail "replayed %s/%s differs from Modes.analyze_all" p.name
          (O.mode_name m))
    (real_sweep p) (replay_sweep p)

(* ---- passes ---- *)

type pass = {
  wall_ms : float;
  pass_cpu_ms : float;
  sweep_ms : (string * float) list;  (** per program *)
  single_ms : float list;
  work : int list;  (** per-pass deltas of [counts] *)
  minor_mw : float;
  major_mw : float;
}

let pass ?(sweep = real_sweep) ?(single = real_single) rng progs =
  let order = Array.copy progs in
  shuffle rng order;
  let c0 = counts () and mi0, ma0 = gc_mwords () in
  let t0 = now_ns () and cpu0 = cpu_ms () in
  let lat = Array.map (fun p -> (p.name, visit ~sweep ~single rng p)) order in
  let wall_ms = ms_since t0 and pass_cpu_ms = cpu_ms () -. cpu0 in
  let mi1, ma1 = gc_mwords () in
  {
    wall_ms;
    pass_cpu_ms;
    sweep_ms =
      Array.to_list (Array.map (fun (name, (ms, _)) -> (name, ms)) lat);
    single_ms = List.concat_map (fun (_, (_, ms)) -> ms) (Array.to_list lat);
    work = List.map2 ( - ) (counts ()) c0;
    minor_mw = mi1 -. mi0;
    major_mw = ma1 -. ma0;
  }

let check_work ~reference p =
  if p.work <> reference then
    fail "per-pass work counts changed between passes: [%s] vs [%s]"
      (String.concat ";" (List.map string_of_int p.work))
      (String.concat ";" (List.map string_of_int reference))

(* Set-up: load the catalog and golden file and run one untimed pass
   whose work counts every later pass must repeat.  Returns the set-up
   times (at nominal speed), the programs, the rng and those counts. *)
let set_up cfg =
  let reps =
    paced_loop ~seconds:0. ~min:(setup_reps cfg) (fun _ ->
        let t0 = now_ns () in
        let rng = Fuzz.Rng.create ~seed:cfg.seed in
        let progs = programs cfg in
        let warm = pass rng progs in
        (ms_since t0 /. 1000., progs, rng, warm.work))
  in
  let (_, progs, rng, work), _ = List.nth reps (List.length reps - 1) in
  (List.map (fun ((s, _, _, _), speed) -> s *. speed) reps, progs, rng, work)

(* Passes with the host speed over each, on the CPU clock. *)
let measure ~seconds ~reference f =
  paced_loop ~clock:cpu_ms ~seconds (fun _ ->
      let p = f () in
      check_work ~reference p;
      p)

(* Latencies of the passes, at nominal speed. *)
let scaled field passes =
  List.concat_map
    (fun (p, speed) -> List.map (fun x -> x *. speed) (field p))
    passes

let run cfg =
  let setup_s, progs, rng, reference = set_up cfg in
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let passes = measure ~seconds ~reference (fun () -> pass rng progs) in
  let sweep =
    sorted_of_list (scaled (fun p -> List.map snd p.sweep_ms) passes)
  in
  let single = sorted_of_list (scaled (fun p -> p.single_ms) passes) in
  let n_sweep = Array.length sweep and n_single = Array.length single in
  let q, tail = Stats.tail ~q:0.99 sweep in
  let visits = float_of_int (Array.length progs) in
  let visits_per_s =
    median_of
      (List.map
         (fun (p, speed) -> visits /. p.pass_cpu_ms *. 1000. /. speed)
         passes)
  in
  emit ~n:(List.length setup_s) "setup_s" "s" (median_of setup_s);
  emit ~n:n_sweep "analyze.all_p50_ms" "ms" (Stats.median sweep);
  emit ~n:n_sweep (Printf.sprintf "analyze.all_p%g_ms" (100. *. q)) "ms" tail;
  emit ~n:n_single "analyze.one_p50_ms" "ms" (Stats.median single);
  emit "peak_rss_mb" "MiB" (vmhwm_mb None);
  (* the catalog's mean sweep latency per pass: its median over the
     passes moves smoothly, where the median sweep jumps from one
     program's latency to the next *)
  let mean_sweep =
    median_of
      (List.map
         (fun (p, speed) ->
           speed
           *. List.fold_left (fun a (_, ms) -> a +. ms) 0. p.sweep_ms
           /. float_of_int (List.length p.sweep_ms))
         passes)
  in
  (* the slowest program's median sweep: a high percentile of the
     pooled sweeps falls inside that one program's samples and follows
     every short stall of the host *)
  let slowest =
    Array.fold_left
      (fun acc prog ->
        Float.max acc
          (median_of
             (List.map
                (fun (p, speed) -> speed *. List.assoc prog.name p.sweep_ms)
                passes)))
      0. progs
  in
  emit ~n:(List.length passes) "latency_ms" "ms" mean_sweep;
  emit ~n:(List.length passes) "tail_ms" "ms" slowest;
  emit ~n:(List.length passes) "throughput_per_s" "1/s" visits_per_s

(* Traced run: an untraced third for the reference latency and GC, then
   traced passes of the replay under a fresh sink each. *)
let run_traced cfg =
  let _, progs, rng, reference = set_up cfg in
  Array.iter check_replay progs;
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let plain =
    measure ~seconds:(seconds /. 3.) ~reference (fun () -> pass rng progs)
  in
  let spans = Spans.create () in
  let traced =
    measure ~seconds:(seconds *. 2. /. 3.) ~reference (fun () ->
        let sink = Obs.Sink.create ~track_capacity:(1 lsl 19) () in
        let p =
          Obs.with_sink sink (fun () ->
              pass ~sweep:replay_sweep ~single:traced_single rng progs)
        in
        List.iter
          (fun tr ->
            if Obs.Sink.dropped tr > 0 then
              fail "trace ring overflowed (%d events dropped)"
                (Obs.Sink.dropped tr))
          (Obs.Sink.tracks sink);
        Spans.add_sink spans sink;
        p)
  in
  let n = float_of_int (List.length traced) in
  let per_pass_ms ns = float_of_int ns /. 1e6 /. n in
  let wall = List.fold_left (fun a (p, _) -> a +. p.wall_ms) 0. traced in
  emit ~n:(List.length traced) "residual_ms" "ms"
    (Stats.residual ~whole:(wall /. n)
       [ per_pass_ms (Spans.covered_ns spans) ]);
  let p50 passes =
    median_of (scaled (fun p -> List.map snd p.sweep_ms) passes)
  in
  emit "trace_overhead" "ratio" (p50 traced /. p50 plain);
  emit "core.context_ms" "ms"
    (per_pass_ms (Spans.total_ns spans "core.context"));
  emit "core.one_ms" "ms" (per_pass_ms (Spans.total_ns spans "core.one"));
  List.iter
    (fun m ->
      emit ("core.backend_ms." ^ m) "ms"
        (per_pass_ms (Spans.total_ns spans ("core.backend." ^ m))))
    Names.mode_names;
  List.iter2
    (fun name v -> emit name "count" (float_of_int v))
    count_names reference;
  emit ~n:(List.length plain) "gc.minor_mwords" "Mword"
    (median_of (List.map (fun (p, _) -> p.minor_mw) plain));
  emit ~n:(List.length plain) "gc.major_mwords" "Mword"
    (median_of (List.map (fun (p, _) -> p.major_mw) plain));
  List.iter
    (fun name ->
      emit (Names.span_metric name) "ms"
        (per_pass_ms (Spans.self_ns spans name)))
    Names.span_names
