(* fuzz_campaign: what [paratime fuzz --count 64 --cores 2 -j 2] runs,
   chunk after chunk, each with its own seed and a fresh result memo.
   The only workload that spreads work over Engine.Pool domains and
   uses Core.Memo; its programs are small, so per-program fixed costs
   dominate.  The campaign's own oracle (simulated cycles between the
   BCET and WCET bounds) is the correctness check. *)

open Common
open Ledger_lib

let count = 64
let workers = 2

let chunk_seed cfg k = (cfg.seed * 1000) + k

(* One campaign, timed; any violation or error is a failure. *)
let campaign ~seed ~count =
  let memo = Core.Memo.create ~capacity:512 () in
  let t0 = now_ns () in
  let c =
    Fuzz.Oracle.run_campaign ~seed ~count ~cores:Golden.cores ~workers ~memo ()
  in
  let wall = ms_since t0 in
  let r = c.Fuzz.Oracle.report in
  List.iter
    (fun (v : Fuzz.Oracle.violation) ->
      fail "fuzz seed %d: %s/%s on %s: %s" seed
        (Fuzz.Oracle.mode_name v.Fuzz.Oracle.v_mode)
        v.Fuzz.Oracle.v_shape v.Fuzz.Oracle.v_task v.Fuzz.Oracle.reason)
    r.Fuzz.Oracle.violations;
  List.iter (fun e -> fail "fuzz seed %d: %s" seed e) r.Fuzz.Oracle.errors;
  attempted := !attempted + count;
  (wall, c)

let chunk cfg k = campaign ~seed:(chunk_seed cfg k) ~count

(* Set-up: one smaller warm-up campaign (domains spawned, heap grown). *)
let set_up cfg =
  List.map
    (fun ((wall, _), speed) -> wall /. 1000. *. speed)
    (paced_loop ~seconds:0. ~min:(setup_reps cfg) (fun _ ->
         campaign ~seed:(chunk_seed cfg 999) ~count:16))

(* Chunk walls at nominal speed, with each chunk's peak resident set.
   Each chunk stands for one [paratime fuzz] process: the heap the
   previous chunk left behind is collected (untimed) and the peak is
   restarted before the next one. *)
let measure cfg ~seconds ~first f =
  let min = if cfg.smoke && not cfg.trace then 2 else 1 in
  List.map
    (fun ((wall, rss), speed) -> (wall *. speed, rss))
    (paced_loop ~seconds ~min (fun k ->
         Gc.full_major ();
         reset_peak_rss ();
         let wall = f (first + k) in
         (wall, vmhwm_mb None)))

let programs_per_s walls =
  median_of (List.map (fun w -> float_of_int count /. w *. 1000.) walls)

let run cfg =
  let setup_s = set_up cfg in
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let chunks = measure cfg ~seconds ~first:0 (fun k -> fst (chunk cfg k)) in
  let walls = List.map fst chunks in
  let sorted = sorted_of_list walls in
  let n = Array.length sorted in
  let rate = programs_per_s walls in
  emit ~n:(List.length setup_s) "setup_s" "s" (median_of setup_s);
  emit ~n "fuzz.programs_per_s" "1/s" rate;
  emit ~n "peak_rss_mb" "MiB" (median_of (List.map snd chunks));
  emit ~n "latency_ms" "ms" (Stats.median sorted);
  emit ~n "tail_ms" "ms" (snd (Stats.tail ~q:0.75 sorted));
  emit ~n "throughput_per_s" "1/s" rate

let work_names =
  [
    ("lp.pivots", "lp.simplex.pivots");
    ("lp.ilp_nodes", "lp.ilp.nodes");
    ("dataflow.worklist_pops", "dataflow.worklist.pops");
    ("dataflow.transfers", "dataflow.worklist.transfers");
  ]

(* Traced run: untraced chunks for the reference rate, then chunks
   under a fresh sink each.  Pool worker spans ([cat:"pool"]) hold no
   self time of their own: their jobs record on separate tracks.  The
   whole of a chunk is workers x wall; its parts are span self time,
   pool idle time and program generation (timed here). *)
let run_traced cfg =
  ignore (set_up cfg);
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let plain =
    List.map fst
      (measure cfg ~seconds:(seconds /. 3.) ~first:0 (fun k ->
           fst (chunk cfg k)))
  in
  let spans = Spans.create () in
  let sum_hist sink name =
    match Obs.Metrics.hist (Obs.Sink.metrics sink) name with
    | Some s -> float_of_int s.Obs.Histogram.s_sum /. 1e6
    | None -> 0.
  in
  let gen_ms = ref 0. and queue_ms = ref 0. and run_ms = ref 0. in
  let hits = ref 0 and lookups = ref 0 and idle = ref [] in
  let residual = ref 0. and work = Hashtbl.create 4 in
  let traced =
    measure cfg ~seconds:(seconds *. 2. /. 3.) ~first:(List.length plain)
      (fun k ->
        let t0 = now_ns () in
        for i = 0 to count - 1 do
          ignore (Fuzz.Generator.generate ~seed:(chunk_seed cfg k) ~index:i ())
        done;
        let gen = ms_since t0 in
        let sink = Obs.Sink.create () in
        let wall, c = Obs.with_sink sink (fun () -> chunk cfg k) in
        let covered = Spans.covered_ns spans in
        Spans.add_sink ~skip:(fun ~cat -> cat = "pool") spans sink;
        let covered = float_of_int (Spans.covered_ns spans - covered) /. 1e6 in
        let run = sum_hist sink "pool.run_ns" in
        let capacity = float_of_int workers *. wall in
        gen_ms := !gen_ms +. gen;
        queue_ms := !queue_ms +. sum_hist sink "pool.queue_wait_ns";
        run_ms := !run_ms +. run;
        idle := ((capacity -. run) /. capacity) :: !idle;
        residual :=
          !residual
          +. Stats.residual ~whole:capacity [ covered; capacity -. run; gen ];
        List.iter
          (fun (name, counter) ->
            Hashtbl.replace work name
              (Obs.Metrics.counter (Obs.Sink.metrics sink) counter
              + Option.value ~default:0 (Hashtbl.find_opt work name)))
          work_names;
        (match c.Fuzz.Oracle.memo_stats with
        | Some s ->
            hits := !hits + s.Engine.Lru.hits;
            lookups := !lookups + s.Engine.Lru.hits + s.Engine.Lru.misses
        | None -> ());
        List.iter
          (fun tr ->
            if Obs.Sink.dropped tr > 0 then
              fail "trace ring %s overflowed" (Obs.Sink.track_name tr))
          (Obs.Sink.tracks sink);
        wall)
    |> List.map fst
  in
  let n = float_of_int (List.length traced) in
  emit ~n:(List.length traced) "residual_ms" "ms" (!residual /. n);
  emit "trace_overhead" "ratio"
    (programs_per_s plain /. programs_per_s traced);
  emit "fuzz.generate_ms" "ms" (!gen_ms /. n);
  emit "pool.queue_wait_ms" "ms" (!queue_ms /. n);
  emit "pool.run_ms" "ms" (!run_ms /. n);
  emit ~n:(List.length traced) "pool.idle_frac" "ratio" (median_of !idle);
  emit "memo.hit_ratio" "ratio"
    (if !lookups = 0 then 0.
     else float_of_int !hits /. float_of_int !lookups);
  List.iter
    (fun (name, _) ->
      emit name "count" (float_of_int (Hashtbl.find work name) /. n))
    work_names;
  List.iter
    (fun name ->
      emit (Names.span_metric name) "ms"
        (float_of_int (Spans.self_ns spans name) /. 1e6 /. n))
    Names.span_names
