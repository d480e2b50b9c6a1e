(* sim_corpus: the simulator alone.  Sixteen generated programs with
   long, deep loops, paired into 2-core groups, run on the machine
   shapes of the seven simulable approach modes on one domain with the
   block interpreter.  The analyses run only in set-up (bypass lines,
   lock selection), so an analysis change may move setup_s here and
   nothing else.

   The corpus itself is fixed: simulated cycles per second depend so
   much on the program mix that sixteen programs drawn per seed moved
   the rate by a third from seed to seed.  The seed instead chooses
   which programs share a machine and the order the machines run in. *)

open Common
open Ledger_lib
module G = Fuzz.Generator
module MC = Core.Multicore

let programs = 16

let params =
  {
    G.default_params with
    G.max_pieces = 8;
    max_ops = 8;
    max_iters = 48;
    max_depth = 3;
  }

let corpus_seed = 7

(* Generated programs range over four orders of magnitude in length;
   keeping those whose solo run takes [band] cycles keeps any one of
   them from dominating the corpus. *)
let band = (30_000, 150_000)

type machine = {
  mode : string;
  cfg : Sim.Machine.config;
  setups : Sim.Machine.core_setup array;
}

let private_l2 sys =
  {
    (MC.machine_config sys ~l2:(Sim.Machine.Private_l2 [| sys.MC.l2 |])) with
    Sim.Machine.arbiter = Interconnect.Arbiter.Private;
  }

let sliced sys scheme =
  let alloc = Cache.Partition.even_shares scheme sys.MC.l2 ~parts:2 in
  MC.machine_config sys
    ~l2:
      (Sim.Machine.Private_l2
         (Array.init 2 (fun i ->
              Cache.Partition.partition_config sys.MC.l2 alloc ~index:i)))

let setup (g : G.t) =
  {
    (Sim.Machine.task g.G.program) with
    Sim.Machine.init_data = g.G.data_init;
  }

let solo (g : G.t) =
  private_l2
    (MC.default_system ~cores:1 ~tasks:[| Some (g.G.program, g.G.annot) |])

(* The first [programs] generated programs whose solo run halts within
   the band. *)
let corpus () =
  let lo, hi = band in
  let rec go index acc n =
    if n = programs then Array.of_list (List.rev acc)
    else if index >= 100 * programs then
      failwith "sim corpus: too few programs in the band"
    else
      let g = G.generate ~params ~seed:corpus_seed ~index () in
      let r =
        (Sim.Machine.run (solo g) ~cores:[| setup g |] ~max_cycles:hi ()).(0)
      in
      if r.Sim.Machine.halted && r.Sim.Machine.cycles >= lo then
        go (index + 1) (g :: acc) (n + 1)
      else go (index + 1) acc n
  in
  go 0 [] 0

(* The machines the fuzz oracle validates each mode on, in a seeded
   order over seeded pairs. *)
let machines seed =
  let rng = Fuzz.Rng.create ~seed in
  let gens = corpus () in
  shuffle rng gens;
  let pairs =
    List.init (programs / 2) (fun k ->
        let a = gens.(2 * k) and b = gens.((2 * k) + 1) in
        let tasks =
          [| Some (a.G.program, a.G.annot); Some (b.G.program, b.G.annot) |]
        in
        (MC.default_system ~cores:2 ~tasks, a, b))
  in
  let per_pair mode f =
    List.concat_map
      (fun (sys, a, b) ->
        List.map (fun (cfg, setups) -> { mode; cfg; setups }) (f sys a b))
      pairs
  in
  let shared sys =
    MC.machine_config sys ~l2:(Sim.Machine.Shared_l2 sys.MC.l2)
  in
  let bypass sys (g : G.t) =
    let lines = Hashtbl.create 64 in
    List.iter
      (fun l -> Hashtbl.replace lines l ())
      (MC.bypass_lines sys (g.G.program, g.G.annot));
    { (setup g) with Sim.Machine.l2_bypass = Hashtbl.mem lines }
  in
  let all =
    List.map
      (fun g -> { mode = "solo"; cfg = solo g; setups = [| setup g |] })
      (Array.to_list gens)
    @ per_pair "oblivious" (fun sys a b ->
          [ (private_l2 sys, [| setup a |]); (private_l2 sys, [| setup b |]) ])
    @ per_pair "joint" (fun sys a b -> [ (shared sys, [| setup a; setup b |]) ])
    @ per_pair "bypass" (fun sys a b ->
          [ (shared sys, [| bypass sys a; bypass sys b |]) ])
    @ per_pair "columnized" (fun sys a b ->
          let cfg = sliced sys Cache.Partition.Columnization in
          [ (cfg, [| setup a; setup b |]) ])
    @ per_pair "bankized" (fun sys a b ->
          let cfg = sliced sys Cache.Partition.Bankization in
          [ (cfg, [| setup a; setup b |]) ])
    @ per_pair "locked" (fun sys a b ->
          let locked = (MC.static_lock_selection sys).Cache.Locking.locked in
          let lock g =
            { (setup g) with Sim.Machine.locked_l2_lines = locked }
          in
          [ (shared sys, [| lock a; lock b |]) ])
  in
  let all = Array.of_list all in
  shuffle rng all;
  all

(* times on the CPU clock *)
type pass = { pass_ms : float; machine_ms : float array; cycles : int array }

(* One pass; each machine's cycles must equal [reference] (every run is
   deterministic, so any difference is a simulator bug). *)
let pass ?reference machines =
  let machine_ms = Array.make (Array.length machines) 0. in
  let cycles = Array.make (Array.length machines) 0 in
  let t0 = cpu_ms () in
  Array.iteri
    (fun i m ->
      let t = cpu_ms () in
      let r = Sim.Machine.run ~interp:`Block m.cfg ~cores:m.setups () in
      machine_ms.(i) <- cpu_ms () -. t;
      Array.iteri
        (fun c (x : Sim.Machine.core_result) ->
          if not x.Sim.Machine.halted then
            fail "sim %s machine %d: core %d did not halt" m.mode i c;
          cycles.(i) <- cycles.(i) + x.Sim.Machine.cycles)
        r)
    machines;
  let pass_ms = cpu_ms () -. t0 in
  attempted := !attempted + Array.length machines;
  Option.iter
    (fun first ->
      Array.iteri
        (fun i c ->
          if c <> first.(i) then
            fail "sim %s machine %d: %d cycles, first pass %d"
              machines.(i).mode i c first.(i))
        cycles)
    reference;
  { pass_ms; machine_ms; cycles }

(* Set-up: select the corpus, build each mode's machines (bypass
   lines and lock selections come from the analyses) and run one
   untimed pass whose cycle counts every later pass must repeat. *)
let set_up cfg =
  let reps =
    paced_loop ~seconds:0. ~min:(setup_reps cfg) (fun _ ->
        let t0 = now_ns () in
        let machines = machines cfg.seed in
        let first = pass machines in
        (ms_since t0 /. 1000., machines, first.cycles))
  in
  let (_, machines, reference), _ = List.nth reps (List.length reps - 1) in
  (* the block interpreter against the per-instruction reference, every
     field of every core's result *)
  Array.iteri
    (fun i m ->
      let b = Sim.Machine.run ~interp:`Block m.cfg ~cores:m.setups () in
      let r = Sim.Machine.run ~interp:`Reference m.cfg ~cores:m.setups () in
      if b <> r then
        fail "sim %s machine %d: block and reference interpreters differ"
          m.mode i)
    machines;
  (List.map (fun ((s, _, _), speed) -> s *. speed) reps, machines, reference)

(* Passes with the host speed over each, on the CPU clock.  The heap a
   pass leaves behind is collected (untimed) before the next: left to
   the GC's own pacing it slowed passes by up to a fifth for tens of
   seconds at a time. *)
let measure ~seconds machines reference =
  paced_loop ~clock:cpu_ms ~seconds (fun _ ->
      let p = pass ~reference machines in
      Gc.full_major ();
      p)

let total_cycles reference = Array.fold_left ( + ) 0 reference

(* Simulated cycles per second at nominal speed. *)
let cycles_per_s reference passes =
  let cycles = float_of_int (total_cycles reference) in
  median_of
    (List.map (fun (p, speed) -> cycles /. p.pass_ms *. 1000. /. speed) passes)

let run cfg =
  let setup_s, machines, reference = set_up cfg in
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let passes = measure ~seconds machines reference in
  (* latencies per simulated Mcycle, so they do not depend on the
     corpus size *)
  let mcycles = float_of_int (total_cycles reference) /. 1e6 in
  let sorted =
    sorted_of_list
      (List.map (fun (p, speed) -> p.pass_ms *. speed /. mcycles) passes)
  in
  let n = Array.length sorted in
  (* every pass does the same work, so the tail is over the machines:
     the slowest one's median time per simulated Mcycle *)
  let slowest =
    Array.fold_left Float.max 0.
      (Array.mapi
         (fun i cycles ->
           let mcycles = float_of_int cycles /. 1e6 in
           median_of
             (List.map
                (fun (p, speed) -> p.machine_ms.(i) *. speed /. mcycles)
                passes))
         reference)
  in
  let rate = cycles_per_s reference passes in
  emit ~n:(List.length setup_s) "setup_s" "s" (median_of setup_s);
  emit ~n "sim.mcycles_per_s" "Mcycle/s" (rate /. 1e6);
  emit "peak_rss_mb" "MiB" (vmhwm_mb None);
  emit ~n "latency_ms" "ms" (Stats.median sorted);
  emit ~n "tail_ms" "ms" slowest;
  emit ~n "throughput_per_s" "1/s" rate

(* Traced run: untraced passes for the reference rate, then passes
   under a fresh sink each.  The parts are the [Sim.Machine.run] calls,
   timed here and summed per mode. *)
let run_traced cfg =
  let _, machines, reference = set_up cfg in
  let seconds = if cfg.smoke then 0. else cfg.seconds in
  let plain = measure ~seconds:(seconds /. 3.) machines reference in
  let spans = Spans.create () in
  let counters = Hashtbl.create 8 in
  let traced =
    paced_loop ~clock:cpu_ms ~seconds:(seconds *. 2. /. 3.) (fun _ ->
        let sink = Obs.Sink.create () in
        let p = Obs.with_sink sink (fun () -> pass ~reference machines) in
        Spans.add_sink spans sink;
        List.iter
          (function
            | Obs.Metrics.Counter_v (name, v) ->
                Hashtbl.replace counters name
                  (v + Option.value ~default:0 (Hashtbl.find_opt counters name))
            | Obs.Metrics.Gauge_v _ | Obs.Metrics.Hist_v _ -> ())
          (Obs.Metrics.snapshot (Obs.Sink.metrics sink));
        p)
  in
  let n = float_of_int (List.length traced) in
  let per_pass name =
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counters name))
    /. n
  in
  (* total ms and cycles of one mode's machines over the traced passes *)
  let of_mode mode =
    let ms = ref 0. and cycles = ref 0 in
    Array.iteri
      (fun i m ->
        if m.mode = mode then begin
          cycles := !cycles + reference.(i);
          List.iter (fun (p, _) -> ms := !ms +. p.machine_ms.(i)) traced
        end)
      machines;
    (!ms, float_of_int !cycles *. n)
  in
  let wall = List.fold_left (fun a (p, _) -> a +. p.pass_ms) 0. traced in
  emit ~n:(List.length traced) "residual_ms" "ms"
    (Stats.residual ~whole:(wall /. n)
       (List.map (fun m -> fst (of_mode m) /. n) Names.sim_mode_names));
  emit "trace_overhead" "ratio"
    (cycles_per_s reference plain /. cycles_per_s reference traced);
  List.iter
    (fun mode ->
      let ms, cycles = of_mode mode in
      emit ("sim.mcycles_per_s." ^ mode) "Mcycle/s" (cycles /. ms /. 1e3))
    Names.sim_mode_names;
  emit "sim.uops" "count" (per_pass "sim.predecode.uops");
  emit "sim.blocks_dispatched" "count" (per_pass "sim.blocks_dispatched");
  emit "sim.fallback_plans" "count" (per_pass "sim.fallback_plans");
  emit "sim.fallback_frac" "ratio"
    (per_pass "sim.fallback_plans"
    /. Float.max 1. (per_pass "sim.blocks_dispatched"));
  List.iter
    (fun name ->
      emit (Names.span_metric name) "ms"
        (float_of_int (Spans.self_ns spans name) /. 1e6 /. n))
    Names.span_names
