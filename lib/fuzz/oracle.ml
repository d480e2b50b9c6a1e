module P = Core.Platform
module M = Core.Multicore

(* Re-exported for bench/ledger until its benchmark follow-up names
   modes through Core.Mode. *)
type mode = Core.Mode.t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

let all_modes = Core.Mode.all
let mode_name = Core.Mode.name

type interp = [ `Block | `Reference | `Both ]
type engine = [ `Context | `Fresh ]

type check = {
  mode : mode;
  shape : string;
  task : string;
  core : int;
  bcet : int;
  wcet : int;
  unrefined : int option;
  observed : int option;
  a_vec : Pipeline.Cost.Vec.t;
  o_vec : Pipeline.Cost.Vec.t option;
}

type violation = {
  v_mode : mode;
  v_shape : string;
  v_task : string;
  v_core : int;
  reason : string;
  source : string;
}

type report = {
  checks : check list;
  violations : violation list;
  errors : string list;
}

let empty_report = { checks = []; violations = []; errors = [] }

let merge_reports rs =
  {
    checks = List.concat_map (fun r -> r.checks) rs;
    violations = List.concat_map (fun r -> r.violations) rs;
    errors = List.concat_map (fun r -> r.errors) rs;
  }

(* ---- bounds and machines --------------------------------------------- *)

(* With a [ctx], misses run the context back end; without one the fresh
   front-to-back analysis.  Both are bit-identical by contract — the
   [engine] parameter below exists exactly to differentially check
   that. *)
let wcet_result ?memo ?ctx ?refine ~annot platform program =
  let compute =
    match (ctx, refine) with
    | Some ctx, _ -> Some (fun () -> Core.Wcet.analyze_with ?refine ~ctx platform)
    | None, Some _ ->
        Some (fun () -> Core.Wcet.analyze ~annot ?refine platform program)
    | None, None -> None
  in
  (* Refined results carry a salt ({!Refine.salt}) so they never share a
     memo entry with the unrefined solo checks. *)
  let salt = Option.map Refine.salt refine in
  match memo with
  | None -> (
      match compute with
      | Some f -> f ()
      | None -> Core.Wcet.analyze ~annot platform program)
  | Some m -> Core.Memo.wcet m ~annot ?salt ?compute platform program

(* The root procedure's category decomposition of the bound. *)
let root_vec (w : Core.Wcet.t) =
  match List.rev w.Core.Wcet.procs with
  | (_, pr) :: _ -> pr.Core.Wcet.wcet_vec
  | [] -> Pipeline.Cost.Vec.zero

let bcet_bound ?memo ?ctx ~annot platform program =
  let compute =
    Option.map (fun ctx () -> Core.Bcet.analyze_with ~ctx platform) ctx
  in
  match memo with
  | None ->
      (match compute with
      | Some f -> f ()
      | None -> Core.Bcet.analyze ~annot platform program)
        .Core.Bcet.bcet
  | Some m -> (Core.Memo.bcet m ~annot ?compute platform program).Core.Bcet.bcet

let solo_shapes () =
  let l2_small = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  (* two sets of two ways: heavy eviction pressure with live ages, the
     shape where an optimistic must/may-join is most visible *)
  let tiny = Cache.Config.make ~sets:2 ~assoc:2 ~line_size:8 in
  [
    ("no-l2", P.single_core ());
    ("l2", P.single_core ~l2:l2_small ());
    ( "tiny-l1",
      { (P.single_core ~l2:l2_small ()) with P.l1i = tiny; l1d = tiny } );
    ( "refresh",
      {
        (P.single_core ()) with
        P.refresh =
          Interconnect.Arbiter.Distributed { interval = 128; duration = 12 };
      } );
    ( "method-cache",
      {
        (P.single_core ()) with
        P.method_cache = Some Cache.Method_cache.default;
      } );
  ]

(* A core's setup for a generated program: the diamond selectors the
   generator wants driven down their heavy arms are preloaded. *)
let setup_of (g : Generator.t) =
  {
    (Sim.Machine.task g.Generator.program) with
    Sim.Machine.init_data = g.Generator.data_init;
  }

(* ---- interpreter cross-check ----------------------------------------- *)

(* Run the simulator under the chosen interpreter.  [`Both] runs the
   block interpreter *and* the reference stepper and cross-checks every
   field the block interpreter guarantees bit-exactly (all of them on a
   halted run); a mismatch is a violation against the diverging core's
   task, and the reference result is the oracle-of-record downstream. *)
let sim_run ~(interp : interp) ~mode ~shape ~(g_of : int -> Generator.t) cfg
    ~cores () =
  match interp with
  | `Block -> (Sim.Machine.run ~interp:`Block cfg ~cores (), [])
  | `Reference -> (Sim.Machine.run ~interp:`Reference cfg ~cores (), [])
  | `Both ->
      let rb = Sim.Machine.run ~interp:`Block cfg ~cores () in
      let rr = Sim.Machine.run ~interp:`Reference cfg ~cores () in
      let vs = ref [] in
      Array.iteri
        (fun i (b : Sim.Machine.core_result) ->
          let r = rr.(i) in
          let mismatch =
            if b.Sim.Machine.cycles <> r.Sim.Machine.cycles then
              Some
                (Printf.sprintf "cycles: block %d, reference %d"
                   b.Sim.Machine.cycles r.Sim.Machine.cycles)
            else if b.Sim.Machine.halted <> r.Sim.Machine.halted then
              Some
                (Printf.sprintf "halted: block %b, reference %b"
                   b.Sim.Machine.halted r.Sim.Machine.halted)
            else if b.Sim.Machine.attrib <> r.Sim.Machine.attrib then
              Some "attribution vector differs"
            else if b.Sim.Machine.block_attrib <> r.Sim.Machine.block_attrib
            then Some "per-block attribution differs"
            else if
              b.Sim.Machine.bus_stall_cycles <> r.Sim.Machine.bus_stall_cycles
            then
              Some
                (Printf.sprintf "bus_stall_cycles: block %d, reference %d"
                   b.Sim.Machine.bus_stall_cycles r.Sim.Machine.bus_stall_cycles)
            else if b.Sim.Machine.max_bus_wait <> r.Sim.Machine.max_bus_wait
            then
              Some
                (Printf.sprintf "max_bus_wait: block %d, reference %d"
                   b.Sim.Machine.max_bus_wait r.Sim.Machine.max_bus_wait)
            else if not b.Sim.Machine.halted then
              (* truncated runs: only the fields above are promised *)
              None
            else if b.Sim.Machine.instructions <> r.Sim.Machine.instructions
            then
              Some
                (Printf.sprintf "instructions: block %d, reference %d"
                   b.Sim.Machine.instructions r.Sim.Machine.instructions)
            else if
              (b.Sim.Machine.l1i_hits, b.Sim.Machine.l1i_misses,
               b.Sim.Machine.l1d_hits, b.Sim.Machine.l1d_misses)
              <> (r.Sim.Machine.l1i_hits, r.Sim.Machine.l1i_misses,
                  r.Sim.Machine.l1d_hits, r.Sim.Machine.l1d_misses)
            then Some "L1 hit/miss counters differ"
            else if b.Sim.Machine.final_state <> r.Sim.Machine.final_state then
              Some "final architectural state differs"
            else None
          in
          match mismatch with
          | None -> ()
          | Some reason ->
              let g = g_of i in
              vs :=
                {
                  v_mode = mode;
                  v_shape = shape;
                  v_task = g.Generator.name;
                  v_core = i;
                  reason = "interpreter divergence: " ^ reason;
                  source = g.Generator.source;
                }
                :: !vs)
        rb;
      (rr, List.rev !vs)

(* ---- the sandwich ---------------------------------------------------- *)

let sandwich ?unrefined ~mode ~shape ~(g : Generator.t) ~core ~bcet ~wcet
    ~a_vec result =
  let check = { mode; shape; task = g.Generator.name; core; bcet; wcet;
                unrefined;
                observed = Option.map (fun (r : Sim.Machine.core_result) ->
                    r.Sim.Machine.cycles) result;
                a_vec;
                o_vec = Option.map (fun (r : Sim.Machine.core_result) ->
                    r.Sim.Machine.attrib) result }
  in
  let viol reason =
    Some
      {
        v_mode = mode;
        v_shape = shape;
        v_task = g.Generator.name;
        v_core = core;
        reason;
        source = g.Generator.source;
      }
  in
  let v =
    match result with
    | None ->
        if wcet < bcet then
          viol (Printf.sprintf "WCET bound %d below BCET bound %d" wcet bcet)
        else None
    | Some (r : Sim.Machine.core_result) ->
        if not r.Sim.Machine.halted then
          viol "simulation did not halt within the cycle horizon"
        else if r.Sim.Machine.cycles > wcet then
          viol
            (Printf.sprintf "observed %d cycles exceeds WCET bound %d"
               r.Sim.Machine.cycles wcet)
        else if bcet > r.Sim.Machine.cycles then
          viol
            (Printf.sprintf "BCET bound %d exceeds observed %d cycles" bcet
               r.Sim.Machine.cycles)
        else None
  in
  (check, v)

let collect pairs =
  {
    checks = List.map fst pairs;
    violations = List.filter_map snd pairs;
    errors = [];
  }

(* ---- solo mode ------------------------------------------------------- *)

(* The program facts of a task, built on first use. *)
let lazy_facts (g : Generator.t) =
  lazy (Core.Context.facts ~annot:g.Generator.annot g.Generator.program)

let check_solo ?memo ?(checkpoint = fun () -> ())
    ?(interp : interp = `Block) ?(engine : engine = `Context) ?refine ?facts
    (g : Generator.t) =
  let annot = g.Generator.annot and program = g.Generator.program in
  let divergences = ref [] in
  (* One context per L1 geometry, not per shape: shapes that differ only
     below L1 (L2, refresh) share it, and the WCET and BCET sides of a
     shape share it too.  Every geometry's context sits on the task's one
     facts value.  Both are forced inside each shape's guard, so a front
     end that fails is a violation of every shape that needs it. *)
  let facts = match facts with Some f -> f | None -> lazy_facts g in
  let built = ref [] in
  let context (platform : P.t) =
    let fits ctx = Core.Context.compatible ctx platform in
    match List.find_opt fits !built with
    | Some ctx -> ctx
    | None ->
        let ctx =
          Core.Context.of_facts (Lazy.force facts) ~l1i:platform.P.l1i
            ~l1d:platform.P.l1d ?method_cache:platform.P.method_cache ()
        in
        built := ctx :: !built;
        ctx
  in
  let per_shape (shape, platform) =
    checkpoint ();
    match
      let ctx =
        match engine with
        | `Context -> Some (context platform)
        | `Fresh -> None
      in
      let w = wcet_result ?memo ?ctx ?refine ~annot platform program in
      let bcet = bcet_bound ?memo ?ctx ~annot platform program in
      let rs, dv =
        sim_run ~interp ~mode:Solo ~shape
          ~g_of:(fun _ -> g)
          (P.machine platform)
          ~cores:[| setup_of g |] ()
      in
      divergences := !divergences @ dv;
      sandwich ?unrefined:w.Core.Wcet.unrefined_wcet ~mode:Solo ~shape ~g
        ~core:0 ~bcet ~wcet:w.Core.Wcet.wcet ~a_vec:(root_vec w)
        (Some rs.(0))
    with
    | pair -> pair
    | exception Core.Wcet.Not_analysable msg ->
        sandwich ~mode:Solo ~shape ~g ~core:0 ~bcet:0 ~wcet:(-1)
          ~a_vec:Pipeline.Cost.Vec.zero None
        |> fun (c, _) ->
        ( c,
          Some
            {
              v_mode = Solo;
              v_shape = shape;
              v_task = g.Generator.name;
              v_core = 0;
              reason = "analysis failed: " ^ msg;
              source = g.Generator.source;
            } )
  in
  let r = collect (List.map per_shape (solo_shapes ())) in
  { r with violations = r.violations @ !divergences }

(* ---- contended modes ------------------------------------------------- *)

(* The interference-free platform of [analyze_oblivious]: whole L2 as a
   private slice, no bus contention.  Its BCET lower-bounds every
   execution of the task on every mode. *)
let private_platform (sys : M.system) =
  {
    P.latencies = sys.M.latencies;
    l1i = sys.M.l1i;
    l1d = sys.M.l1d;
    l2 = P.Private_l2 sys.M.l2;
    arbiter = Interconnect.Arbiter.Private;
    core = 0;
    refresh = sys.M.refresh;
    mem_arbiter = None;
    method_cache = None;
  }

(* The CSV shape label of a contended mode's checks. *)
let group_shape = function
  | Solo -> "solo"
  | Oblivious -> "private-l2"
  | Joint -> "shared-l2"
  | Bypass -> "shared-l2+bypass"
  | Columnized -> "l2-columns"
  | Bankized -> "l2-banks"
  | Locked -> "locked-l2"
  | Dynamic -> "locked-l2-dynamic"

let check_group ?memo ?(checkpoint = fun () -> ())
    ?(interp : interp = `Block) ?(engine : engine = `Context) ?refine ?facts
    ~modes gens =
  let n = Array.length gens in
  if n < 1 then invalid_arg "Oracle.check_group: empty task group";
  let divergences = ref [] in
  let modes = List.filter (fun m -> m <> Solo) modes in
  let tasks =
    Array.map
      (fun (g : Generator.t) -> Some (g.Generator.program, g.Generator.annot))
      gens
  in
  let sys = M.default_system ~cores:n ~tasks in
  (* One context per task, shared across every contended mode and the
     BCET side (the private platform has the same L1 geometry).  This is
     the campaign's dominant cost: with contexts, each task pays one
     front end for the whole group run instead of one per mode. *)
  let ctxs =
    match engine with
    | `Context -> Some (M.contexts ?facts sys)
    | `Fresh -> None
  in
  let ctx_for core = Option.bind ctxs (fun a -> a.(core)) in
  let bcets =
    Array.mapi
      (fun i (g : Generator.t) ->
        bcet_bound ?memo ?ctx:(ctx_for i) ~annot:g.Generator.annot
          (private_platform sys) g.Generator.program)
      gens
  in
  let plain_setups = Array.map setup_of gens in
  let run_mode mode =
    checkpoint ();
    let shape = group_shape mode in
    let ws = Core.Mode.analyze ?memo ?ctxs ?refine sys mode in
    (* Each core's observed run: oblivious runs each task alone, the
       other simulable modes run the whole group, and dynamic locking is
       checked analytically only. *)
    let observed = Array.make n None in
    List.iter
      (fun { Core.Mode.config; slots; setups } ->
        let rs, dv =
          sim_run ~interp ~mode ~shape
            ~g_of:(fun k -> gens.(slots.(k)))
            config ~cores:setups ()
        in
        divergences := !divergences @ dv;
        Array.iteri (fun k slot -> observed.(slot) <- Some rs.(k)) slots)
      (Core.Mode.runs ?memo ?ctxs sys mode plain_setups);
    List.filter_map
      (fun core ->
        Option.map
          (fun (w : Core.Wcet.t) ->
            sandwich ?unrefined:w.Core.Wcet.unrefined_wcet ~mode ~shape
              ~g:gens.(core) ~core ~bcet:bcets.(core) ~wcet:w.Core.Wcet.wcet
              ~a_vec:(root_vec w) observed.(core))
          ws.(core))
      (List.init n Fun.id)
  in
  let per_mode mode =
    match run_mode mode with
    | pairs -> collect pairs
    | exception Core.Wcet.Not_analysable msg ->
        {
          empty_report with
          violations =
            [
              {
                v_mode = mode;
                v_shape = "group";
                v_task =
                  String.concat "+"
                    (Array.to_list
                       (Array.map (fun g -> g.Generator.name) gens));
                v_core = -1;
                reason = "analysis failed: " ^ msg;
                source = gens.(0).Generator.source;
              };
            ];
        }
  in
  let r = merge_reports (List.map per_mode modes) in
  { r with violations = r.violations @ !divergences }

(* ---- campaign -------------------------------------------------------- *)

type mode_stats = {
  s_mode : mode;
  s_checks : int;
  s_violations : int;
  s_min_ratio : float;
  s_mean_ratio : float;
  s_max_ratio : float;
  s_gap : Pipeline.Cost.Vec.t;
  s_dominant_gap : Pipeline.Cost.category option;
  s_mean_reduction : float option;
}

type campaign = {
  seed : int;
  count : int;
  cores : int;
  modes : mode list;
  report : report;
  stats : mode_stats list;
  memo_stats : Engine.Lru.stats option;
}

let stats_of report modes =
  List.filter_map
    (fun mode ->
      let checks = List.filter (fun c -> c.mode = mode) report.checks in
      if checks = [] then None
      else
        let ratios =
          List.filter_map
            (fun c ->
              match c.observed with
              | Some obs when obs > 0 ->
                  Some (float_of_int c.wcet /. float_of_int obs)
              | _ -> None)
            checks
        in
        let violations =
          List.length
            (List.filter (fun v -> v.v_mode = mode) report.violations)
        in
        let min_r = List.fold_left min infinity ratios in
        let max_r = List.fold_left max 0.0 ratios in
        let mean_r =
          if ratios = [] then 0.0
          else List.fold_left ( +. ) 0.0 ratios /. float_of_int (List.length ratios)
        in
        let gap =
          List.fold_left
            (fun acc c ->
              match c.o_vec with
              | Some o ->
                  Pipeline.Cost.Vec.add acc (Pipeline.Cost.Vec.sub c.a_vec o)
              | None -> acc)
            Pipeline.Cost.Vec.zero checks
        in
        let any_observed = List.exists (fun c -> c.o_vec <> None) checks in
        let reductions =
          List.filter_map
            (fun c ->
              match c.unrefined with
              | Some u when u > 0 ->
                  Some (float_of_int (u - c.wcet) /. float_of_int u)
              | _ -> None)
            checks
        in
        Some
          {
            s_mode = mode;
            s_checks = List.length checks;
            s_violations = violations;
            s_min_ratio = (if ratios = [] then 0.0 else min_r);
            s_mean_ratio = mean_r;
            s_max_ratio = max_r;
            s_gap = gap;
            s_dominant_gap =
              (if any_observed then Some (Pipeline.Cost.Vec.dominant gap)
               else None);
            s_mean_reduction =
              (if reductions = [] then None
               else
                 Some
                   (List.fold_left ( +. ) 0.0 reductions
                   /. float_of_int (List.length reductions)));
          })
    modes

let run_campaign ?(params = Generator.default_params) ?(modes = Core.Mode.all)
    ?(cores = 4) ?workers ?memo ?timeout_ns ?(interp : interp = `Block)
    ?(engine : engine = `Context) ?refine ~seed ~count () =
  if count <= 0 then invalid_arg "Oracle.run_campaign: count must be positive";
  if cores < 1 || cores > 4 then
    invalid_arg "Oracle.run_campaign: cores must be in 1..4 (the L2 has 4 ways)";
  let groups = (count + cores - 1) / cores in
  let contended = List.filter (fun m -> m <> Solo) modes in
  let jobs =
    List.init groups (fun gi ->
        Engine.Pool.job ~label:(Printf.sprintf "fuzz-group-%d" gi) (fun ctx ->
            let checkpoint () = Engine.Pool.check ctx in
            (* the last group wraps around to keep one task per core;
               wrapped tasks are re-checked contended but not solo *)
            let gens =
              Array.init cores (fun k ->
                  Generator.generate ~params ~seed
                    ~index:(((gi * cores) + k) mod count)
                    ())
            in
            (* One facts value per task slot: the task's solo L1
               geometries and the group's system geometry share it. *)
            let facts = Array.map lazy_facts gens in
            let solo =
              if List.mem Solo modes then
                List.filter_map
                  (fun k ->
                    if (gi * cores) + k < count then
                      Some
                        (check_solo ?memo ~checkpoint ~interp ~engine ?refine
                           ~facts:facts.(k) gens.(k))
                    else None)
                  (List.init cores (fun i -> i))
              else []
            in
            let grouped =
              if contended = [] then empty_report
              else
                check_group ?memo ~checkpoint ~interp ~engine ?refine ~facts
                  ~modes:contended gens
            in
            merge_reports (solo @ [ grouped ])))
  in
  let outcomes = Engine.Pool.run ?workers ?timeout_ns jobs in
  let reports =
    List.map
      (function
        | Engine.Pool.Done r -> r
        | Engine.Pool.Failed { label; error } ->
            {
              empty_report with
              errors = [ Printf.sprintf "%s raised: %s" label error ];
            }
        | Engine.Pool.Timed_out { label; after_ns } ->
            {
              empty_report with
              errors =
                [
                  Printf.sprintf "%s timed out after %.1fs" label
                    (Int64.to_float after_ns /. 1e9);
                ];
            })
      outcomes
  in
  let report = merge_reports reports in
  {
    seed;
    count;
    cores;
    modes;
    report;
    stats = stats_of report modes;
    memo_stats = Option.map Core.Memo.stats memo;
  }

let csv_header =
  "mode,shape,task,core,bcet,observed,wcet,ratio,dominant_gap,unrefined\n"

let csv_rows report =
  let buf = Buffer.create 1024 in
  List.iter
    (fun c ->
      let observed, ratio =
        match c.observed with
        | Some o when o > 0 ->
            (string_of_int o,
             Printf.sprintf "%.3f" (float_of_int c.wcet /. float_of_int o))
        | Some o -> (string_of_int o, "")
        | None -> ("", "")
      in
      let dominant =
        match c.o_vec with
        | Some o ->
            Pipeline.Cost.category_name
              (Pipeline.Cost.Vec.dominant (Pipeline.Cost.Vec.sub c.a_vec o))
        | None -> ""
      in
      let unrefined =
        match c.unrefined with Some u -> string_of_int u | None -> ""
      in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%d,%d,%s,%d,%s,%s,%s\n"
           (Core.Mode.name c.mode) c.shape c.task c.core c.bcet observed
           c.wcet ratio dominant unrefined))
    report.checks;
  Buffer.contents buf

let csv_of_report report = csv_header ^ csv_rows report
