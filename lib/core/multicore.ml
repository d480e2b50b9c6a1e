type system = {
  latencies : Pipeline.Latencies.t;
  l1i : Cache.Config.t;
  l1d : Cache.Config.t;
  l2 : Cache.Config.t;
  arbiter : Interconnect.Arbiter.t;
  refresh : Interconnect.Arbiter.refresh_policy;
  tasks : (Isa.Program.t * Dataflow.Annot.t) option array;
}

let default_system ~cores ~tasks =
  if Array.length tasks <> cores then
    invalid_arg "Multicore.default_system: one task slot per core";
  {
    latencies = Pipeline.Latencies.default;
    l1i = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
    l1d = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16;
    l2 = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16;
    arbiter = Interconnect.Arbiter.Round_robin { cores };
    refresh = Interconnect.Arbiter.Burst;
    tasks;
  }

let platform_of system ~core ~l2 ~arbiter =
  {
    Platform.latencies = system.latencies;
    l1i = system.l1i;
    l1d = system.l1d;
    l2;
    arbiter;
    core;
    refresh = system.refresh;
    mem_arbiter = None;
    method_cache = None;
  }

(* One mode-invariant context per occupied core slot, shared between
   slots that run the physically-same task — all eight approach modes of
   a sweep then reuse one front end per distinct task.  With [facts],
   a slot's context is built over the caller's facts for that slot
   instead of fresh ones. *)
type contexts = Context.t option array

let contexts ?facts system =
  let built = ref [] in
  Array.mapi
    (fun core task ->
      match task with
      | None -> None
      | Some (program, annot) -> (
          let same (p, a, _) = p == program && a == annot in
          match List.find_opt same !built with
          | Some (_, _, ctx) -> Some ctx
          | None ->
              let l1i = system.l1i and l1d = system.l1d in
              let ctx =
                match facts with
                | None -> Context.build ~annot ~l1i ~l1d program
                | Some f ->
                    let facts = Lazy.force f.(core) in
                    let ctx = Context.of_facts facts ~l1i ~l1d () in
                    if ctx.Context.program != program then
                      invalid_arg
                        "Multicore.contexts: facts built for another program";
                    ctx
              in
              built := (program, annot, ctx) :: !built;
              Some ctx))
    system.tasks

(* The call's contexts: the caller's, or its own, built here.  Every
   occupied slot is bounded on its context. *)
let own ?ctxs system =
  match ctxs with Some c -> c | None -> contexts system

(* Memoized or direct per-task analysis on the slot's context.  [salt]
   must encode the semantics of any closures the platform's L2 mode
   carries — see {!Memo}; closure-free platforms need none.
   [bypass_key] keys the context's multilevel memo with the same string
   discipline as the memo salt. *)
let wcet_of ?memo ?salt ~ctx ?bypass_key ?refine ~annot platform program =
  let compute () = Wcet.analyze_with ?bypass_key ?refine ~ctx platform in
  (* Refined and unrefined results must never share a cache entry: the
     refinement budget joins the salt ({!Refine.salt}). *)
  let salt =
    match refine with
    | None -> salt
    | Some config ->
        Some (Option.value salt ~default:"" ^ "|" ^ Refine.salt config)
  in
  match memo with
  | None -> compute ()
  | Some m -> Memo.wcet m ~annot ?salt ~compute platform program

(* One back end per distinct slot.  Within one [analyze_*] call, a
   slot that shares an earlier slot's context, on a platform
   {!Platform.equivalent} to that slot's, takes the earlier result with
   its own [platform] field: the back end reads nothing else of either,
   so its result would be the same.  The caller's memo salt and bypass
   key must be functions of the context and the platform, as every
   mode's are. *)
let one_per_distinct_slot () =
  let seen = ref [] in
  fun ctx platform analyze ->
    let same (c', p, _) = c' == ctx && Platform.equivalent p platform in
    match List.find_opt same !seen with
    | Some (_, _, (w : Wcet.t)) -> { w with Wcet.platform }
    | None ->
        let w = analyze () in
        seen := (ctx, platform, w) :: !seen;
        w

(* [f core ctx] for every occupied slot, computed once per
   distinct context, so slots that share a context share the value
   physically: the closures a platform embeds are built once and
   {!Platform.equivalent} can see them equal. *)
let by_context ctxs system f =
  let built = ref [] in
  Array.mapi
    (fun core task ->
      match task with
      | None -> None
      | Some _ -> (
          let c = Option.get ctxs.(core) in
          match List.assq_opt c !built with
          | Some v -> Some v
          | None ->
              let v = f core c in
              built := (c, v) :: !built;
              Some v))
    system.tasks

let analyze_each ?memo ?salt ?ctxs ?refine system ~platform_for =
  let ctxs = own ?ctxs system in
  let share = one_per_distinct_slot () in
  Array.mapi
    (fun core task ->
      match task with
      | None -> None
      | Some (program, annot) ->
          let ctx = Option.get ctxs.(core) and platform = platform_for core in
          Some
            (share ctx platform (fun () ->
                 wcet_of ?memo ?salt ~ctx ?refine ~annot platform program)))
    system.tasks

(* Oblivious: pretend the task owns the machine (private bus, whole L2). *)
let analyze_oblivious ?memo ?ctxs ?refine system =
  analyze_each ?memo ?ctxs ?refine system ~platform_for:(fun _core ->
      platform_of system ~core:0 ~l2:(Platform.Private_l2 system.l2)
        ~arbiter:Interconnect.Arbiter.Private)

(* The L2 accesses of a block for the bypass and locking heuristics:
   over the *plain* value analysis (no interprocedural clobber
   refinement), whose access-target sets they were defined on. *)
let l2_accesses system (p : Context.proc) =
  let g = p.Context.graph and va = Lazy.force p.Context.va_plain in
  fun id ->
    Cache.Analysis.instruction_accesses system.l2 g id
    @ Cache.Analysis.data_accesses system.l2 g va id

(* Single-usage bypass lines of a task: union over its procedures. *)
let single_usage_lines system (ctx : Context.t) =
  List.concat_map
    (fun (_, (p : Context.proc)) ->
      Cache.Multilevel.single_usage_lines p.Context.graph p.Context.loops
        ~l2_accesses:(l2_accesses system p))
    ctx.Context.procs
  |> List.sort_uniq compare

let bypass_lines ?ctx system (program, annot) =
  single_usage_lines system
    (match ctx with
    | Some ctx -> ctx
    | None -> Context.build ~annot ~l1i:system.l1i ~l1d:system.l1d program)

let analyze_joint ?memo ?ctxs ?refine system ?(bypass = false)
    ?(overlaps = fun _ _ -> true) () =
  let n = Array.length system.tasks in
  let config = system.l2 in
  let ctxs = own ?ctxs system in
  (* Per task, the bypass probe and the key that stands for it.  The
     [bypass] closure is the only platform ingredient the fingerprint
     cannot see (the conflict counts are rendered by it), so the memo
     salt and the multilevel key are the bypass line set itself. *)
  let probes =
    by_context ctxs system (fun _ ctx ->
        if not bypass then ((fun _ -> false), "nobypass")
        else
          let lines = single_usage_lines system ctx in
          (* Probed once per L2 access of every fixpoint sweep: a hash
             set, not an O(lines) list scan. *)
          let set = Hashtbl.create (2 * List.length lines) in
          List.iter (fun l -> Hashtbl.replace set l ()) lines;
          ( Hashtbl.mem set,
            "bypass:" ^ String.concat "," (List.map string_of_int lines) ))
  in
  let probe core = Option.get probes.(core) in
  (* Phase 1: each task's footprint under zero conflicts, and whether
     it touches unknown lines, read off the context's multilevel
     fixpoints under the key phase 2 finds them by. *)
  let footprints =
    by_context ctxs system (fun core ctx ->
        let bypass, key = probe core in
        let ms =
          List.map
            (fun (_, p) ->
              Obs.span ~cat:"phase" "cache-analysis" (fun () ->
                  Context.multilevel ctx p ~config ~bypass_key:key ~bypass
                    ()))
            ctx.Context.procs
        in
        ( Cache.Shared.combine
            (List.map Cache.Multilevel.footprint ms)
            config,
          List.exists Cache.Multilevel.uses_unknown_target ms ))
  in
  let conflicts_for core =
    let foreign = ref [] in
    for j = 0 to n - 1 do
      if j <> core && overlaps core j then
        match footprints.(j) with
        | Some (fp, unknown) ->
            let fp =
              if unknown then
                Array.make config.Cache.Config.sets config.Cache.Config.assoc
              else fp
            in
            foreign := fp :: !foreign
        | None -> ()
    done;
    Cache.Shared.combine !foreign config
  in
  (* Phase 2: each task under its co-runners' conflicts. *)
  let share = one_per_distinct_slot () in
  Array.mapi
    (fun core task ->
      match task with
      | None -> None
      | Some (program, annot) ->
          let ctx = Option.get ctxs.(core) and bypass, key = probe core in
          let conflicts = conflicts_for core in
          let platform =
            platform_of system ~core
              ~l2:(Platform.Shared_l2 { config; conflicts; bypass })
              ~arbiter:system.arbiter
          in
          Some
            (share ctx platform (fun () ->
                 wcet_of ?memo ~salt:key ~ctx ~bypass_key:key ?refine ~annot
                   platform program)))
    system.tasks

let analyze_partitioned ?memo ?ctxs ?refine system ~scheme =
  let n = Array.length system.tasks in
  let alloc = Cache.Partition.even_shares scheme system.l2 ~parts:n in
  analyze_each ?memo ?ctxs ?refine system ~platform_for:(fun core ->
      let slice = Cache.Partition.partition_config system.l2 alloc ~index:core in
      platform_of system ~core ~l2:(Platform.Private_l2 slice)
        ~arbiter:system.arbiter)

(* Global greedy lock selection: line profits estimated from the
   oblivious analysis's block execution counts. *)
let static_lock_selection ?memo ?ctxs system =
  let ctxs = own ?ctxs system in
  let profits = Hashtbl.create 64 in
  let oblivious =
    platform_of system ~core:0 ~l2:(Platform.Private_l2 system.l2)
      ~arbiter:Interconnect.Arbiter.Private
  in
  let share = one_per_distinct_slot () in
  Array.iteri
    (fun core task ->
      match task with
      | None -> ()
      | Some (program, annot) ->
          let ctx = Option.get ctxs.(core) in
          let w =
            share ctx oblivious (fun () ->
                wcet_of ?memo ~ctx ~annot oblivious program)
          in
          List.iter
            (fun (name, (p : Context.proc)) ->
              let pr = List.assoc name w.Wcet.procs in
              let counts = pr.Wcet.ipet.Ipet.block_counts in
              let accesses = l2_accesses system p in
              for id = 0 to Cfg.Graph.num_blocks p.Context.graph - 1 do
                List.iter
                  (fun (a : Cache.Analysis.access) ->
                    match a.Cache.Analysis.target with
                    | Cache.Analysis.Lines [ l ] ->
                        let prev =
                          match Hashtbl.find_opt profits l with
                          | Some p -> p
                          | None -> 0
                        in
                        Hashtbl.replace profits l (prev + counts.(id))
                    | Cache.Analysis.Lines _ | Cache.Analysis.Unknown -> ())
                  (accesses id)
              done)
            ctx.Context.procs)
    system.tasks;
  let candidates = Hashtbl.fold (fun l p acc -> (l, p) :: acc) profits [] in
  Cache.Locking.select system.l2 ~candidates

let analyze_locked ?memo ?ctxs ?refine system =
  let ctxs = own ?ctxs system in
  (* The selection itself stays unrefined: it is a heuristic over the
     oblivious block counts, and keeping it refine-independent means the
     refined and unrefined sweeps lock the same lines (so the bound
     comparison isolates the path refinement). *)
  let selection = static_lock_selection ?memo ~ctxs system in
  (* The selection depends on *all* tasks, not just the one being
     analyzed, so it must appear in the memo key explicitly. *)
  let salt =
    "locked:"
    ^ String.concat ","
        (List.map string_of_int selection.Cache.Locking.locked)
  in
  (* One L2 value for every slot, so their platforms are equivalent. *)
  let l2 =
    Platform.Locked_l2
      {
        config = system.l2;
        selection_of = (fun _ -> selection);
        reload_cost = (fun ~proc:_ _ -> 0);
      }
  in
  analyze_each ?memo ~salt ~ctxs ?refine system ~platform_for:(fun core ->
      platform_of system ~core ~l2 ~arbiter:system.arbiter)

(* Dynamic locking (Suhendra & Mitra): each outermost loop of each task
   gets its own locked contents, selected by in-region access frequency,
   and pays a reload of [lines * (l2 + mem)] on region entry.  Since a
   task owns the whole locked cache while it runs a region, each task's
   selection may use the full capacity; the comparison against static
   locking is at analysis level (the concrete machine model does not
   reprogram locks at run time). *)
let dynamic_lock_functions system (ctx : Context.t) =
  let lat = system.latencies in
  let reload_per_line =
    lat.Pipeline.Latencies.l2_hit + lat.Pipeline.Latencies.mem
  in
  (* Per proc: (instr -> selection), (block -> reload cost). *)
  let per_proc =
    List.map
      (fun (name, (p : Context.proc)) ->
        let g = p.Context.graph and loops = p.Context.loops in
        let accesses = l2_accesses system p in
        (* Frequency of a block *per region entry*: the product of the
           bounds of the loops enclosing it below the region level is
           over-approximated by a flat weight per extra nesting level. *)
        let weight id =
          let d = Cfg.Loops.loop_depth loops id in
          let rec pow acc k = if k <= 0 then acc else pow (acc * 16) (k - 1) in
          pow 1 (max 0 (d - 1))
        in
        let region_of_block id =
          List.find_opt
            (fun (l : Cfg.Loops.loop) ->
              l.Cfg.Loops.depth = 1 && List.mem id l.Cfg.Loops.body)
            (Cfg.Loops.loops loops)
        in
        let candidates_of blocks =
          let profits = Hashtbl.create 16 in
          List.iter
            (fun id ->
              List.iter
                (fun (a : Cache.Analysis.access) ->
                  match a.Cache.Analysis.target with
                  | Cache.Analysis.Lines [ l ] ->
                      let prev =
                        match Hashtbl.find_opt profits l with
                        | Some p -> p
                        | None -> 0
                      in
                      Hashtbl.replace profits l (prev + weight id)
                  | Cache.Analysis.Lines _ | Cache.Analysis.Unknown -> ())
                (accesses id))
            blocks;
          Hashtbl.fold (fun l p acc -> (l, p) :: acc) profits []
        in
        let all_blocks =
          List.init (Cfg.Graph.num_blocks g) (fun i -> i)
        in
        let toplevel_blocks =
          List.filter (fun id -> Cfg.Loops.loop_depth loops id = 0) all_blocks
        in
        let toplevel_sel =
          Cache.Locking.select system.l2 ~candidates:(candidates_of toplevel_blocks)
        in
        let region_sels =
          List.filter_map
            (fun (l : Cfg.Loops.loop) ->
              if l.Cfg.Loops.depth = 1 then
                Some
                  ( l.Cfg.Loops.header,
                    Cache.Locking.select system.l2
                      ~candidates:(candidates_of l.Cfg.Loops.body) )
              else None)
            (Cfg.Loops.loops loops)
        in
        let selection_of instr =
          match Cfg.Graph.block_of_instr g instr with
          | None -> toplevel_sel
          | Some id -> (
              match region_of_block id with
              | Some l -> List.assoc l.Cfg.Loops.header region_sels
              | None -> toplevel_sel)
        in
        let reload_of_block id =
          (* Entry-edge sources of depth-1 loops pay the reload of the
             region they enter. *)
          List.fold_left
            (fun acc (l : Cfg.Loops.loop) ->
              if
                l.Cfg.Loops.depth = 1
                && List.exists
                     (fun (e : Cfg.Graph.edge) -> e.Cfg.Graph.src = id)
                     l.Cfg.Loops.entry_edges
              then
                let sel = List.assoc l.Cfg.Loops.header region_sels in
                acc
                + (List.length sel.Cache.Locking.locked * reload_per_line)
              else acc)
            0 (Cfg.Loops.loops loops)
        in
        (name, (g, selection_of, reload_of_block)))
      ctx.Context.procs
  in
  (* Instruction indices are global to the program: route the lookup to
     the procedure whose graph contains the instruction. *)
  let selection_of instr =
    let rec find = function
      | [] -> Cache.Locking.{ locked = [] }
      | (_, (g, sel_of, _)) :: rest ->
          if Cfg.Graph.block_of_instr g instr <> None then sel_of instr
          else find rest
    in
    find per_proc
  in
  let reload_cost ~proc id =
    match List.assoc_opt proc per_proc with
    | Some (_, _, reload) -> reload id
    | None -> 0
  in
  (selection_of, reload_cost)

let analyze_locked_dynamic ?memo ?ctxs ?refine system =
  let ctxs = own ?ctxs system in
  let l2 =
    by_context ctxs system (fun _ ctx ->
        let selection_of, reload_cost = dynamic_lock_functions system ctx in
        Platform.Locked_l2 { config = system.l2; selection_of; reload_cost })
  in
  (* [dynamic_lock_functions] is a deterministic function of the task's
     program and the L2 geometry / latencies, all of which the
     fingerprint already covers — a constant salt suffices to
     distinguish this mode from static locking. *)
  analyze_each ?memo ~salt:"dynamic" ~ctxs ?refine system
    ~platform_for:(fun core ->
      platform_of system ~core ~l2:(Option.get l2.(core))
        ~arbiter:system.arbiter)

let wcets results =
  Array.map (Option.map (fun (w : Wcet.t) -> w.Wcet.wcet)) results

let machine_config system ~l2 =
  {
    Sim.Machine.latencies = system.latencies;
    l1i = system.l1i;
    l1d = system.l1d;
    l2;
    arbiter = system.arbiter;
    refresh = system.refresh;
    i_path = Sim.Machine.Conventional;
  }
