module Vec = Pipeline.Cost.Vec

type proc_result = {
  name : string;
  wcet : int;
  ipet : Ipet.result;
  loop_bounds : Dataflow.Loop_bounds.bound list;
  block_costs : int array;
  ps_penalty : int;
  attrib : Vec.t array;
  overhead_vec : Vec.t;
  wcet_vec : Vec.t;
  refine : Ipet.refine_stats option;
}

type t = {
  program : Isa.Program.t;
  callgraph : Cfg.Callgraph.t;
  platform : Platform.t;
  procs : (string * proc_result) list;
  wcet : int;
  unrefined_wcet : int option;
  multilevels : (string * Cache.Multilevel.t) list;
}

exception Not_analysable = Context.Not_analysable

let fail fmt = Printf.ksprintf (fun s -> raise (Not_analysable s)) fmt

(* Per-access L2 classification lookup assembled per platform mode.
   [l2_class_base] is the task's own classification before co-runner
   interference; it differs from [l2_class] only in shared-L2 mode, where
   [Cache.Shared.interfere] may demote entries.  The attribution charges
   the cost delta between the two to the bus/interference category. *)
type l2_view = {
  l2_class : Cache.Analysis.kind -> int -> Cache.Analysis.classification;
  l2_class_base : Cache.Analysis.kind -> int -> Cache.Analysis.classification;
  multilevel : Cache.Multilevel.t option;
}

let no_l2_view =
  let all_miss _ _ = Cache.Analysis.Always_miss in
  { l2_class = all_miss; l2_class_base = all_miss; multilevel = None }

(* Per-mode view over a computed multilevel fixpoint.  The fixpoint
   itself is mode-invariant (given geometry and bypass semantics); this
   is the thin mode-specific layer: direct classification for a private
   slice, co-runner demotion for a shared L2, lock-membership for a
   locked one. *)
let view_of_multilevel (platform : Platform.t) g m =
  (* An access the fixpoint does not know reaches memory. *)
  let lookup table kind i =
    match Cache.Analysis.Table.find_opt table kind i with
    | Some c -> c
    | None -> Cache.Analysis.Always_miss
  in
  let own kind i =
    match Cache.Multilevel.classification m ~kind i with
    | c -> c
    | exception Not_found -> Cache.Analysis.Always_miss
  in
  let table_of classes =
    let table = Cache.Analysis.Table.create g in
    List.iter2
      (fun (info : Cache.Multilevel.access_info) cls ->
        Cache.Analysis.Table.set table info.Cache.Multilevel.kind
          info.Cache.Multilevel.instr cls)
      (Cache.Multilevel.access_infos m)
      classes;
    table
  in
  match platform.Platform.l2 with
  | Platform.No_l2 -> assert false
  | Platform.Private_l2 _ ->
      { l2_class = own; l2_class_base = own; multilevel = Some m }
  | Platform.Shared_l2 { conflicts; _ } ->
      let table =
        table_of (List.map snd (Cache.Shared.interfere m conflicts))
      in
      { l2_class = lookup table; l2_class_base = own; multilevel = Some m }
  | Platform.Locked_l2 { selection_of; _ } ->
      (* Locked contents: trivial classification by membership in the
         selection active at that instruction. *)
      let table =
        table_of
          (List.map
             (fun (info : Cache.Multilevel.access_info) ->
               Cache.Locking.classify
                 (selection_of info.Cache.Multilevel.instr)
                 info.Cache.Multilevel.target)
             (Cache.Multilevel.access_infos m))
      in
      let cls = lookup table in
      { l2_class = cls; l2_class_base = cls; multilevel = Some m }

(* The per-mode back end: everything that actually depends on the
   platform's L2 mode and arbiter — the L2 view, block cost vectors,
   and the IPET re-solve (via the context's prepared constraint system,
   so modes after the first pay only phase-2 pivots).  All the
   mode-invariant front-end work comes from [ctx]. *)
let analyze_with ?bypass_key ?refine ~ctx platform =
  Context.check_compatible ctx platform;
  let bus_wait =
    try Platform.bus_wait platform with Failure msg -> fail "%s" msg
  in
  let mem_wait = Platform.mem_wait platform in
  let lat = platform.Platform.latencies in
  let program = ctx.Context.program in
  let root = ctx.Context.root in
  let results = Hashtbl.create 8 in
  (* Refinement changes callee WCETs, and callee WCETs fold into caller
     block costs, so the unrefined total needs its own bottom-up
     pipeline: per procedure the plain (wcet, wcet_vec) pair with plain
     callee fold-in.  Only populated when [refine] is on. *)
  let results_unrefined : (string, int * Vec.t) Hashtbl.t = Hashtbl.create 8 in
  let multilevels = ref [] in
  let mc_analysis = ctx.Context.mc_analysis in
  let mc_load_vec callee =
    match mc_analysis with
    | None -> Vec.zero
    | Some (mc, a) ->
        let size =
          match List.assoc_opt callee a.Cache.Method_cache.procs with
          | Some sz -> sz
          | None -> 0
        in
        {
          Vec.zero with
          l2_miss =
            Cache.Method_cache.load_cost mc
              ~mem_latency:lat.Pipeline.Latencies.mem ~size_words:size;
          bus = bus_wait + mem_wait;
        }
  in
  let analyze_proc (name, (p : Context.proc)) =
    let g = p.Context.graph in
    let l1i = p.Context.l1i in
    let l1d = p.Context.l1d in
    let loop_bounds = p.Context.loop_bounds in
    let l2_view =
      Obs.span ~cat:"phase" "cache-analysis" (fun () ->
          match platform.Platform.l2 with
          | Platform.No_l2 -> no_l2_view
          | Platform.Private_l2 config | Platform.Locked_l2 { config; _ } ->
              (* The fixpoint sees no bypass in these modes, so the
                 constant key is always sound and lets every bypass-free
                 mode share one entry. *)
              let m =
                Context.multilevel ctx p ~config ~bypass_key:"nobypass" ()
              in
              view_of_multilevel platform g m
          | Platform.Shared_l2 { config; bypass; _ } ->
              let m =
                Context.multilevel ctx p ~config ?bypass_key ~bypass ()
              in
              view_of_multilevel platform g m)
    in
    (match l2_view.multilevel with
    | Some m -> multilevels := (name, m) :: !multilevels
    | None -> ());
    let is_io i =
      match Isa.Program.instr program i with
      | Isa.Instr.Load (Isa.Instr.Io, _, _, _)
      | Isa.Instr.Store (Isa.Instr.Io, _, _, _) ->
          true
      | _ -> false
    in
    (* The block-cost oracle over one L2 classification. *)
    let oracle_of l2_class =
      let fetch_class i =
        match l1i with
        | Some l1i ->
            {
              Pipeline.Cost.l1 = Cache.Analysis.classification l1i i;
              l2 = l2_class Cache.Analysis.Fetch i;
            }
        | None ->
            (* Method cache: every fetch is a one-cycle local access. *)
            {
              Pipeline.Cost.l1 = Cache.Analysis.Always_hit;
              l2 = Cache.Analysis.Always_hit;
            }
      in
      let data_class i =
        match
          Cache.Analysis.classification l1d ~kind:Cache.Analysis.Data i
        with
        | c ->
            Some
              { Pipeline.Cost.l1 = c; l2 = l2_class Cache.Analysis.Data i }
        | exception Not_found -> None
      in
      { Pipeline.Cost.fetch_class; data_class; is_io; bus_wait; mem_wait }
    in
    let oracle = oracle_of l2_view.l2_class in
    (* Pre-interference twin of [oracle]: only the L2 classifications
       differ, and only in shared-L2 mode.  The per-block attribution is
       decomposed against this baseline, with the (non-negative, since
       [Cache.Shared.interfere] only demotes) cost delta charged to the
       bus/interference category.  Outside that mode it is [oracle]
       itself, which the block-cost loop tests with [==]. *)
    let oracle_base =
      match platform.Platform.l2 with
      | Platform.No_l2 | Platform.Private_l2 _ | Platform.Locked_l2 _ ->
          oracle
      | Platform.Shared_l2 _ -> oracle_of l2_view.l2_class_base
    in
    let own_vecs, full_vecs, block_costs =
      Obs.span ~cat:"phase" "block-costs" @@ fun () ->
      (* Own per-block cost vectors: everything the block pays per
         execution except callee WCETs (those are redistributed to the
         callee's own blocks by the attribution layer). *)
      let own =
        Array.init (Cfg.Graph.num_blocks g) (fun id ->
            let v = Pipeline.Cost.block_vec lat g oracle_base id in
            let v =
              if oracle_base == oracle then v
              else
                let delta =
                  Pipeline.Cost.block_cost lat g oracle id - Vec.total v
                in
                Vec.add v (Vec.make Pipeline.Cost.Bus delta)
            in
            let v =
              match platform.Platform.l2 with
              | Platform.Locked_l2 { reload_cost; _ } ->
                  Vec.add v
                    (Vec.make Pipeline.Cost.L2_miss (reload_cost ~proc:name id))
              | Platform.No_l2 | Platform.Private_l2 _ | Platform.Shared_l2 _
                ->
                  v
            in
            (* Method cache without a fit guarantee: a call may have to
               load the callee and, on return, reload this procedure. *)
            match (mc_analysis, Cfg.Graph.callee_of_block g id) with
            | Some (_, a), Some callee when not a.Cache.Method_cache.always_fits
              ->
                Vec.add v (Vec.add (mc_load_vec callee) (mc_load_vec name))
            | _ -> v)
      in
      let full =
        Array.mapi
          (fun id v ->
            match Cfg.Graph.callee_of_block g id with
            | Some callee -> (
                match Hashtbl.find_opt results callee with
                | Some (r : proc_result) -> Vec.add v r.wcet_vec
                | None -> fail "callee %s analyzed out of order" callee)
            | None -> v)
          own
      in
      (own, full, Array.map Vec.total full)
    in
    (* Callee fold-in against the unrefined pipeline's vectors. *)
    let full_vecs_unrefined () =
      Array.mapi
        (fun id v ->
          match Cfg.Graph.callee_of_block g id with
          | Some callee -> (
              match Hashtbl.find_opt results_unrefined callee with
              | Some (_, vec) -> Vec.add v vec
              | None -> fail "callee %s analyzed out of order" callee)
          | None -> v)
        own_vecs
    in
    (* Persistence penalties: one worst-case miss per persistent access
       point per procedure execution, at both levels. *)
    let ps_vec =
      Obs.span ~cat:"phase" "block-costs" @@ fun () ->
      let of_kind analysis kind =
        List.fold_left
          (fun acc ((a : Cache.Analysis.access), l1) ->
            if a.Cache.Analysis.kind = kind then
              let mc =
                {
                  Pipeline.Cost.l1;
                  l2 = l2_view.l2_class kind a.Cache.Analysis.instr;
                }
              in
              Vec.add acc (Pipeline.Cost.first_miss_vec lat oracle mc)
            else acc)
          Vec.zero
          (Cache.Analysis.accesses analysis)
      in
      Vec.add
        (match l1i with
        | Some l1i -> of_kind l1i Cache.Analysis.Fetch
        | None -> Vec.zero)
        (of_kind l1d Cache.Analysis.Data)
    in
    let ps_penalty = Vec.total ps_vec in
    let solve_plain costs =
      Obs.span ~cat:"phase" "ipet-solve" (fun () ->
          try
            Ipet.solve_prepared
              (Lazy.force p.Context.ipet_wcet)
              ~block_cost:(fun id -> costs.(id))
          with Ipet.Flow_infeasible msg -> fail "%s: %s" name msg)
    in
    let ipet, refine_stats =
      match refine with
      | None -> (solve_plain block_costs, None)
      | Some config ->
          let r, stats =
            Obs.span ~cat:"phase" "ipet-solve" (fun () ->
                try
                  Ipet.refine_prepared
                    (Lazy.force p.Context.ipet_wcet)
                    ~block_cost:(fun id -> block_costs.(id))
                    ~candidates:(Lazy.force p.Context.refine_candidates)
                    ~config
                with Ipet.Flow_infeasible msg -> fail "%s: %s" name msg)
          in
          (r, Some stats)
    in
    let mc_vec =
      match mc_analysis with
      | None -> Vec.zero
      | Some (_, a) ->
          if a.Cache.Method_cache.always_fits then
            if name = root then
              (* FIFO never evicts: one load per procedure per run. *)
              List.fold_left
                (fun acc (p, _) -> Vec.add acc (mc_load_vec p))
                Vec.zero a.Cache.Method_cache.procs
            else Vec.zero
          else if name = root then mc_load_vec root
          else Vec.zero (* per-execution reloads already in the call blocks *)
    in
    let mc_penalty = Vec.total mc_vec in
    let overhead_vec = Vec.add ps_vec mc_vec in
    let wcet_vec =
      (* Exact by construction: the IPET objective is the same weighted
         sum over the scalar totals of these vectors. *)
      let acc = ref overhead_vec in
      Array.iteri
        (fun id v ->
          acc := Vec.add !acc (Vec.scale ipet.Ipet.block_counts.(id) v))
        full_vecs;
      !acc
    in
    let wcet = ipet.Ipet.wcet + ps_penalty + mc_penalty in
    assert (Vec.total wcet_vec = wcet);
    (match refine with
    | None -> ()
    | Some _ ->
        let full_u = full_vecs_unrefined () in
        let costs_u = Array.map Vec.total full_u in
        let ipet_u = solve_plain costs_u in
        let wcet_u = ipet_u.Ipet.wcet + ps_penalty + mc_penalty in
        let vec_u = ref overhead_vec in
        Array.iteri
          (fun id v ->
            vec_u := Vec.add !vec_u (Vec.scale ipet_u.Ipet.block_counts.(id) v))
          full_u;
        assert (Vec.total !vec_u = wcet_u);
        (* Cuts only remove infeasible flows: refinement never loosens. *)
        assert (wcet <= wcet_u);
        Hashtbl.replace results_unrefined name (wcet_u, !vec_u));
    let result =
      {
        name;
        wcet;
        ipet;
        loop_bounds;
        block_costs;
        ps_penalty;
        attrib = own_vecs;
        overhead_vec;
        wcet_vec;
        refine = refine_stats;
      }
    in
    Hashtbl.replace results name result;
    (name, result)
  in
  let procs = List.map analyze_proc ctx.Context.procs in
  let root_result = List.assoc root procs in
  {
    program;
    callgraph = Context.callgraph ctx;
    platform;
    procs;
    wcet = root_result.wcet;
    unrefined_wcet =
      (match refine with
      | None -> None
      | Some _ -> Some (fst (Hashtbl.find results_unrefined root)));
    multilevels = List.rev !multilevels;
  }

(* Fresh-per-call analysis: build a context and run the back end over it
   once.  This is the differential oracle's baseline — sharing one
   context across modes must be bit-identical to this. *)
let analyze ?(annot = Dataflow.Annot.empty) ?refine platform program =
  let ctx = Context.of_platform ~annot platform program in
  analyze_with ?refine ~ctx platform

let footprint t =
  match Platform.l2_config t.platform with
  | None -> None
  | Some config ->
      Some
        (Cache.Shared.combine
           (List.map (fun (_, m) -> Cache.Multilevel.footprint m) t.multilevels)
           config)

let proc_wcet t name = (List.assoc name t.procs).wcet
