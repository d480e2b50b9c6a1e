(* Mode-invariant analysis context.

   Every approach mode of the survey — oblivious, joint shared-L2,
   bypass, partitioned, locked, dynamic — analyzes the same program over
   the same L1 geometry; only the L2 view, arbiter costs, and therefore
   the IPET objective coefficients differ.  The front end splits in two:
   [facts], once per (program, annotations) — callgraph, per-procedure
   dominators / loops / value analyses / loop bounds, and the lazily
   prepared (objective-free) IPET systems — and the per-geometry context
   over them — L1i/L1d ACS fixpoints, the per-procedure L2 access lists
   and the multilevel memo.  {!Wcet.analyze_with} and
   {!Bcet.analyze_with} then run only the thin per-mode back end. *)

exception Not_analysable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Not_analysable s)) fmt

(* L2 accesses of a block: instruction fetches interleaved with data
   accesses, in program order, with targets in L2 geometry.  Platforms
   with a method cache route no fetches through the L2.  The data
   accesses are indexed by instruction once — a block with [f] fetches
   and [d] data accesses costs O(f + d), not the O(f * d) a per-fetch
   filter of the whole data list would. *)
let combined_l2_accesses ~include_fetches l2cfg g va id =
  let data = Cache.Analysis.data_accesses l2cfg g va id in
  if not include_fetches then data
  else
    let fetches = Cache.Analysis.instruction_accesses l2cfg g id in
    let by_instr = Hashtbl.create (List.length data) in
    (* Reversed per-instruction buckets; reversed again at lookup so each
       instruction's data accesses keep their program order. *)
    List.iter
      (fun (a : Cache.Analysis.access) ->
        let prev =
          match Hashtbl.find_opt by_instr a.Cache.Analysis.instr with
          | Some l -> l
          | None -> []
        in
        Hashtbl.replace by_instr a.Cache.Analysis.instr (a :: prev))
      data;
    List.concat_map
      (fun (f : Cache.Analysis.access) ->
        f
        ::
        (match Hashtbl.find_opt by_instr f.Cache.Analysis.instr with
        | Some l -> List.rev l
        | None -> []))
      fetches

(* A cache geometry as a structural key (Config.t is a private record,
   but its triple is the whole identity). *)
let config_key (c : Cache.Config.t) =
  (c.Cache.Config.sets, c.Cache.Config.assoc, c.Cache.Config.line_size)

(* The geometry-free half of a procedure's front end. *)
type proc_facts = {
  f_graph : Cfg.Graph.t;
  f_dom : Cfg.Dominators.t;
  f_loops : Cfg.Loops.t;
  f_va : Dataflow.Value_analysis.result;
  f_va_plain : Dataflow.Value_analysis.result Lazy.t;
  f_loop_bounds : Dataflow.Loop_bounds.bound list;
  f_entry : Cache.Analysis.entry_state;
  f_mutually_exclusive : (Cfg.Block.id * Cfg.Block.id) list;
  f_ipet_wcet : Ipet.prepared Lazy.t;
  f_ipet_bcet : Ipet.prepared Lazy.t;
  f_refine_candidates : Refine.cut list Lazy.t;
}

type facts = {
  program : Isa.Program.t;
  callgraph : Cfg.Callgraph.t;
  root : string;
  proc_facts : (string * proc_facts) list;  (** bottom-up order *)
}

type proc = {
  name : string;
  graph : Cfg.Graph.t;
  dom : Cfg.Dominators.t;
  loops : Cfg.Loops.t;
  va : Dataflow.Value_analysis.result;
      (** interprocedurally refined ([call_clobbers]), as the WCET/BCET
          analyses consume it *)
  va_plain : Dataflow.Value_analysis.result Lazy.t;
      (** the sound default (every register forgotten at calls), as the
          {!Multicore} helpers — bypass selection, lock-profit scans —
          consume it; the two give different interval (hence access
          target) sets, so both flavors are kept to preserve
          bit-identity of each consumer ([va] itself without calls) *)
  loop_bounds : Dataflow.Loop_bounds.bound list;
  entry : Cache.Analysis.entry_state;
  l1i : Cache.Analysis.t option;  (** [None] on method-cache platforms *)
  l1d : Cache.Analysis.t;
  mutually_exclusive : (Cfg.Block.id * Cfg.Block.id) list;
  ipet_wcet : Ipet.prepared Lazy.t;
  ipet_bcet : Ipet.prepared Lazy.t;
  refine_candidates : Refine.cut list Lazy.t;
      (** mode-invariant semantic conflict cuts, derived from the value
          analysis once and replayed by every refining mode *)
  l2_access_memo :
    (int * int * int, Cfg.Block.id -> Cache.Analysis.access list) Hashtbl.t;
}

type t = {
  facts : facts;
  program : Isa.Program.t;
  root : string;
  l1i_config : Cache.Config.t;
  l1d_config : Cache.Config.t;
  method_cache : Cache.Method_cache.config option;
  mc_analysis : (Cache.Method_cache.config * Cache.Method_cache.analysis) option;
  procs : (string * proc) list;  (** bottom-up order *)
  multilevel_memo :
    (string * (int * int * int) * string, Cache.Multilevel.t) Hashtbl.t;
}

let callgraph t = t.facts.callgraph

let proc t name =
  match List.assoc_opt name t.procs with
  | Some p -> p
  | None -> invalid_arg ("Context.proc: unknown procedure " ^ name)

(* Per-block combined L2 access lists in a given L2 geometry, memoized
   per geometry (partitioned slices differ per core; everything else
   shares the whole-L2 entry).  The block lists themselves are cached so
   the multilevel fixpoint, footprints, and per-mode classification
   passes all read the same physical lists. *)
let l2_accesses t (p : proc) (config : Cache.Config.t) =
  let key = config_key config in
  match Hashtbl.find_opt p.l2_access_memo key with
  | Some f -> f
  | None ->
      let include_fetches = t.method_cache = None in
      let cache = Hashtbl.create 32 in
      let f id =
        match Hashtbl.find_opt cache id with
        | Some l -> l
        | None ->
            let l =
              combined_l2_accesses ~include_fetches config p.graph p.va id
            in
            Hashtbl.add cache id l;
            l
      in
      Hashtbl.add p.l2_access_memo key f;
      f

(* The multilevel L2 fixpoint is identical across every mode that feeds
   it the same geometry and the same bypass semantics: private whole-L2
   (oblivious), shared (joint, both phases — co-runner conflicts are
   applied to the *result* by [Cache.Shared.interfere], not to the
   fixpoint), locked, and dynamic all share one entry.  [bypass_key]
   follows the {!Memo} salt discipline: it must encode the [bypass]
   closure's semantics ("nobypass" for the constant-false predicate, the
   line list otherwise); with no key the fixpoint is computed fresh and
   not memoized, never wrongly shared. *)
let multilevel t (p : proc) ~config ?bypass_key
    ?(bypass = fun (_ : int) -> false) () =
  let compute () =
    let cac_of (a : Cache.Analysis.access) =
      match a.Cache.Analysis.kind with
      | Cache.Analysis.Fetch -> (
          match p.l1i with
          | Some l1i -> Cache.Multilevel.cac_of_l1_analysis l1i a
          | None -> Cache.Multilevel.Never)
      | Cache.Analysis.Data -> Cache.Multilevel.cac_of_l1_analysis p.l1d a
    in
    Cache.Multilevel.analyze config p.graph ~entry:p.entry ~cac_of
      ~l2_accesses:(l2_accesses t p config) ~bypass ()
  in
  match bypass_key with
  | None -> compute ()
  | Some key -> (
      let k = (p.name, config_key config, key) in
      match Hashtbl.find_opt t.multilevel_memo k with
      | Some m -> m
      | None ->
          let m = compute () in
          Hashtbl.add t.multilevel_memo k m;
          m)

let program_args (program : Isa.Program.t) =
  [ ("program", Obs.Event.Str program.Isa.Program.name) ]

let build_facts ~annot program =
  let callgraph =
    Obs.span ~cat:"phase" "cfg-build" (fun () ->
        try Cfg.Callgraph.build program with
        | Cfg.Callgraph.Recursive cycle ->
            fail "recursive call cycle: %s" (String.concat " -> " cycle)
        | Invalid_argument msg -> fail "%s" msg)
  in
  let root = callgraph.Cfg.Callgraph.root in
  let clobbers =
    Obs.span ~cat:"phase" "cfg-build" (fun () ->
        Dataflow.Clobbers.compute callgraph)
  in
  let call_clobbers = Dataflow.Clobbers.clobbered clobbers in
  let proc_facts (name, g) =
    let dom, loops =
      Obs.span ~cat:"phase" "cfg-loops" (fun () ->
          let dom = Cfg.Dominators.compute g in
          let loops =
            try Cfg.Loops.analyze g dom
            with Cfg.Loops.Irreducible msg -> fail "%s: %s" name msg
          in
          (dom, loops))
    in
    let va =
      Obs.span ~cat:"phase" "value-analysis" (fun () ->
          Dataflow.Value_analysis.analyze ~call_clobbers g)
    in
    let loop_bounds =
      Obs.span ~cat:"phase" "loop-bounds" (fun () ->
          try Dataflow.Loop_bounds.infer ~call_clobbers g dom loops va annot
          with Dataflow.Loop_bounds.Unbounded msg -> fail "%s" msg)
    in
    let mutually_exclusive =
      List.filter_map
        (fun (la, lb) ->
          match
            ( Cfg.Graph.block_of_instr g (Isa.Program.label_index program la),
              Cfg.Graph.block_of_instr g (Isa.Program.label_index program lb)
            )
          with
          | Some a, Some b -> Some (a, b)
          | _ -> None)
        (Dataflow.Annot.infeasible_pairs annot ~proc:name)
    in
    ( name,
      {
        f_graph = g;
        f_dom = dom;
        f_loops = loops;
        f_va = va;
        (* The two flavors differ only at a [Call]. *)
        f_va_plain =
          (if g.Cfg.Graph.calls = [] then Lazy.from_val va
           else lazy (Dataflow.Value_analysis.analyze g));
        f_loop_bounds = loop_bounds;
        f_entry =
          (if name = root then Cache.Analysis.Cold
           else Cache.Analysis.Unknown_entry);
        f_mutually_exclusive = mutually_exclusive;
        f_ipet_wcet =
          lazy
            (Ipet.prepare g ~loops ~loop_bounds ~mutually_exclusive
               ~direction:`Maximize ());
        f_ipet_bcet =
          lazy (Ipet.prepare g ~loops ~loop_bounds ~direction:`Minimize ());
        f_refine_candidates =
          lazy
            (Refine.candidates ~graph:g ~loops ~loop_bounds ~va ~call_clobbers
               ());
      } )
  in
  {
    program;
    callgraph;
    root;
    proc_facts = List.map proc_facts (Cfg.Callgraph.bottom_up callgraph);
  }

let facts ?(annot = Dataflow.Annot.empty) program =
  Obs.span ~cat:"ctx" ~args:(program_args program) "facts.build" (fun () ->
      build_facts ~annot program)

let build_geometry (facts : facts) ~l1i ~l1d ?method_cache () =
  let mc_analysis =
    Obs.span ~cat:"phase" "cache-analysis" (fun () ->
        Option.map
          (fun mc -> (mc, Cache.Method_cache.analyze facts.callgraph mc))
          method_cache)
  in
  let geometry_proc (name, f) =
    let g = f.f_graph and entry = f.f_entry in
    let l1i_a, l1d_a =
      Obs.span ~cat:"phase" "cache-analysis" (fun () ->
          let l1i_a =
            if mc_analysis <> None then None
            else
              Some
                (Cache.Analysis.analyze l1i g ~entry
                   ~accesses:(Cache.Analysis.instruction_accesses l1i g))
          in
          let l1d_a =
            Cache.Analysis.analyze l1d g ~entry
              ~accesses:(Cache.Analysis.data_accesses l1d g f.f_va)
          in
          (l1i_a, l1d_a))
    in
    ( name,
      {
        name;
        graph = g;
        dom = f.f_dom;
        loops = f.f_loops;
        va = f.f_va;
        va_plain = f.f_va_plain;
        loop_bounds = f.f_loop_bounds;
        entry;
        l1i = l1i_a;
        l1d = l1d_a;
        mutually_exclusive = f.f_mutually_exclusive;
        ipet_wcet = f.f_ipet_wcet;
        ipet_bcet = f.f_ipet_bcet;
        refine_candidates = f.f_refine_candidates;
        l2_access_memo = Hashtbl.create 2;
      } )
  in
  {
    facts;
    program = facts.program;
    root = facts.root;
    l1i_config = l1i;
    l1d_config = l1d;
    method_cache;
    mc_analysis;
    procs = List.map geometry_proc facts.proc_facts;
    multilevel_memo = Hashtbl.create 8;
  }

let of_facts (facts : facts) ~l1i ~l1d ?method_cache () =
  Obs.span ~cat:"ctx" ~args:(program_args facts.program) "ctx.build"
    (fun () -> build_geometry facts ~l1i ~l1d ?method_cache ())

let build ?annot ~l1i ~l1d ?method_cache program =
  of_facts (facts ?annot program) ~l1i ~l1d ?method_cache ()

let of_platform ?annot (platform : Platform.t) program =
  build ?annot ~l1i:platform.Platform.l1i ~l1d:platform.Platform.l1d
    ?method_cache:platform.Platform.method_cache program

(* A context only serves platforms over the geometry it precomputed the
   L1 fixpoints for; mode-varying fields (L2 view, arbiter, core id,
   refresh) are free. *)
let compatible t (platform : Platform.t) =
  config_key t.l1i_config = config_key platform.Platform.l1i
  && config_key t.l1d_config = config_key platform.Platform.l1d
  && t.method_cache = platform.Platform.method_cache

let check_compatible t platform =
  if not (compatible t platform) then
    invalid_arg
      "Context: platform L1/method-cache geometry differs from the \
       context's; build a context per geometry"
