module Vec = Pipeline.Cost.Vec

type proc_result = {
  name : string;
  bcet : int;
  ipet : Ipet.result;
  attrib : Vec.t array;
  bcet_vec : Vec.t;
}

type t = {
  program : Isa.Program.t;
  callgraph : Cfg.Callgraph.t;
  procs : (string * proc_result) list;
  bcet : int;
}

(* Optimistic per-instruction cost: one-cycle fetch, one-cycle memory
   (L1 hit), no bus wait, branches fall through (no redirect penalty);
   unconditional transfers still pay the redirect. *)
let best_exec_cost (lat : Pipeline.Latencies.t) = function
  | Isa.Instr.Alu (op, _, _, _) | Isa.Instr.Alui (op, _, _, _) -> (
      match op with
      | Isa.Instr.Mul -> lat.Pipeline.Latencies.mul
      | Isa.Instr.Div | Isa.Instr.Rem -> lat.Pipeline.Latencies.div
      | Isa.Instr.Add | Isa.Instr.Sub | Isa.Instr.And | Isa.Instr.Or
      | Isa.Instr.Xor | Isa.Instr.Sll | Isa.Instr.Srl | Isa.Instr.Slt ->
          lat.Pipeline.Latencies.base)
  | Isa.Instr.Branch _ -> lat.Pipeline.Latencies.base
  | Isa.Instr.Jump _ | Isa.Instr.Call _ | Isa.Instr.Ret ->
      lat.Pipeline.Latencies.base + lat.Pipeline.Latencies.branch_penalty
  | Isa.Instr.Load _ | Isa.Instr.Store _ | Isa.Instr.Nop | Isa.Instr.Halt ->
      lat.Pipeline.Latencies.base

(* Category split of the optimistic cost: everything is local compute
   except the redirect penalty of unconditional transfers. *)
let best_exec_vec (lat : Pipeline.Latencies.t) ins =
  let stall =
    match ins with
    | Isa.Instr.Jump _ | Isa.Instr.Call _ | Isa.Instr.Ret ->
        lat.Pipeline.Latencies.branch_penalty
    | _ -> 0
  in
  { Vec.zero with compute = best_exec_cost lat ins - stall; stall }

let best_block_vec (lat : Pipeline.Latencies.t) g id =
  let b = Cfg.Graph.block g id in
  List.fold_left
    (fun acc i ->
      let ins = Isa.Program.instr g.Cfg.Graph.program i in
      let mem =
        match ins with
        | Isa.Instr.Load (sp, _, _, _) | Isa.Instr.Store (sp, _, _, _) ->
            if Isa.Layout.is_cacheable sp then lat.Pipeline.Latencies.l1_hit
            else lat.Pipeline.Latencies.io
        | _ -> 0
      in
      Vec.add acc
        (Vec.add (best_exec_vec lat ins)
           { Vec.zero with compute = lat.Pipeline.Latencies.l1_hit + mem }))
    Vec.zero
    (Cfg.Block.instr_indices b)

(* The best-case back end consumes only the mode-invariant part of the
   context: graphs, loop bounds, and the prepared minimize-direction
   IPET systems.  No cache or arbiter state is read — the optimistic
   cost model assumes all-hit — so one context serves BCET alongside
   every WCET mode. *)
let analyze_with ~ctx (platform : Platform.t) =
  Context.check_compatible ctx platform;
  let fail fmt =
    Printf.ksprintf (fun s -> raise (Wcet.Not_analysable s)) fmt
  in
  let lat = platform.Platform.latencies in
  let program = ctx.Context.program in
  let results = Hashtbl.create 8 in
  let procs =
    List.map
      (fun (name, (p : Context.proc)) ->
        let g = p.Context.graph in
        let own_vecs =
          Array.init (Cfg.Graph.num_blocks g) (best_block_vec lat g)
        in
        let full_vecs =
          Array.mapi
            (fun id v ->
              match Cfg.Graph.callee_of_block g id with
              | Some callee -> (
                  match Hashtbl.find_opt results callee with
                  | Some (r : proc_result) -> Vec.add v r.bcet_vec
                  | None -> fail "callee %s analyzed out of order" callee)
              | None -> v)
            own_vecs
        in
        let ipet =
          Obs.span ~cat:"phase" "ipet-solve" (fun () ->
              try
                Ipet.solve_prepared
                  (Lazy.force p.Context.ipet_bcet)
                  ~block_cost:(fun id -> Vec.total full_vecs.(id))
              with Ipet.Flow_infeasible msg -> fail "%s: %s" name msg)
        in
        let bcet_vec =
          let acc = ref Vec.zero in
          Array.iteri
            (fun id v ->
              acc := Vec.add !acc (Vec.scale ipet.Ipet.block_counts.(id) v))
            full_vecs;
          !acc
        in
        assert (Vec.total bcet_vec = ipet.Ipet.wcet);
        let r =
          { name; bcet = ipet.Ipet.wcet; ipet; attrib = own_vecs; bcet_vec }
        in
        Hashtbl.replace results name r;
        (name, r))
      ctx.Context.procs
  in
  let root = List.assoc ctx.Context.root procs in
  { program; callgraph = Context.callgraph ctx; procs; bcet = root.bcet }

let analyze ?(annot = Dataflow.Annot.empty) (platform : Platform.t) program =
  let ctx = Context.of_platform ~annot platform program in
  analyze_with ~ctx platform

let analytic_quotient ~bcet ~wcet =
  if wcet <= 0 then 1.0
  else Float.max 0.0 (Float.min 1.0 (float_of_int bcet /. float_of_int wcet))
