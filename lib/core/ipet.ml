type result = { wcet : int; block_counts : int array }

exception Flow_infeasible of string

(* Model construction.  The constraint system — flow conservation, loop
   bounds, exclusivity rows — depends on the CFG, bounds, and direction
   but NOT on block costs, so [prepare] builds it once and every solve
   installs its own objective.  The construction order (variables, then
   rows) is fixed and deterministic: two builds over the same inputs
   produce models whose tableaus, and hence pivot trajectories, are
   identical. *)

type built = {
  b_model : Lp.Model.t;
  b_in_terms : (Lp.Q.t * Lp.Model.var) list array; (* per block id *)
  b_edge_vars :
    (Cfg.Block.id * Cfg.Block.id * Cfg.Graph.edge_kind, Lp.Model.var)
    Hashtbl.t;
      (* witness extraction: the refinement loop reads per-edge flows
         out of the integer solution and expresses cuts over them *)
}

let build g ~loops ~loop_bounds ~mutually_exclusive ~direction =
  let n = Cfg.Graph.num_blocks g in
  let m = Lp.Model.create () in
  (* One variable per CFG edge, plus a virtual entry edge. *)
  let edge_vars = Hashtbl.create 32 in
  let edge_var (e : Cfg.Graph.edge) =
    let key = (e.src, e.dst, e.kind) in
    match Hashtbl.find_opt edge_vars key with
    | Some v -> v
    | None ->
        let v =
          Lp.Model.add_var m ~name:(Printf.sprintf "e%d_%d" e.src e.dst)
        in
        Hashtbl.add edge_vars key v;
        v
  in
  let entry_var = Lp.Model.add_var m ~name:"entry" in
  (* Virtual exit edges keep conservation exact on exit blocks. *)
  let exit_vars =
    List.map
      (fun id -> (id, Lp.Model.add_var m ~name:(Printf.sprintf "exit%d" id)))
      g.Cfg.Graph.exits
  in
  let one = Lp.Q.one and neg = Lp.Q.minus_one in
  Lp.Model.add_constraint m [ (one, entry_var) ] Lp.Model.Eq Lp.Q.one;
  (* Incoming terms per block (the block's execution count). *)
  let in_terms id =
    let preds = List.map (fun e -> (one, edge_var e)) (Cfg.Graph.preds g id) in
    if id = g.Cfg.Graph.entry then (one, entry_var) :: preds else preds
  in
  let out_terms id =
    let succs =
      List.map (fun e -> (neg, edge_var e)) (Cfg.Graph.succs g id)
    in
    match List.assoc_opt id exit_vars with
    | Some v -> (neg, v) :: succs
    | None -> succs
  in
  for id = 0 to n - 1 do
    Lp.Model.add_constraint m (in_terms id @ out_terms id) Lp.Model.Eq
      Lp.Q.zero
  done;
  (* Loop bounds: sum(back) <= max_bound * sum(entry edges), and for the
     best-case direction also sum(back) >= min_bound * sum(entries). *)
  List.iter
    (fun (b : Dataflow.Loop_bounds.bound) ->
      match Cfg.Loops.loop_of_header loops b.Dataflow.Loop_bounds.header with
      | None -> ()
      | Some l ->
          let backs =
            List.map (fun e -> (one, edge_var e)) l.Cfg.Loops.back_edges
          in
          let entries coef =
            List.map
              (fun e -> (Lp.Q.of_int coef, edge_var e))
              l.Cfg.Loops.entry_edges
          in
          Lp.Model.add_constraint m
            (backs @ entries (-b.Dataflow.Loop_bounds.max_back_edges))
            Lp.Model.Le Lp.Q.zero;
          if direction = `Minimize && b.Dataflow.Loop_bounds.min_back_edges > 0
          then
            Lp.Model.add_constraint m
              (backs @ entries (-b.Dataflow.Loop_bounds.min_back_edges))
              Lp.Model.Ge Lp.Q.zero)
    loop_bounds;
  (* Mutually exclusive straight-line blocks: x_a + x_b <= 1. *)
  List.iter
    (fun (a, b) ->
      if Cfg.Loops.loop_depth loops a > 0 || Cfg.Loops.loop_depth loops b > 0
      then
        invalid_arg "Ipet.solve: mutually-exclusive blocks must be loop-free"
      else
        Lp.Model.add_constraint m
          (in_terms a @ in_terms b)
          Lp.Model.Le Lp.Q.one)
    mutually_exclusive;
  { b_model = m; b_in_terms = Array.init n in_terms; b_edge_vars = edge_vars }

(* Objective: extremize sum over blocks of cost * count (the solver
   maximizes, so minimization negates costs). *)
let objective_of built ~block_cost ~sign =
  List.concat
    (List.init
       (Array.length built.b_in_terms)
       (fun id ->
         let c = Lp.Q.of_int (sign * block_cost id) in
         List.map
           (fun (coef, v) -> (Lp.Q.mul c coef, v))
           built.b_in_terms.(id)))

let result_of built ~sign outcome =
  match outcome with
  | Lp.Ilp.Optimal (obj, solution) ->
      let obj = Lp.Q.mul (Lp.Q.of_int sign) obj in
      let count_of id =
        List.fold_left
          (fun acc ((_, v) : Lp.Q.t * Lp.Model.var) ->
            acc + solution.((v :> int)))
          0
          built.b_in_terms.(id)
      in
      {
        wcet = Lp.Q.to_int_exn obj;
        block_counts = Array.init (Array.length built.b_in_terms) count_of;
      }
  | Lp.Ilp.Infeasible ->
      raise (Flow_infeasible "IPET constraint system is infeasible")
  | Lp.Ilp.Unbounded ->
      raise
        (Flow_infeasible
           "IPET objective unbounded: a loop is missing its bound")

(* ------------------------------------------------------------------ *)
(* Prepared path: one constraint system, many objectives               *)
(* ------------------------------------------------------------------ *)

type prepared = {
  p_built : built;
  p_sign : int;
  p_snapshot : Lp.Simplex.prepared;
}

let prepare g ~loops ~loop_bounds ?(mutually_exclusive = [])
    ?(direction = `Maximize) () =
  let built = build g ~loops ~loop_bounds ~mutually_exclusive ~direction in
  let sign = match direction with `Maximize -> 1 | `Minimize -> -1 in
  {
    p_built = built;
    p_sign = sign;
    p_snapshot = Lp.Simplex.prepare built.b_model ~extra:[];
  }

let model p ~block_cost =
  let m = p.p_built.b_model in
  Lp.Model.set_objective m
    (objective_of p.p_built ~block_cost ~sign:p.p_sign);
  m

let solve_prepared p ~block_cost =
  let m = model p ~block_cost in
  result_of p.p_built ~sign:p.p_sign
    (Lp.Ilp.solve_result_prepared p.p_snapshot m).Lp.Ilp.outcome

let solve g ~loop_bounds ~block_cost ?mutually_exclusive ?direction () =
  let loops = Cfg.Loops.analyze g (Cfg.Dominators.compute g) in
  solve_prepared
    (prepare g ~loops ~loop_bounds ?mutually_exclusive ?direction ())
    ~block_cost

(* ------------------------------------------------------------------ *)
(* Infeasible-path refinement: CEGAR over the prepared tableau         *)
(* ------------------------------------------------------------------ *)

type refine_iteration = {
  ri_wcet : int;
  ri_cut : Refine.cut;
  ri_warm_pivots : int;
}

type refine_stats = {
  rf_initial : int;
  rf_iterations : refine_iteration list;
  rf_exhausted : bool;
}

let refine_cuts_applied s = List.length s.rf_iterations

let flow_of built solution (e : Cfg.Graph.edge) =
  match
    Hashtbl.find_opt built.b_edge_vars
      (e.Cfg.Graph.src, e.Cfg.Graph.dst, e.Cfg.Graph.kind)
  with
  | Some v -> solution.((v : Lp.Model.var :> int))
  | None -> 0

let cut_row p (cut : Refine.cut) =
  ( List.filter_map
      (fun (e : Cfg.Graph.edge) ->
        Option.map
          (fun v -> (Lp.Q.one, v))
          (Hashtbl.find_opt p.p_built.b_edge_vars
             (e.Cfg.Graph.src, e.Cfg.Graph.dst, e.Cfg.Graph.kind)))
      cut.Refine.edges,
    Lp.Model.Le,
    Lp.Q.of_int cut.Refine.bound )

(* The CEGAR loop.  Iteration 0 is the ordinary prepared replay (so a
   refined run's starting point is bit-identical to the unrefined
   solve); each further iteration extracts per-edge flows from the
   integer witness, finds the first candidate cut the witness violates,
   appends it to the *root LP state* with one dual-simplex run
   ([Simplex.add_le] — no phase 1, every previous pivot reused), and
   re-runs branch-and-bound from the extended state.  Cuts accumulate by
   chaining states, so iteration [i]'s tableau carries all [i] cuts.

   Only the maximizing (WCET) direction refines: cuts shrink the
   feasible flows, which tightens a maximum but would *raise* a
   minimum — sound for BCET too, but out of scope here, so the
   minimizing direction returns the plain solve unrefined. *)
let refine_prepared p ~block_cost ~candidates ~(config : Refine.config) =
  if p.p_sign <> 1 || candidates = [] || config.Refine.max_iterations = 0
  then
    let r = solve_prepared p ~block_cost in
    (r, { rf_initial = r.wcet; rf_iterations = []; rf_exhausted = false })
  else begin
    let built = p.p_built in
    let m = model p ~block_cost in
    let ilp root =
      match root with
      | Lp.Simplex.Optimal _, Some _ ->
          (Lp.Ilp.solve_result_state m root).Lp.Ilp.outcome
      | (Lp.Simplex.Infeasible | Lp.Simplex.Optimal _), _ -> Lp.Ilp.Infeasible
      | Lp.Simplex.Unbounded, _ -> Lp.Ilp.Unbounded
    in
    let root0 = Lp.Simplex.solve_prepared p.p_snapshot m in
    let outcome0 = ilp root0 in
    let initial =
      match outcome0 with
      | Lp.Ilp.Optimal (obj, _) -> Lp.Q.to_int_exn obj
      | _ -> 0
    in
    let rec loop iter root applied rev_iters outcome =
      match outcome with
      | (Lp.Ilp.Infeasible | Lp.Ilp.Unbounded) ->
          (outcome, List.rev rev_iters, false)
      | Lp.Ilp.Optimal (_, solution) -> (
          let flow = flow_of built solution in
          match
            List.find_opt
              (fun c -> (not (List.mem c applied)) && Refine.violated ~flow c)
              candidates
          with
          | None -> (outcome, List.rev rev_iters, false)
          | Some _
            when iter >= config.Refine.max_iterations
                 || List.length applied >= config.Refine.max_cuts ->
              (outcome, List.rev rev_iters, true)
          | Some cut -> (
              match snd root with
              | None -> (outcome, List.rev rev_iters, true)
              | Some state -> (
                  let inject () =
                    let p0 = Lp.Simplex.pivots () in
                    let terms, _, bound = cut_row p cut in
                    let root' = Lp.Simplex.add_le state ~terms ~bound in
                    (root', ilp root', Lp.Simplex.pivots () - p0)
                  in
                  let root', outcome', warm =
                    if not (Obs.enabled ()) then inject ()
                    else
                      Obs.span ~cat:"refine"
                        ~args:
                          [
                            ("iteration", Obs.Event.Int iter);
                            ("cut_bound", Obs.Event.Int cut.Refine.bound);
                          ]
                        "refine.iteration" inject
                  in
                  if Obs.enabled () then begin
                    Obs.add "refine.cuts" 1;
                    Obs.counter ~cat:"refine"
                      ~args:
                        [
                          ("cuts", Obs.Event.Int (List.length applied + 1));
                          ("iteration", Obs.Event.Int (iter + 1));
                        ]
                      "refine.cuts"
                  end;
                  match outcome' with
                  | Lp.Ilp.Optimal (obj, _) ->
                      let it =
                        {
                          ri_wcet = Lp.Q.to_int_exn obj;
                          ri_cut = cut;
                          ri_warm_pivots = warm;
                        }
                      in
                      loop (iter + 1) root' (cut :: applied) (it :: rev_iters)
                        outcome'
                  | Lp.Ilp.Infeasible | Lp.Ilp.Unbounded ->
                      (* A sound cut cannot empty the region of a program
                         that executes at all; if it does (contradictory
                         annotations), keep the last sound bound. *)
                      (outcome, List.rev rev_iters, false))))
    in
    let final, iters, exhausted = loop 0 root0 [] [] outcome0 in
    let r = result_of built ~sign:p.p_sign final in
    (r, { rf_initial = initial; rf_iterations = iters; rf_exhausted = exhausted })
  end
