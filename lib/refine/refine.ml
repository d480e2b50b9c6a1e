type config = { max_iterations : int; max_cuts : int }

let default = { max_iterations = 8; max_cuts = 16 }

let salt c = Printf.sprintf "refine:i%dc%d" c.max_iterations c.max_cuts

type cut = {
  edges : Cfg.Graph.edge list;
  bound : int;
  reason : string;
}

let violated ~flow cut =
  List.fold_left (fun acc e -> acc + flow e) 0 cut.edges > cut.bound

let pp_cut ppf cut =
  Format.fprintf ppf "@[<h>%a <= %d (%s)@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " + ")
       (fun ppf (e : Cfg.Graph.edge) ->
         Format.fprintf ppf "e%d->%d%s" e.Cfg.Graph.src e.Cfg.Graph.dst
           (match e.Cfg.Graph.kind with
           | Cfg.Graph.Taken -> "t"
           | Cfg.Graph.Fallthrough -> "f")))
    cut.edges cut.bound cut.reason

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(* Registers any instruction of the procedure may write, calls included
   (via the same clobber sets the value analysis used).  A register
   outside this set holds one value for the whole invocation, which is
   what lets two disjoint constraints on it contradict each other. *)
let written_regs (g : Cfg.Graph.t) ~call_clobbers =
  let written = Array.make Isa.Instr.num_regs false in
  Array.iter
    (fun (b : Cfg.Block.t) ->
      for i = b.Cfg.Block.first to b.Cfg.Block.last do
        match g.Cfg.Graph.program.Isa.Program.code.(i) with
        | Isa.Instr.Alu (_, rd, _, _)
        | Isa.Instr.Alui (_, rd, _, _)
        | Isa.Instr.Load (_, rd, _, _) ->
            written.(rd) <- true
        | Isa.Instr.Call callee ->
            List.iter (fun r -> written.(r) <- true) (call_clobbers callee)
        | _ -> ()
      done)
    g.Cfg.Graph.blocks;
  written

let branch_of (g : Cfg.Graph.t) (b : Cfg.Block.t) =
  match Cfg.Block.terminator g.Cfg.Graph.program b with
  | Isa.Instr.Branch (_, ra, rb, _) -> Some (ra, rb)
  | _ -> None

let kind_key = function Cfg.Graph.Taken -> 0 | Cfg.Graph.Fallthrough -> 1

let edge_compare (a : Cfg.Graph.edge) (b : Cfg.Graph.edge) =
  compare
    (a.Cfg.Graph.src, a.Cfg.Graph.dst, kind_key a.Cfg.Graph.kind)
    (b.Cfg.Graph.src, b.Cfg.Graph.dst, kind_key b.Cfg.Graph.kind)

(* Dead branch edges: the condition refined along the edge empties a
   tested register's interval, so no concrete state traverses it. *)
let dead_edge_cuts g ~va =
  let cuts = ref [] in
  Array.iter
    (fun (b : Cfg.Block.t) ->
      match branch_of g b with
      | None -> ()
      | Some (ra, rb) ->
          List.iter
            (fun (e : Cfg.Graph.edge) ->
              let st = Dataflow.Value_analysis.edge_state va g e in
              let dead r =
                Dataflow.Interval.is_bottom
                  (Dataflow.Value_analysis.reg_interval st r)
              in
              if dead ra || dead rb then
                cuts :=
                  {
                    edges = [ e ];
                    bound = 0;
                    reason =
                      Printf.sprintf "dead branch edge B%d->B%d"
                        e.Cfg.Graph.src e.Cfg.Graph.dst;
                  }
                  :: !cuts)
            (Cfg.Graph.succs g b.Cfg.Block.id))
    g.Cfg.Graph.blocks;
  List.rev !cuts

(* One branch edge's constraint on an unwritten register: the interval
   the refined edge state leaves it, when the refinement actually bit
   (i.e. is strictly below top). *)
type edge_constraint = {
  c_edge : Cfg.Graph.edge;
  c_reg : Isa.Instr.reg;
  c_interval : Dataflow.Interval.t;
}

let edge_constraints g ~va ~written =
  let cs = ref [] in
  Array.iter
    (fun (b : Cfg.Block.t) ->
      match branch_of g b with
      | None -> ()
      | Some (ra, rb) ->
          List.iter
            (fun (e : Cfg.Graph.edge) ->
              let st = Dataflow.Value_analysis.edge_state va g e in
              List.iter
                (fun r ->
                  if r <> 0 && not written.(r) then
                    let i = Dataflow.Value_analysis.reg_interval st r in
                    if
                      (not (Dataflow.Interval.is_bottom i))
                      && not (Dataflow.Interval.equal i Dataflow.Interval.top)
                    then cs := { c_edge = e; c_reg = r; c_interval = i } :: !cs)
                (List.sort_uniq compare [ ra; rb ]))
            (Cfg.Graph.succs g b.Cfg.Block.id))
    g.Cfg.Graph.blocks;
  List.rev !cs

(* How often two conflicting edges could jointly fire if the conflict
   were ignored: once outside all loops, once per iteration when both
   sit in the same outermost loop (its entry edges fire at most once per
   invocation, so iterations <= max back edges + 1).  Anything else —
   different loops, nested loops — is skipped rather than guessed. *)
let joint_bound ~loops ~loop_bounds b1 b2 =
  match
    ( Cfg.Loops.innermost_containing loops b1,
      Cfg.Loops.innermost_containing loops b2 )
  with
  | None, None -> Some 1
  | Some l1, Some l2
    when l1.Cfg.Loops.header = l2.Cfg.Loops.header
         && l1.Cfg.Loops.parent = None ->
      Option.map
        (fun (bd : Dataflow.Loop_bounds.bound) ->
          bd.Dataflow.Loop_bounds.max_back_edges + 1)
        (List.find_opt
           (fun (bd : Dataflow.Loop_bounds.bound) ->
             bd.Dataflow.Loop_bounds.header = l1.Cfg.Loops.header)
           loop_bounds)
  | _ -> None

(* Conflicting branch pairs: two edges in different blocks constrain the
   same never-written register to disjoint intervals.  A single
   invocation holds one value for that register, so it cannot satisfy
   both constraints: the edges' joint traversal count is bounded by how
   often the program reaches their common scope. *)
let conflict_cuts g ~loops ~loop_bounds ~va ~written =
  let cs = edge_constraints g ~va ~written in
  let cuts = ref [] in
  List.iter
    (fun c1 ->
      List.iter
        (fun c2 ->
          if
            c1.c_reg = c2.c_reg
            && c1.c_edge.Cfg.Graph.src < c2.c_edge.Cfg.Graph.src
            && Dataflow.Interval.is_bottom
                 (Dataflow.Interval.meet c1.c_interval c2.c_interval)
          then
            match
              joint_bound ~loops ~loop_bounds c1.c_edge.Cfg.Graph.src
                c2.c_edge.Cfg.Graph.src
            with
            | None -> ()
            | Some bound ->
                cuts :=
                  {
                    edges = [ c1.c_edge; c2.c_edge ];
                    bound;
                    reason =
                      Printf.sprintf
                        "r%d in %s at B%d conflicts with r%d in %s at B%d"
                        c1.c_reg
                        (Dataflow.Interval.to_string c1.c_interval)
                        c1.c_edge.Cfg.Graph.src c2.c_reg
                        (Dataflow.Interval.to_string c2.c_interval)
                        c2.c_edge.Cfg.Graph.src;
                  }
                  :: !cuts)
        cs)
    cs;
  (* A pair of blocks can conflict through several registers or interval
     shapes; one cut per edge pair (the tightest bound) is enough. *)
  let by_edges = Hashtbl.create 16 in
  List.iter
    (fun cut ->
      let key =
        List.map
          (fun (e : Cfg.Graph.edge) ->
            (e.Cfg.Graph.src, e.Cfg.Graph.dst, kind_key e.Cfg.Graph.kind))
          cut.edges
      in
      match Hashtbl.find_opt by_edges key with
      | Some prev when prev.bound <= cut.bound -> ()
      | _ -> Hashtbl.replace by_edges key cut)
    !cuts;
  Hashtbl.fold (fun _ cut acc -> cut :: acc) by_edges []
  |> List.sort (fun a b ->
         compare
           (List.map (fun e -> (e.Cfg.Graph.src, e.Cfg.Graph.dst)) a.edges,
            a.bound)
           (List.map (fun e -> (e.Cfg.Graph.src, e.Cfg.Graph.dst)) b.edges,
            b.bound))

let candidates ~graph ~loops ~loop_bounds ~va ~call_clobbers () =
  let written = written_regs graph ~call_clobbers in
  let dead =
    List.sort (fun a b -> edge_compare (List.hd a.edges) (List.hd b.edges))
      (dead_edge_cuts graph ~va)
  in
  dead @ conflict_cuts graph ~loops ~loop_bounds ~va ~written
