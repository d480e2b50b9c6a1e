let classification_histogram (w : Wcet.t) =
  let counts = Hashtbl.create 4 in
  List.iter
    (fun (_, m) ->
      List.iter
        (fun (i : Cache.Multilevel.access_info) ->
          let c = i.Cache.Multilevel.l2_class in
          Hashtbl.replace counts c
            (1 + match Hashtbl.find_opt counts c with Some n -> n | None -> 0))
        (Cache.Multilevel.access_infos m))
    w.Wcet.multilevels;
  List.filter_map
    (fun c ->
      match Hashtbl.find_opt counts c with
      | Some n -> Some (c, n)
      | None -> None)
    [
      Cache.Analysis.Always_hit;
      Cache.Analysis.Persistent;
      Cache.Analysis.Always_miss;
      Cache.Analysis.Not_classified;
    ]

let graph_of (w : Wcet.t) name = Cfg.Callgraph.graph w.Wcet.callgraph name

let render_proc (w : Wcet.t) name =
  let pr = List.assoc name w.Wcet.procs in
  let buf = Buffer.create 256 in
  Printf.bprintf buf "procedure %s\n" name;
  let other = pr.Wcet.wcet - pr.Wcet.ipet.Ipet.wcet - pr.Wcet.ps_penalty in
  Printf.bprintf buf "  WCET: %d cycles (path %d + persistence %d%s)\n"
    pr.Wcet.wcet pr.Wcet.ipet.Ipet.wcet pr.Wcet.ps_penalty
    (if other = 0 then ""
     else Printf.sprintf " + one-time loads %d" other);
  List.iter
    (fun (b : Dataflow.Loop_bounds.bound) ->
      Printf.bprintf buf "  loop at B%d: <= %d back edges (%s)\n"
        b.Dataflow.Loop_bounds.header b.Dataflow.Loop_bounds.max_back_edges
        (match b.Dataflow.Loop_bounds.source with
        | Dataflow.Loop_bounds.Inferred -> "inferred"
        | Dataflow.Loop_bounds.Annotated -> "annotated"))
    pr.Wcet.loop_bounds;
  Printf.bprintf buf "  %-6s %8s %8s %10s\n" "block" "cost" "count"
    "contrib";
  Array.iteri
    (fun id cost ->
      let count = pr.Wcet.ipet.Ipet.block_counts.(id) in
      Printf.bprintf buf "  B%-5d %8d %8d %10d%s\n" id cost count
        (cost * count)
        (if count > 0 then "" else "   (off worst-case path)"))
    pr.Wcet.block_costs;
  Buffer.contents buf

let render (w : Wcet.t) =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "task %s on core %d (%s)\n" w.Wcet.program.Isa.Program.name
    w.Wcet.platform.Platform.core
    (Interconnect.Arbiter.describe w.Wcet.platform.Platform.arbiter);
  Printf.bprintf buf "WCET bound: %d cycles\n" w.Wcet.wcet;
  (match classification_histogram w with
  | [] -> ()
  | hist ->
      Printf.bprintf buf "L2 access classifications:";
      List.iter
        (fun (c, n) ->
          Printf.bprintf buf " %s=%d"
            (Cache.Analysis.classification_to_string c)
            n)
        hist;
      Buffer.add_char buf '\n');
  List.iter
    (fun (name, _) ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf (render_proc w name))
    w.Wcet.procs;
  Buffer.contents buf

let dot_of_proc (w : Wcet.t) name =
  let pr = List.assoc name w.Wcet.procs in
  let g = graph_of w name in
  Cfg.Graph.to_dot
    ~block_label:(fun id ->
      Printf.sprintf "[cost %d x%d]" pr.Wcet.block_costs.(id)
        pr.Wcet.ipet.Ipet.block_counts.(id))
    g
