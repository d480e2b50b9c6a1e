(* Flat cycle attribution over (procedure, block) x category.

   The analytic bound is compositional: a calling block's cost folds in
   the callee's whole WCET.  The simulator's counters are flat: a
   callee's cycles land on the callee's blocks.  To compare the two
   sides block by block, the analytic side is flattened here by
   propagating execution multiplicities top-down over the call graph —
   the root runs once, and each call site hands its callee
   [count(call block) * mult(caller)] executions.  Everything is exact
   integer arithmetic on vectors the analyses already produced, so the
   redistribution cannot leak or invent cycles; the [assert]s pin the
   per-category sums to the bound. *)

module Vec = Pipeline.Cost.Vec

type row = { proc : string; block : int; count : int option; vec : Vec.t }

type t = {
  label : string;
  bound : int;
  rows : row list;
  overheads : (string * Vec.t) list;
  total : Vec.t;
}

let sort_rows rows =
  List.sort (fun a b -> compare (a.proc, a.block) (b.proc, b.block)) rows

let sum_vecs vecs = List.fold_left Vec.add Vec.zero vecs

(* Multiplicity propagation shared by the WCET and BCET sides.  [procs]
   is bottom-up (root last); reversing it visits callers before their
   callees, so by the time a procedure is charged its multiplicity is
   final. *)
let flatten ~callgraph:cg ~procs ~counts_of ~attrib_of ~overhead_of =
  let mult = Hashtbl.create 16 in
  Hashtbl.replace mult cg.Cfg.Callgraph.root 1;
  let rows = ref [] and overheads = ref [] in
  List.iter
    (fun (name, pr) ->
      let m = Option.value ~default:0 (Hashtbl.find_opt mult name) in
      let g = Cfg.Callgraph.graph cg name in
      let counts = counts_of pr and attrib = attrib_of pr in
      for b = 0 to Cfg.Graph.num_blocks g - 1 do
        let n = counts.(b) * m in
        rows :=
          { proc = name; block = b; count = Some n; vec = Vec.scale n attrib.(b) }
          :: !rows;
        match Cfg.Graph.callee_of_block g b with
        | Some callee ->
            let cur = Option.value ~default:0 (Hashtbl.find_opt mult callee) in
            Hashtbl.replace mult callee (cur + n)
        | None -> ()
      done;
      match overhead_of pr with
      | Some ov -> overheads := (name, Vec.scale m ov) :: !overheads
      | None -> ())
    (List.rev procs);
  let rows = sort_rows !rows and overheads = List.rev !overheads in
  let total =
    Vec.add
      (sum_vecs (List.map (fun r -> r.vec) rows))
      (sum_vecs (List.map snd overheads))
  in
  (rows, overheads, total)

let of_wcet (w : Core.Wcet.t) =
  let rows, overheads, total =
    flatten ~callgraph:w.Core.Wcet.callgraph ~procs:w.Core.Wcet.procs
      ~counts_of:(fun (pr : Core.Wcet.proc_result) ->
        pr.Core.Wcet.ipet.Core.Ipet.block_counts)
      ~attrib_of:(fun pr -> pr.Core.Wcet.attrib)
      ~overhead_of:(fun pr -> Some pr.Core.Wcet.overhead_vec)
  in
  assert (Vec.total total = w.Core.Wcet.wcet);
  { label = "wcet"; bound = w.Core.Wcet.wcet; rows; overheads; total }

let of_bcet (b : Core.Bcet.t) =
  let rows, overheads, total =
    flatten ~callgraph:b.Core.Bcet.callgraph ~procs:b.Core.Bcet.procs
      ~counts_of:(fun (pr : Core.Bcet.proc_result) ->
        pr.Core.Bcet.ipet.Core.Ipet.block_counts)
      ~attrib_of:(fun pr -> pr.Core.Bcet.attrib)
      ~overhead_of:(fun _ -> None)
  in
  assert (Vec.total total = b.Core.Bcet.bcet);
  { label = "bcet"; bound = b.Core.Bcet.bcet; rows; overheads; total }

let observed (r : Sim.Machine.core_result) =
  let rows =
    List.map
      (fun ((proc, block), vec) -> { proc; block; count = None; vec })
      r.Sim.Machine.block_attrib
  in
  let counted = sum_vecs (List.map (fun r -> r.vec) rows) in
  let rest = Vec.sub r.Sim.Machine.attrib counted in
  let rows =
    if rest = Vec.zero then rows
    else rows @ [ { proc = "(unattributed)"; block = -1; count = None; vec = rest } ]
  in
  {
    label = "observed";
    bound = r.Sim.Machine.cycles;
    rows = sort_rows rows;
    overheads = [];
    total = r.Sim.Machine.attrib;
  }

(* ---- gap -------------------------------------------------------------- *)

type gap = {
  g_analysis : t;
  g_observed : t;
  diff : Vec.t;
  per_block : ((string * int) * Vec.t) list;
  dominant : Pipeline.Cost.category;
}

let gap ~analysis ~observed =
  let tbl = Hashtbl.create 64 in
  let touch k = if not (Hashtbl.mem tbl k) then Hashtbl.replace tbl k () in
  let a = Hashtbl.create 64 and o = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let k = (r.proc, r.block) in
      touch k;
      Hashtbl.replace a k
        (Vec.add r.vec (Option.value ~default:Vec.zero (Hashtbl.find_opt a k))))
    analysis.rows;
  List.iter
    (fun r ->
      let k = (r.proc, r.block) in
      touch k;
      Hashtbl.replace o k
        (Vec.add r.vec (Option.value ~default:Vec.zero (Hashtbl.find_opt o k))))
    observed.rows;
  let per_block =
    Hashtbl.fold
      (fun k () acc ->
        let va = Option.value ~default:Vec.zero (Hashtbl.find_opt a k)
        and vo = Option.value ~default:Vec.zero (Hashtbl.find_opt o k) in
        (k, Vec.sub va vo) :: acc)
      tbl []
    |> List.sort (fun (ka, _) (kb, _) -> compare ka kb)
  in
  let diff = Vec.sub analysis.total observed.total in
  {
    g_analysis = analysis;
    g_observed = observed;
    diff;
    per_block;
    dominant = Vec.dominant diff;
  }

(* ---- rendering -------------------------------------------------------- *)

let cat_names = List.map Pipeline.Cost.category_name Pipeline.Cost.categories

let render t =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%s attribution: %d cycles\n" t.label t.bound;
  Printf.bprintf b "%-16s %8s %6s" "proc" "block" "count";
  List.iter (fun n -> Printf.bprintf b " %9s" n) cat_names;
  Printf.bprintf b " %9s\n" "total";
  let line proc block count v =
    Printf.bprintf b "%-16s %8s %6s" proc block count;
    List.iter
      (fun (_, n) -> Printf.bprintf b " %9d" n)
      (Vec.to_alist v);
    Printf.bprintf b " %9d\n" (Vec.total v)
  in
  List.iter
    (fun r ->
      line r.proc
        (if r.block < 0 then "-" else string_of_int r.block)
        (match r.count with Some n -> string_of_int n | None -> "-")
        r.vec)
    t.rows;
  List.iter (fun (proc, v) -> line proc "overhead" "-" v) t.overheads;
  line "TOTAL" "" "" t.total;
  Buffer.contents b

let render_gap g =
  let b = Buffer.create 512 in
  Printf.bprintf b
    "gap (analysis - observed): %d cycles of pessimism (bound %d, observed %d)\n"
    (Vec.total g.diff) g.g_analysis.bound g.g_observed.bound;
  Printf.bprintf b "%-10s %10s %10s %10s\n" "category" "analysis" "observed"
    "gap";
  List.iter
    (fun c ->
      Printf.bprintf b "%-10s %10d %10d %10d\n"
        (Pipeline.Cost.category_name c)
        (Vec.get g.g_analysis.total c)
        (Vec.get g.g_observed.total c)
        (Vec.get g.diff c))
    Pipeline.Cost.categories;
  Printf.bprintf b "%-10s %10d %10d %10d\n" "total"
    (Vec.total g.g_analysis.total)
    (Vec.total g.g_observed.total)
    (Vec.total g.diff);
  Printf.bprintf b "dominant gap category: %s\n"
    (Pipeline.Cost.category_name g.dominant);
  Buffer.contents b

(* ---- CSV -------------------------------------------------------------- *)

let csv_header = "side,proc,block,count,compute,l1_miss,l2_miss,bus,stall,total\n"

let csv_line buf side proc block count v total =
  Printf.bprintf buf "%s,%s,%s,%s" side proc block count;
  List.iter (fun (_, n) -> Printf.bprintf buf ",%d" n) (Vec.to_alist v);
  Printf.bprintf buf ",%d\n" total

let csv_rows ~side t =
  let b = Buffer.create 1024 in
  List.iter
    (fun r ->
      csv_line b side r.proc
        (if r.block < 0 then "" else string_of_int r.block)
        (match r.count with Some n -> string_of_int n | None -> "")
        r.vec (Vec.total r.vec))
    t.rows;
  List.iter
    (fun (proc, v) -> csv_line b side proc "overhead" "" v (Vec.total v))
    t.overheads;
  csv_line b side "TOTAL" "" "" t.total t.bound;
  Buffer.contents b

let gap_csv_rows g =
  let b = Buffer.create 512 in
  List.iter
    (fun ((proc, block), v) ->
      csv_line b "gap" proc
        (if block < 0 then "" else string_of_int block)
        "" v (Vec.total v))
    g.per_block;
  csv_line b "gap" "TOTAL" "" "" g.diff (Vec.total g.diff);
  Buffer.contents b

(* ---- obs export ------------------------------------------------------- *)

let emit_counters ~side t =
  let args_of v =
    List.map
      (fun (c, n) -> (Pipeline.Cost.category_name c, Obs.Event.Int n))
      (Vec.to_alist v)
  in
  let name = "attrib." ^ side in
  List.iter
    (fun r -> Obs.counter ~cat:"attrib" ~args:(args_of r.vec) name)
    t.rows;
  List.iter
    (fun (_, v) -> Obs.counter ~cat:"attrib" ~args:(args_of v) name)
    t.overheads;
  Obs.counter ~cat:"attrib" ~args:(args_of t.total) (name ^ ".total")
