(* Prints every per-access cache result and per-procedure bound of the
   catalog, one fact per line, so two builds can be compared with diff:
   the L1i/L1d classification of every access, every L2 access_info
   (CAC, class, must and persistence ages), and each procedure's WCET,
   persistence penalty and block costs, for the 19 catalog programs
   solo and in the seven contended modes at two cores.

     dune exec bench/analysis_dump.exe > dump.txt *)

module A = Cache.Analysis
module M = Core.Multicore

let kind_s = function A.Fetch -> "i" | A.Data -> "d"

let target_s = function
  | A.Unknown -> "?"
  | A.Lines ls -> String.concat "," (List.map string_of_int ls)

let ages_s ages =
  String.concat ","
    (List.map
       (fun (l, a) ->
         Printf.sprintf "%d:%s" l
           (match a with Some a -> string_of_int a | None -> "-"))
       ages)

let cac_s = function
  | Cache.Multilevel.Always -> "A"
  | Cache.Multilevel.Never -> "N"
  | Cache.Multilevel.Uncertain -> "U"

let dump_l1 prog (ctx : Core.Context.t) =
  List.iter
    (fun (name, (p : Core.Context.proc)) ->
      List.iter
        (fun an ->
          List.iter
            (fun ((a : A.access), c) ->
              Printf.printf "%s l1 %s %d%s %s %s\n" prog name a.A.instr
                (kind_s a.A.kind) (target_s a.A.target)
                (A.classification_to_string c))
            (A.accesses an))
        (Option.to_list p.Core.Context.l1i @ [ p.Core.Context.l1d ]))
    ctx.Core.Context.procs

let dump_wcet prog mode core (w : Core.Wcet.t) =
  let tag = Printf.sprintf "%s %s c%d" prog mode core in
  Printf.printf "%s wcet %d\n" tag w.Core.Wcet.wcet;
  List.iter
    (fun (name, (r : Core.Wcet.proc_result)) ->
      Printf.printf "%s proc %s wcet %d ps %d costs %s\n" tag name
        r.Core.Wcet.wcet r.Core.Wcet.ps_penalty
        (String.concat ","
           (Array.to_list (Array.map string_of_int r.Core.Wcet.block_costs))))
    w.Core.Wcet.procs;
  List.iter
    (fun (name, ml) ->
      List.iter
        (fun (i : Cache.Multilevel.access_info) ->
          Printf.printf "%s l2 %s %d%s %s %s %s must=%s pers=%s\n" tag name
            i.Cache.Multilevel.instr (kind_s i.Cache.Multilevel.kind)
            (target_s i.Cache.Multilevel.target)
            (cac_s i.Cache.Multilevel.cac)
            (A.classification_to_string i.Cache.Multilevel.l2_class)
            (ages_s i.Cache.Multilevel.must_ages)
            (ages_s i.Cache.Multilevel.pers_ages))
        (Cache.Multilevel.access_infos ml))
    w.Core.Wcet.multilevels

let () =
  List.iter
    (fun (b : Workloads.Bench_programs.t) ->
      let prog = b.Workloads.Bench_programs.name in
      let task = (b.Workloads.Bench_programs.program, b.annot) in
      let solo = Core.Mode.solo_platform () in
      let ctx = Core.Context.of_platform ~annot:b.annot solo (fst task) in
      dump_l1 (prog ^ " solo") ctx;
      dump_wcet prog "solo" 0 (Core.Wcet.analyze_with ~ctx solo);
      let sys = M.default_system ~cores:2 ~tasks:[| Some task; Some task |] in
      let ctxs = M.contexts sys in
      Option.iter (dump_l1 (prog ^ " multi")) ctxs.(0);
      List.iter
        (fun mode ->
          if mode <> Core.Mode.Solo then
            Array.iteri
              (fun core ->
                Option.iter (dump_wcet prog (Core.Mode.name mode) core))
              (Core.Mode.analyze ~ctxs sys mode))
        Core.Mode.all)
    (Workloads.Bench_programs.suite ())
