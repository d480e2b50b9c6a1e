type target = Lines of int list | Unknown

type kind = Fetch | Data

type access = { instr : int; kind : kind; target : target }

type classification = Always_hit | Always_miss | Persistent | Not_classified

let classification_to_string = function
  | Always_hit -> "AH"
  | Always_miss -> "AM"
  | Persistent -> "PS"
  | Not_classified -> "NC"

type entry_state = Cold | Unknown_entry

module Table = struct
  (* One slot array per access kind over the procedure's instruction
     range [base, base + length - 1]; an instruction outside the range,
     or one without an access of that kind, holds [None]. *)
  type 'a t = { base : int; fetch : 'a option array; data : 'a option array }

  let create g =
    let lo, hi =
      Array.fold_left
        (fun (lo, hi) (b : Cfg.Block.t) ->
          (min lo b.Cfg.Block.first, max hi b.Cfg.Block.last))
        (max_int, min_int) g.Cfg.Graph.blocks
    in
    let len = if hi < lo then 0 else hi - lo + 1 in
    { base = lo; fetch = Array.make len None; data = Array.make len None }

  let slots t = function Fetch -> t.fetch | Data -> t.data
  let set t kind instr x = (slots t kind).(instr - t.base) <- Some x

  let find_opt t kind instr =
    let slots = slots t kind and k = instr - t.base in
    if k < 0 || k >= Array.length slots then None else slots.(k)

  let find t kind instr =
    match find_opt t kind instr with Some x -> x | None -> raise Not_found

  (* Instruction order, fetch before data at the same instruction: the
     order of [compare (instr, kind)]. *)
  let to_list t =
    let acc = ref [] in
    let push = function Some x -> acc := x :: !acc | None -> () in
    for k = Array.length t.fetch - 1 downto 0 do
      push t.data.(k);
      push t.fetch.(k)
    done;
    !acc
end

type t = {
  config : Config.t;
  graph : Cfg.Graph.t;
  accesses_of : access list array;  (** per block *)
  had_call : bool array;
  must_ins : Acs.t array;
  may_ins : Acs.t array;
  pers_ins : Acs.t array;
  must_outs : Acs.t array;
  may_outs : Acs.t array;
  points : (access * classification) Table.t;
  sorted : (access * classification) list;  (** instruction order *)
}

let instruction_accesses config g id =
  let b = Cfg.Graph.block g id in
  List.map
    (fun i ->
      let addr = Isa.Program.addr_of_index g.Cfg.Graph.program i in
      { instr = i; kind = Fetch; target = Lines [ Config.line_of_addr config addr ] })
    (Cfg.Block.instr_indices b)

let data_accesses config g va ?(max_lines = 16) id =
  let b = Cfg.Graph.block g id in
  (* Value states before each instruction, built in one pass over the
     block the first time a cacheable access needs one. *)
  let states =
    lazy (Dataflow.Value_analysis.states_before_instrs va g id)
  in
  List.filter_map
    (fun i ->
      match Isa.Program.instr g.Cfg.Graph.program i with
      | Isa.Instr.Load (sp, _, rb, off) | Isa.Instr.Store (sp, _, rb, off)
        when Isa.Layout.is_cacheable sp -> (
          let st = (Lazy.force states).(i - b.Cfg.Block.first) in
          let base = Dataflow.Value_analysis.reg_interval st rb in
          let idx =
            Dataflow.Interval.add base (Dataflow.Interval.const off)
          in
          match
            ( Dataflow.Interval.finite_lower idx,
              Dataflow.Interval.finite_upper idx )
          with
          | Some lo, Some hi ->
              let a_lo = Isa.Layout.byte_addr sp lo in
              let a_hi = Isa.Layout.byte_addr sp hi in
              let l_lo = Config.line_of_addr config a_lo in
              let l_hi = Config.line_of_addr config a_hi in
              (* A negative byte address maps to no line of any cache. *)
              if a_lo < 0 || l_hi - l_lo + 1 > max_lines then
                Some { instr = i; kind = Data; target = Unknown }
              else
                Some
                  {
                    instr = i;
                    kind = Data;
                    target =
                      Lines (List.init (l_hi - l_lo + 1) (fun k -> l_lo + k));
                  }
          | _ -> Some { instr = i; kind = Data; target = Unknown })
      | _ -> None)
    (Cfg.Block.instr_indices b)

let apply_access acs a =
  match a.target with
  | Lines ls -> Acs.access_one_of acs ls
  | Unknown -> Acs.access_unknown acs

(* Persistence steps are guided by the must state before the same access
   (Cullmann's sound-and-precise update). *)
let apply_access_guided ~must pers a =
  match a.target with
  | Lines ls -> Acs.access_one_of_guided pers ~must ls
  | Unknown -> Acs.access_unknown pers

(* The state before each access of a block, replayed once from the
   block's fixpoint input.  The persistence transfers read the must state
   from here, so a fixpoint iteration does not re-step it. *)
let states_before step input accesses =
  snd (List.fold_left_map (fun st a -> (step st a, st)) input accesses)

let transfer acs accesses ~had_call =
  let acs = List.fold_left apply_access acs accesses in
  if had_call then Acs.havoc acs else acs

let entry_acs config entry kind =
  let cold = Acs.empty config kind in
  match (entry, kind) with
  | Cold, _ -> cold
  | Unknown_entry, Acs.Must -> cold
  | Unknown_entry, Acs.May -> Acs.havoc cold
  | Unknown_entry, Acs.Pers -> cold

(* Per-domain monotone sweep counter shared by every cache fixpoint in
   this library (must/may/persistence here, the L2 fixpoints in
   Multilevel): a reader takes it before and after a piece of work and
   charges the difference.  The ledger and bench/perf.ml read it. *)
let fixpoint_iters_key = Domain.DLS.new_key (fun () -> ref 0)
let fixpoint_iterations () = !(Domain.DLS.get fixpoint_iters_key)
let count_fixpoint_iteration () = incr (Domain.DLS.get fixpoint_iters_key)

let fixpoint_name level kind =
  Printf.sprintf "cache.%s.%s" level
    (match (kind : Acs.kind) with
    | Acs.Must -> "must"
    | Acs.May -> "may"
    | Acs.Pers -> "pers")

let fixpoint config g ~entry ~accesses_of ~had_call kind =
  let entry_state = entry_acs config entry kind in
  let ins, outs =
    Dataflow.Worklist.solve g ~name:(fixpoint_name "l1" kind)
      ~entry_fact:entry_state ~join:Acs.join ~equal:Acs.equal
      ~transfer:(fun id input ->
        transfer input accesses_of.(id) ~had_call:had_call.(id))
      ~on_round:count_fixpoint_iteration ()
  in
  let force = function
    | Some x -> x
    | None -> entry_acs config entry kind (* unreachable block: any state *)
  in
  (Array.map force ins, Array.map force outs)

(* Fixpoint for the persistence state, with the must state before each
   access steering that access's aging. *)
let pers_fixpoint config g ~entry ~accesses_of ~had_call ~must_before =
  let entry_state = entry_acs config entry Acs.Pers in
  let transfer_pers id pers =
    let pers =
      List.fold_left2
        (fun pers must a -> apply_access_guided ~must pers a)
        pers must_before.(id) accesses_of.(id)
    in
    if had_call.(id) then Acs.havoc pers else pers
  in
  let ins, outs =
    Dataflow.Worklist.solve g
      ~name:(fixpoint_name "l1" Acs.Pers)
      ~entry_fact:entry_state ~join:Acs.join ~equal:Acs.equal
      ~transfer:transfer_pers ~on_round:count_fixpoint_iteration ()
  in
  let force = function Some x -> x | None -> entry_state in
  (Array.map force ins, Array.map force outs)

let classify config ~must ~may ~pers target =
  let assoc = config.Config.assoc in
  match target with
  | Unknown -> Not_classified
  | Lines ls ->
      let all_must = List.for_all (fun l -> Acs.contains_line must l) ls in
      if all_must then Always_hit
      else
        let none_may =
          List.for_all
            (fun l ->
              (not (Acs.contains_line may l))
              && not (Acs.universe may ~set:(Config.set_of_line config l)))
            ls
        in
        if none_may then Always_miss
        else
          let persistent =
            match ls with
            | [ l ] -> (
                match Acs.age_of_line pers l with
                | Some age -> age < assoc
                | None -> false)
            | _ -> false
          in
          if persistent then Persistent else Not_classified

let analyze config g ~entry ~accesses =
  let n = Cfg.Graph.num_blocks g in
  let accesses_of = Array.init n accesses in
  let had_call =
    Array.init n (fun id -> Cfg.Graph.callee_of_block g id <> None)
  in
  let must_ins, must_outs =
    fixpoint config g ~entry ~accesses_of ~had_call Acs.Must
  in
  let must_before =
    Array.map2 (states_before apply_access) must_ins accesses_of
  in
  let may_ins, may_outs =
    fixpoint config g ~entry ~accesses_of ~had_call Acs.May
  in
  let pers_ins, _ =
    pers_fixpoint config g ~entry ~accesses_of ~had_call ~must_before
  in
  let points = Table.create g in
  for id = 0 to n - 1 do
    (* Replay the may and persistence states through the block,
       classifying at each access point. *)
    let (_ : Acs.t * Acs.t) =
      List.fold_left2
        (fun (may, pers) must a ->
          Table.set points a.kind a.instr
            (a, classify config ~must ~may ~pers a.target);
          (apply_access may a, apply_access_guided ~must pers a))
        (may_ins.(id), pers_ins.(id))
        must_before.(id) accesses_of.(id)
    in
    ()
  done;
  {
    config;
    graph = g;
    accesses_of;
    had_call;
    must_ins;
    may_ins;
    pers_ins;
    must_outs;
    may_outs;
    points;
    sorted = Table.to_list points;
  }

let classification t ?(kind = Fetch) instr =
  snd (Table.find t.points kind instr)

let accesses t = t.sorted

let persistent_miss_count t =
  List.fold_left
    (fun acc (_, c) -> if c = Persistent then acc + 1 else acc)
    0 t.sorted

let must_in t id = t.must_ins.(id)
let may_in t id = t.may_ins.(id)
let pers_in t id = t.pers_ins.(id)
let must_out t id = t.must_outs.(id)
let may_out t id = t.may_outs.(id)

let reachable_lines t =
  let lines = ref [] in
  Array.iter
    (List.iter (fun a ->
         match a.target with
         | Lines ls -> lines := ls @ !lines
         | Unknown -> ()))
    t.accesses_of;
  List.sort_uniq compare !lines
