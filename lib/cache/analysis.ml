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

(* An address interval over more lines than this becomes [Unknown]. *)
let max_data_lines = 16

let data_accesses config g va id =
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
              if a_lo < 0 || l_hi - l_lo + 1 > max_data_lines then
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

let entry_acs config entry kind =
  let cold = Acs.empty config kind in
  match (entry, kind) with
  | Cold, _ -> cold
  | Unknown_entry, Acs.Must -> cold
  | Unknown_entry, Acs.May -> Acs.havoc cold
  | Unknown_entry, Acs.Pers -> cold

(* Per-domain monotone sweep counter shared by every cache fixpoint (the
   L1 and L2 levels alike): a reader takes it before and after a piece of
   work and charges the difference.  The ledger and bench/perf.ml read
   it. *)
let fixpoint_iters_key = Domain.DLS.new_key (fun () -> ref 0)
let fixpoint_iterations () = !(Domain.DLS.get fixpoint_iters_key)
let count_fixpoint_iteration () = incr (Domain.DLS.get fixpoint_iters_key)

let kind_name = function
  | Acs.Must -> "must"
  | Acs.May -> "may"
  | Acs.Pers -> "pers"

let level config g ~name ~entry ~accesses ~step ~pers_step ~visit =
  let n = Cfg.Graph.num_blocks g in
  let accesses = Array.init n accesses in
  let had_call =
    Array.init n (fun id -> Cfg.Graph.callee_of_block g id <> None)
  in
  (* One fixpoint whose block transfer folds [step_at id k] over the
     block's accesses, writing the state before access [k] into
     [before.(id).(k)].  A block's last transfer sees its final input
     ({!Dataflow.Worklist.solve}), so its last record is the fixpoint's
     before-state; a block no transfer reached is stepped once from the
     entry state, which is sound for code that never runs. *)
  let fixpoint kind step_at =
    let entry_state = entry_acs config entry kind in
    let before =
      Array.map (fun l -> Array.make (List.length l) entry_state) accesses
    in
    let transfer id input =
      let b = before.(id) in
      let rec go k st = function
        | [] -> st
        | a :: rest ->
            b.(k) <- st;
            go (k + 1) (step_at id k st a) rest
      in
      go 0 input accesses.(id)
    in
    let ins, _ =
      Dataflow.Worklist.solve g
        ~name:(Printf.sprintf "cache.%s.%s" name (kind_name kind))
        ~entry_fact:entry_state ~join:Acs.join ~equal:Acs.equal
        ~transfer:(fun id input ->
          let out = transfer id input in
          if had_call.(id) then Acs.havoc out else out)
        ~on_round:count_fixpoint_iteration ()
    in
    Array.iteri
      (fun id -> function
        | None -> ignore (transfer id entry_state : Acs.t)
        | Some _ -> ())
      ins;
    before
  in
  let must = fixpoint Acs.Must (fun _ _ st a -> step st a) in
  let may = fixpoint Acs.May (fun _ _ st a -> step st a) in
  (* Persistence is guided by the must state before the same access, and
     runs only when a classification asks for it. *)
  let pers =
    lazy
      (fixpoint Acs.Pers (fun id k st a -> pers_step ~must:must.(id).(k) st a))
  in
  Array.iteri
    (fun id l ->
      List.iteri
        (fun k a ->
          visit ~must:must.(id).(k) ~may:may.(id).(k)
            ~pers:(lazy (Lazy.force pers).(id).(k))
            a)
        l)
    accesses

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
                match Acs.age_of_line (Lazy.force pers) l with
                | Some age -> age < assoc
                | None -> false)
            | _ -> false
          in
          if persistent then Persistent else Not_classified

let analyze config g ~entry ~accesses =
  let points = Table.create g in
  level config g ~name:"l1" ~entry ~accesses ~step:apply_access
    ~pers_step:apply_access_guided ~visit:(fun ~must ~may ~pers a ->
      Table.set points a.kind a.instr
        (a, classify config ~must ~may ~pers a.target));
  { points; sorted = Table.to_list points }

let classification t ?(kind = Fetch) instr =
  snd (Table.find t.points kind instr)

let accesses t = t.sorted
