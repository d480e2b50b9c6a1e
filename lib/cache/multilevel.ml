type cac = Always | Never | Uncertain

type access_info = {
  instr : int;
  kind : Analysis.kind;
  target : Analysis.target;
  cac : cac;
  l2_class : Analysis.classification;
  must_ages : (int * int option) list;
  pers_ages : (int * int option) list;
}

type t = {
  config : Config.t;
  infos : access_info list;  (** instruction order *)
  by_instr : access_info Analysis.Table.t;
  unknown_target : bool;
  bypass : int -> bool;
}

let cac_of_l1_analysis l1 (a : Analysis.access) =
  match Analysis.classification l1 ~kind:a.Analysis.kind a.Analysis.instr with
  | Analysis.Always_hit -> Never
  | Analysis.Always_miss -> Always
  | Analysis.Persistent | Analysis.Not_classified -> Uncertain
  | exception Not_found -> Always

(* The candidates that enter L2: [ls] itself unless one is bypassed. *)
let live_lines bypass ls =
  if List.exists bypass ls then List.filter (fun l -> not (bypass l)) ls
  else ls

(* The L2 step of one access under its CAC, with [step] the kind's access
   to one of the live (non-bypassed) candidate lines.  A [Never] access
   hits L1 and leaves L2 alone; an [Uncertain] one joins every touched set
   with its old record.  An unknown target ages every set, which already
   covers the state it may leave alone: [join (access_unknown t) t] is
   [access_unknown t] for every kind. *)
let apply_l2_with step bypass acs ((a : Analysis.access), cac) =
  if cac = Never then acs
  else
    match a.target with
    | Analysis.Unknown -> Acs.access_unknown acs
    | Analysis.Lines ls -> (
        match live_lines bypass ls with
        | [] -> acs
        | live -> step ~uncertain:(cac = Uncertain) acs live)

let apply_l2 bypass acs ac =
  apply_l2_with
    (fun ~uncertain acs live -> Acs.access_one_of ~uncertain acs live)
    bypass acs ac

(* Persistence step at L2, guided by the L2 must state before the same
   access. *)
let apply_l2_pers bypass ~must pers ac =
  apply_l2_with
    (fun ~uncertain pers live ->
      Acs.access_one_of_guided ~uncertain pers ~must live)
    bypass pers ac

let ages_of acs target =
  match (target : Analysis.target) with
  | Analysis.Unknown -> []
  | Analysis.Lines ls -> List.map (fun l -> (l, Acs.age_of_line acs l)) ls

let analyze config g ~entry ~cac_of ~l2_accesses ?(bypass = fun _ -> false)
    () =
  let by_instr = Analysis.Table.create g in
  Analysis.level config g ~name:"l2" ~entry
    ~accesses:(fun id ->
      List.map (fun (a : Analysis.access) -> (a, cac_of a)) (l2_accesses id))
    ~step:(apply_l2 bypass) ~pers_step:(apply_l2_pers bypass)
    ~visit:(fun ~must ~may ~pers ((a : Analysis.access), cac) ->
      let l2_class =
        if cac = Never then Analysis.Always_hit
        else
          (* Bypassed lines never enter L2. *)
          match a.target with
          | Analysis.Unknown -> Analysis.Not_classified
          | Analysis.Lines ls -> (
              match live_lines bypass ls with
              | [] -> Analysis.Always_miss
              | live ->
                  Analysis.classify config ~must ~may ~pers
                    (Analysis.Lines live))
      in
      Analysis.Table.set by_instr a.kind a.instr
        {
          instr = a.instr;
          kind = a.kind;
          target = a.target;
          cac;
          l2_class;
          must_ages = ages_of must a.target;
          pers_ages = ages_of pers a.target;
        });
  let infos = Analysis.Table.to_list by_instr in
  let unknown_target =
    List.exists
      (fun i -> i.cac <> Never && i.target = Analysis.Unknown)
      infos
  in
  { config; infos; by_instr; unknown_target; bypass }

let config t = t.config

let find t kind instr = Analysis.Table.find t.by_instr kind instr

let classification t ?(kind = Analysis.Fetch) instr =
  (find t kind instr).l2_class

let cac t ?(kind = Analysis.Fetch) instr = (find t kind instr).cac

let access_infos t = t.infos

let persistent_miss_count t =
  List.length
    (List.filter (fun i -> i.l2_class = Analysis.Persistent) t.infos)

let footprint t =
  let counts = Array.make t.config.Config.sets 0 in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun i ->
      if i.cac <> Never then
        match i.target with
        | Analysis.Lines ls ->
            List.iter
              (fun l ->
                if (not (t.bypass l)) && not (Hashtbl.mem seen l) then begin
                  Hashtbl.add seen l ();
                  let s = Config.set_of_line t.config l in
                  counts.(s) <- counts.(s) + 1
                end)
              ls
        | Analysis.Unknown -> ())
    t.infos;
  counts

let uses_unknown_target t = t.unknown_target

let single_usage_lines g loops ~l2_accesses =
  let counts = Hashtbl.create 64 in
  let n = Cfg.Graph.num_blocks g in
  for id = 0 to n - 1 do
    let in_loop = Cfg.Loops.loop_depth loops id > 0 in
    (* A run of consecutive accesses to the same line within a block is
       one use: only its first access can reach L2, the rest hit L1 by
       spatial locality. *)
    let last = ref (-1) in
    List.iter
      (fun (a : Analysis.access) ->
        match a.target with
        | Analysis.Lines [ l ] when l = !last && not in_loop -> ()
        | Analysis.Lines ls ->
            last := (match ls with [ l ] -> l | _ -> -1);
            List.iter
              (fun l ->
                let prev =
                  match Hashtbl.find_opt counts l with
                  | Some c -> c
                  | None -> 0
                in
                (* An access inside a loop counts as many. *)
                Hashtbl.replace counts l (prev + if in_loop then 2 else 1))
              ls
        | Analysis.Unknown -> last := -1)
      (l2_accesses id)
  done;
  Hashtbl.fold (fun l c acc -> if c = 1 then l :: acc else acc) counts []
  |> List.sort compare
