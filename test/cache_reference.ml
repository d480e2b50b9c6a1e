(* The replay engine that Cache.Analysis.level replaced, kept as the
   reference its differential tests (test_cache.ml, "engine reference")
   compare the production L1 and L2 analyses against.  Per cache level
   it runs the must fixpoint, replays each block from its fixpoint input
   to get the must state before every access, runs the may fixpoint,
   then the persistence fixpoint guided by those must states, and
   replays may and persistence once more to classify every access.
   Persistence always runs, and every L2 access keeps its persistence
   ages.  Same classification rules as Cache.Analysis.classify, with a
   persistence state that is always there. *)

module A = Cache.Analysis
module M = Cache.Multilevel
module Acs = Cache.Acs
module Config = Cache.Config

let entry_acs config entry kind =
  let cold = Acs.empty config kind in
  match (entry, kind) with
  | A.Cold, _ | A.Unknown_entry, (Acs.Must | Acs.Pers) -> cold
  | A.Unknown_entry, Acs.May -> Acs.havoc cold

let states_before step input accesses =
  snd (List.fold_left_map (fun st a -> (step st a, st)) input accesses)

let level config g ~entry ~accesses ~step ~pers_step ~visit =
  let n = Cfg.Graph.num_blocks g in
  let accesses = Array.init n accesses in
  let fixpoint kind transfer =
    let entry_state = entry_acs config entry kind in
    let ins, _ =
      Dataflow.Worklist.solve g ~entry_fact:entry_state ~join:Acs.join
        ~equal:Acs.equal
        ~transfer:(fun id input ->
          let out = transfer id input in
          if Cfg.Graph.callee_of_block g id <> None then Acs.havoc out
          else out)
        ()
    in
    Array.map (function Some x -> x | None -> entry_state) ins
  in
  let stepped id acs = List.fold_left step acs accesses.(id) in
  let must_ins = fixpoint Acs.Must stepped in
  let must_before = Array.map2 (states_before step) must_ins accesses in
  let may_ins = fixpoint Acs.May stepped in
  let guided pers must a = pers_step ~must pers a in
  let pers_ins =
    fixpoint Acs.Pers (fun id pers ->
        List.fold_left2 guided pers must_before.(id) accesses.(id))
  in
  for id = 0 to n - 1 do
    ignore
      (List.fold_left2
         (fun (may, pers) must a ->
           visit ~must ~may ~pers a;
           (step may a, guided pers must a))
         (may_ins.(id), pers_ins.(id))
         must_before.(id) accesses.(id)
        : Acs.t * Acs.t)
  done

let classify config ~must ~may ~pers = function
  | A.Unknown -> A.Not_classified
  | A.Lines ls ->
      if List.for_all (Acs.contains_line must) ls then A.Always_hit
      else if
        List.for_all
          (fun l ->
            (not (Acs.contains_line may l))
            && not (Acs.universe may ~set:(Config.set_of_line config l)))
          ls
      then A.Always_miss
      else
        match ls with
        | [ l ] -> (
            match Acs.age_of_line pers l with
            | Some age when age < config.Config.assoc -> A.Persistent
            | _ -> A.Not_classified)
        | _ -> A.Not_classified

let by_instr_order l =
  List.sort (fun (i, k, _) (i', k', _) -> compare (i, k) (i', k')) l
  |> List.map (fun (_, _, x) -> x)

(* The L1 analysis: every access with its classification, in
   instruction order, fetch before data. *)
let analyze config g ~entry ~accesses =
  let acc = ref [] in
  let step acs (a : A.access) =
    match a.A.target with
    | A.Lines ls -> Acs.access_one_of acs ls
    | A.Unknown -> Acs.access_unknown acs
  in
  let pers_step ~must pers (a : A.access) =
    match a.A.target with
    | A.Lines ls -> Acs.access_one_of_guided pers ~must ls
    | A.Unknown -> Acs.access_unknown pers
  in
  level config g ~entry ~accesses ~step ~pers_step
    ~visit:(fun ~must ~may ~pers (a : A.access) ->
      acc :=
        (a.A.instr, a.A.kind, (a, classify config ~must ~may ~pers a.A.target))
        :: !acc);
  by_instr_order !acc

let live_lines bypass ls =
  if List.exists bypass ls then List.filter (fun l -> not (bypass l)) ls
  else ls

let l2_step with_lines bypass acs ((a : A.access), cac) =
  if cac = M.Never then acs
  else
    match a.A.target with
    | A.Unknown -> Acs.access_unknown acs
    | A.Lines ls -> (
        match live_lines bypass ls with
        | [] -> acs
        | live -> with_lines ~uncertain:(cac = M.Uncertain) acs live)

let ages_of acs = function
  | A.Unknown -> []
  | A.Lines ls -> List.map (fun l -> (l, Acs.age_of_line acs l)) ls

(* The L2 analysis: every access's info, persistence ages included
   whatever its class, in instruction order. *)
let multilevel config g ~entry ~cac_of ~l2_accesses ~bypass =
  let acc = ref [] in
  level config g ~entry
    ~accesses:(fun id -> List.map (fun a -> (a, cac_of a)) (l2_accesses id))
    ~step:
      (l2_step (fun ~uncertain acs live ->
           Acs.access_one_of ~uncertain acs live)
         bypass)
    ~pers_step:(fun ~must ->
      l2_step
        (fun ~uncertain pers live ->
          Acs.access_one_of_guided ~uncertain pers ~must live)
        bypass)
    ~visit:(fun ~must ~may ~pers ((a : A.access), cac) ->
      let l2_class =
        if cac = M.Never then A.Always_hit
        else
          match a.A.target with
          | A.Unknown -> A.Not_classified
          | A.Lines ls -> (
              match live_lines bypass ls with
              | [] -> A.Always_miss
              | live -> classify config ~must ~may ~pers (A.Lines live))
      in
      let info =
        {
          M.instr = a.A.instr;
          kind = a.A.kind;
          target = a.A.target;
          cac;
          l2_class;
          must_ages = ages_of must a.A.target;
          pers_ages = ages_of pers a.A.target;
        }
      in
      acc := (a.A.instr, a.A.kind, info) :: !acc);
  by_instr_order !acc
