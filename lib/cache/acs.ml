module TagMap = Map.Make (Int)

type kind = Must | May | Pers

type set_state = { ages : int TagMap.t; universe : bool }

type t = { config : Config.t; kind : kind; sets : set_state array }

let empty config kind =
  {
    config;
    kind;
    sets =
      Array.init config.Config.sets (fun _ ->
          { ages = TagMap.empty; universe = false });
  }

let config t = t.config
let kind t = t.kind

(* Physical equality first: the fixpoints compare a state with its own
   join, and the join keeps every unchanged set record (below). *)
let equal a b =
  a == b
  || (a.kind = b.kind && a.config = b.config
     && Array.for_all2
          (fun s1 s2 ->
            s1 == s2
            || (s1.universe = s2.universe
               && TagMap.equal Int.equal s1.ages s2.ages))
          a.sets b.sets)

let check_compat a b =
  if a.kind <> b.kind || a.config <> b.config then
    invalid_arg "Acs: incompatible states"

(* Join is idempotent, so a physically shared state or set record is its
   own join.  The L2 fixpoints join a state with its one-set update on
   every uncertain access; the other sets skip the [TagMap] merge. *)
let join a b =
  if a == b then a
  else begin
    check_compat a b;
    let join_set s1 s2 =
      if s1 == s2 then s1
      else
        match a.kind with
        | Must ->
            (* intersection, max age *)
            let ages =
              TagMap.merge
                (fun _ x y ->
                  match (x, y) with
                  | Some x, Some y -> Some (max x y)
                  | _ -> None)
                s1.ages s2.ages
            in
            { ages; universe = false }
        | May ->
            (* union, min age *)
            let ages =
              TagMap.union (fun _ x y -> Some (min x y)) s1.ages s2.ages
            in
            { ages; universe = s1.universe || s2.universe }
        | Pers ->
            (* union, max age *)
            let ages =
              TagMap.union (fun _ x y -> Some (max x y)) s1.ages s2.ages
            in
            { ages; universe = false }
    in
    { a with sets = Array.map2 join_set a.sets b.sets }
  end

let max_age t =
  match t.kind with
  | Must | May -> t.config.Config.assoc - 1
  | Pers -> t.config.Config.assoc

(* Age increment with kind-specific overflow handling. *)
let bump t age =
  let m = max_age t in
  if age + 1 > m then match t.kind with Pers -> Some m | Must | May -> None
  else Some (age + 1)

let update_set t s tag =
  let assoc = t.config.Config.assoc in
  let old_age =
    (* In a May state with the universe flag, *some* untracked line may be
       resident arbitrarily young — younger than the accessed tag — so no
       aging of minimum ages is guaranteed, whether the accessed tag is
       tracked or not.  Treating a tracked tag differently here is also
       non-monotone: a tag toggling between tracked and untracked across
       join iterations flips its set-mates between evicted and kept, and
       the fixpoint oscillates forever (found by the lib/fuzz oracle). *)
    if t.kind = May && s.universe then -1
    else
      match TagMap.find_opt tag s.ages with
      | Some a -> a
      | None -> assoc (* untracked tag: definite miss, age everything *)
  in
  let ages =
    TagMap.filter_map
      (fun tg age ->
        if tg = tag then Some 0
        else
          let should_age =
            match t.kind with
            | Must -> age < old_age
            | May -> age <= old_age
            | Pers ->
                (* Unconditional aging.  Using the accessed line's tracked
                   age here (Ferdinand's original persistence update) is
                   unsound: a join can import a young age for [tag] from
                   one path and thereby suppress the aging that accesses
                   on the *other* path must cause (the classic persistence
                   unsoundness found by Huynh et al. / Cullmann — and
                   rediscovered by this library's QCheck lattice tests).
                   Counting every same-set access as a potential new
                   conflict is the simple sound rule. *)
                true
          in
          if should_age then bump t age else Some age)
      s.ages
  in
  { s with ages = TagMap.add tag 0 ages }

let access_line t line =
  let set = Config.set_of_line t.config line in
  let tag = Config.tag_of_line t.config line in
  let sets = Array.copy t.sets in
  sets.(set) <- update_set t sets.(set) tag;
  { t with sets }

(* Must-guided persistence update: age pers entries strictly younger than
   the accessed tag's must-age (absent from must = may miss = age all). *)
let access_line_guided t ~must line =
  if t.kind <> Pers || must.kind <> Must then
    invalid_arg "Acs.access_line_guided: wants a Pers state and a Must state";
  let set = Config.set_of_line t.config line in
  let tag = Config.tag_of_line t.config line in
  let assoc = t.config.Config.assoc in
  let bound =
    match TagMap.find_opt tag must.sets.(set).ages with
    | Some a -> a
    | None -> assoc
  in
  let s = t.sets.(set) in
  let ages =
    TagMap.filter_map
      (fun tg age ->
        if tg = tag then Some 0
        else if age < bound then bump t age
        else Some age)
      s.ages
  in
  let sets = Array.copy t.sets in
  sets.(set) <- { s with ages = TagMap.add tag 0 ages };
  { t with sets }

let access_one_of_guided t ~must lines =
  match lines with
  | [] -> invalid_arg "Acs.access_one_of_guided: empty candidate list"
  | l :: rest ->
      List.fold_left
        (fun acc l' -> join acc (access_line_guided t ~must l'))
        (access_line_guided t ~must l)
        rest

let access_one_of t lines =
  match lines with
  | [] -> invalid_arg "Acs.access_one_of: empty candidate list"
  | [ l ] -> access_line t l
  | l :: rest ->
      List.fold_left
        (fun acc l' -> join acc (access_line t l'))
        (access_line t l) rest

(* Unknown access: exactly one set is touched by an unknown tag; the join
   over "which set" makes every set age conservatively (Must/Pers), while
   May keeps ages (the untouched scenario) but raises the universe flag. *)
let access_unknown t =
  let age_set s =
    let ages = TagMap.filter_map (fun _ age -> bump t age) s.ages in
    { s with ages }
  in
  match t.kind with
  | Must | Pers -> { t with sets = Array.map age_set t.sets }
  | May ->
      { t with sets = Array.map (fun s -> { s with universe = true }) t.sets }

let havoc t =
  match t.kind with
  | Must -> empty t.config t.kind
  | May ->
      { t with sets = Array.map (fun s -> { s with universe = true }) t.sets }
  | Pers ->
      let m = max_age t in
      {
        t with
        sets =
          Array.map
            (fun s -> { s with ages = TagMap.map (fun _ -> m) s.ages })
            t.sets;
      }

let age_of_line t line =
  let set = Config.set_of_line t.config line in
  let tag = Config.tag_of_line t.config line in
  TagMap.find_opt tag t.sets.(set).ages

let contains_line t line = age_of_line t line <> None

let universe t ~set = t.sets.(set).universe

let lines t =
  let acc = ref [] in
  Array.iteri
    (fun set s ->
      TagMap.iter
        (fun tag _ -> acc := ((tag * t.config.Config.sets) + set) :: !acc)
        s.ages)
    t.sets;
  List.sort compare !acc

let lines_of_set t ~set =
  TagMap.fold
    (fun tag _ acc -> ((tag * t.config.Config.sets) + set) :: acc)
    t.sets.(set).ages []
  |> List.sort compare

let shift_set t ~set n =
  if n <= 0 then t
  else
    let m = max_age t in
    let s = t.sets.(set) in
    let ages =
      TagMap.filter_map
        (fun _ age ->
          let a = age + n in
          if a > m then match t.kind with Pers -> Some m | Must | May -> None
          else Some a)
        s.ages
    in
    let sets = Array.copy t.sets in
    sets.(set) <- { s with ages };
    { t with sets }

let pp ppf t =
  let kind_str =
    match t.kind with Must -> "must" | May -> "may" | Pers -> "pers"
  in
  Format.fprintf ppf "@[<v>%s ACS:@," kind_str;
  Array.iteri
    (fun set s ->
      if not (TagMap.is_empty s.ages) || s.universe then begin
        Format.fprintf ppf "  set %d:" set;
        TagMap.iter
          (fun tag age -> Format.fprintf ppf " t%d@@%d" tag age)
          s.ages;
        if s.universe then Format.fprintf ppf " (+universe)";
        Format.fprintf ppf "@,"
      end)
    t.sets;
  Format.fprintf ppf "@]"
