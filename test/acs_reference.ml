(* The map-based abstract cache set states that Cache.Acs replaced, kept
   as the reference its differential test (test_cache.ml, "acs
   reference") replays random operation sequences against: one
   [int TagMap.t] per set, every operation rebuilding what it touches.
   Same semantics and same signature as Cache.Acs. *)

module Config = Cache.Config

module TagMap = Map.Make (Int)

type kind = Cache.Acs.kind = Must | May | Pers

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
   own join: the sets an access leaves alone skip the [TagMap] merge. *)
let join_set kind s1 s2 =
  if s1 == s2 then s1
  else
    match kind with
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

let join a b =
  if a == b then a
  else begin
    check_compat a b;
    { a with sets = Array.map2 (join_set a.kind) a.sets b.sets }
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

(* An access to exactly one of [lines], each candidate's update computed
   by [update set s tag] from its set's old record.  Only the touched sets
   are rebuilt: each becomes the join of its candidates' updates, joined
   with its old record too when the access may leave that set alone,
   because a candidate lies in another set or because [uncertain] says the
   access may not happen at all.  This equals the join of the one-line
   updates of [t] (and of [t] itself when [uncertain]) at the cost of the
   touched sets only. *)
let access_sets t ~uncertain update lines =
  let sets = Array.copy t.sets in
  let touched =
    List.fold_left
      (fun touched line ->
        let set = Config.set_of_line t.config line in
        let u = update set t.sets.(set) (Config.tag_of_line t.config line) in
        if List.mem set touched then begin
          sets.(set) <- join_set t.kind sets.(set) u;
          touched
        end
        else begin
          sets.(set) <- u;
          set :: touched
        end)
      [] lines
  in
  (match touched with
  | [ _ ] when not uncertain -> ()
  | _ ->
      List.iter
        (fun set -> sets.(set) <- join_set t.kind sets.(set) t.sets.(set))
        touched);
  { t with sets }

let access_line t line =
  access_sets t ~uncertain:false (fun _ s tag -> update_set t s tag) [ line ]

let access_one_of ?(uncertain = false) t lines =
  if lines = [] then invalid_arg "Acs.access_one_of: empty candidate list";
  access_sets t ~uncertain (fun _ s tag -> update_set t s tag) lines

(* Must-guided persistence update: age pers entries strictly younger than
   the accessed tag's must-age (absent from must = may miss = age all). *)
let update_set_guided t ~must set s tag =
  let bound =
    match TagMap.find_opt tag must.sets.(set).ages with
    | Some a -> a
    | None -> t.config.Config.assoc
  in
  let ages =
    TagMap.filter_map
      (fun tg age ->
        if tg = tag then Some 0 else if age < bound then bump t age
        else Some age)
      s.ages
  in
  { s with ages = TagMap.add tag 0 ages }

let check_guided name t must =
  if t.kind <> Pers || must.kind <> Must then
    invalid_arg (name ^ ": wants a Pers state and a Must state")

let access_line_guided t ~must line =
  check_guided "Acs.access_line_guided" t must;
  access_sets t ~uncertain:false (update_set_guided t ~must) [ line ]

let access_one_of_guided ?(uncertain = false) t ~must lines =
  check_guided "Acs.access_one_of_guided" t must;
  if lines = [] then
    invalid_arg "Acs.access_one_of_guided: empty candidate list";
  access_sets t ~uncertain (update_set_guided t ~must) lines

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
