type kind = Must | May | Pers

(* One record per cache set.  [ages] packs each tracked line as
   [(tag lsl shift) lor age] and is sorted: tags are distinct within a
   set and every age is below [1 lsl shift], so the packed order is the
   tag order, and two entries of one tag compare as their ages.
   Records are immutable and shared freely: a step keeps the record of
   every set it leaves alone, and a step that changes nothing returns
   its input state itself. *)
type set_state = { ages : int array; universe : bool }

type t = {
  config : Config.t;
  kind : kind;
  shift : int;  (** bits of an age, which runs from 0 to [assoc] *)
  sets : set_state array;
}

let empty_set = { ages = [||]; universe = false }

let empty config kind =
  let rec bits s =
    if 1 lsl s > config.Config.assoc then s else bits (s + 1)
  in
  {
    config;
    kind;
    shift = bits 1;
    sets = Array.make config.Config.sets empty_set;
  }

let config t = t.config
let kind t = t.kind

let max_age t =
  match t.kind with
  | Must | May -> t.config.Config.assoc - 1
  | Pers -> t.config.Config.assoc

let mask t = (1 lsl t.shift) - 1

(* The helpers below recurse at top level, so no call allocates a
   closure. *)

(* The age of [tag] in [ages.(lo .. hi-1)], or -1 when untracked. *)
let rec find_age shift (ages : int array) tag lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let tg = ages.(mid) asr shift in
    if tg = tag then ages.(mid) land ((1 lsl shift) - 1)
    else if tg < tag then find_age shift ages tag (mid + 1) hi
    else find_age shift ages tag lo mid

let age_in shift s tag = find_age shift s.ages tag 0 (Array.length s.ages)

let rec ints_equal (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && ints_equal a b (i - 1))

let equal_set s1 s2 =
  s1 == s2
  || s1.universe = s2.universe
     && Array.length s1.ages = Array.length s2.ages
     && ints_equal s1.ages s2.ages (Array.length s1.ages - 1)

let rec sets_equal (a : set_state array) b i =
  i < 0 || (equal_set a.(i) b.(i) && sets_equal a b (i - 1))

(* Physical equality first: the fixpoints compare a state with its own
   join, and the join keeps every unchanged set record (below). *)
let equal a b =
  a == b
  || a.kind = b.kind
     && (a.config == b.config || a.config = b.config)
     && sets_equal a.sets b.sets (Array.length a.sets - 1)

let check_compat a b =
  if a.kind <> b.kind || (a.config != b.config && a.config <> b.config) then
    invalid_arg "Acs: incompatible states"

(* Every line of [sub] from index [i] on is tracked in [sup] from index
   [j] on, no older there than in [sub] ([younger]) or no younger. *)
let rec covers shift younger (sub : int array) (sup : int array) i j =
  i >= Array.length sub
  || j < Array.length sup
     &&
     let x = sub.(i) and y = sup.(j) in
     let tx = x asr shift and ty = y asr shift in
     if ty < tx then covers shift younger sub sup i (j + 1)
     else
       ty = tx
       && (if younger then y <= x else y >= x)
       && covers shift younger sub sup (i + 1) (j + 1)

(* Length of the union ([union]) or intersection of [a] and [b] from
   indexes [i] and [j] on, plus [acc]. *)
let rec merged_length shift union (a : int array) (b : int array) i j acc =
  if i >= Array.length a then
    if union then acc + Array.length b - j else acc
  else if j >= Array.length b then
    if union then acc + Array.length a - i else acc
  else
    let ta = a.(i) asr shift and tb = b.(j) asr shift in
    if ta < tb then
      merged_length shift union a b (i + 1) j (if union then acc + 1 else acc)
    else if tb < ta then
      merged_length shift union a b i (j + 1) (if union then acc + 1 else acc)
    else merged_length shift union a b (i + 1) (j + 1) (acc + 1)

(* Writes that union or intersection into [out] from index [k] on,
   keeping the older ([oldest]) or the younger age of a line in both. *)
let rec merge_into shift union oldest (a : int array) (b : int array)
    (out : int array) i j k =
  if i >= Array.length a then
    (if union then Array.blit b j out k (Array.length b - j))
  else if j >= Array.length b then
    (if union then Array.blit a i out k (Array.length a - i))
  else
    let x = a.(i) and y = b.(j) in
    let tx = x asr shift and ty = y asr shift in
    if tx < ty then begin
      if union then out.(k) <- x;
      merge_into shift union oldest a b out (i + 1) j
        (if union then k + 1 else k)
    end
    else if ty < tx then begin
      if union then out.(k) <- y;
      merge_into shift union oldest a b out i (j + 1)
        (if union then k + 1 else k)
    end
    else begin
      out.(k) <- (if (x < y) = oldest then y else x);
      merge_into shift union oldest a b out (i + 1) (j + 1) (k + 1)
    end

let merge shift ~union ~oldest a b =
  let out = Array.make (merged_length shift union a b 0 0 0) 0 in
  merge_into shift union oldest a b out 0 0 0;
  out

(* Join is idempotent, so a physically shared set record is its own
   join; and when the left record already absorbs the right one, the
   join is the left record itself and nothing is allocated. *)
let join_set kind shift s1 s2 =
  if s1 == s2 then s1
  else
    match kind with
    | Must ->
        (* intersection, max age *)
        if covers shift true s1.ages s2.ages 0 0 then s1
        else
          {
            ages = merge shift ~union:false ~oldest:true s1.ages s2.ages;
            universe = false;
          }
    | May ->
        (* union, min age *)
        if
          (s1.universe || not s2.universe)
          && covers shift true s2.ages s1.ages 0 0
        then s1
        else
          {
            ages = merge shift ~union:true ~oldest:false s1.ages s2.ages;
            universe = s1.universe || s2.universe;
          }
    | Pers ->
        (* union, max age *)
        if covers shift false s2.ages s1.ages 0 0 then s1
        else
          {
            ages = merge shift ~union:true ~oldest:true s1.ages s2.ages;
            universe = false;
          }

let join a b =
  if a == b then a
  else begin
    check_compat a b;
    (* The set array is copied at the first set the join changes. *)
    let sets = ref a.sets in
    for i = 0 to Array.length a.sets - 1 do
      let s = a.sets.(i) in
      let j = join_set a.kind a.shift s b.sets.(i) in
      if j != s then begin
        if !sets == a.sets then sets := Array.copy a.sets;
        !sets.(i) <- j
      end
    done;
    if !sets == a.sets then a else { a with sets = !sets }
  end

(* [t] with [f record] in place of every set record; [t] itself when
   [f] returns every record unchanged. *)
let map_sets t f =
  let sets = ref t.sets in
  for i = 0 to Array.length t.sets - 1 do
    let s = t.sets.(i) in
    let s' = f s in
    if s' != s then begin
      if !sets == t.sets then sets := Array.copy t.sets;
      !sets.(i) <- s'
    end
  done;
  if !sets == t.sets then t else { t with sets = !sets }

(* [t] with record [s] for [set]; [t] itself when [s] is its record. *)
let with_set t set s =
  if s == t.sets.(set) then t
  else begin
    let sets = Array.copy t.sets in
    sets.(set) <- s;
    { t with sets }
  end

(* The record after an access to [tag] in [s]: every other line
   strictly younger than [bound] ages by one (Must and May drop a line
   aged past the last way, Pers saturates it at [assoc]), and [tag]
   moves to age 0 when [renew], or else keeps its age, an untracked
   [tag] entering at age 0 only in Pers.  A step that moves nothing
   returns [s] itself; otherwise one pass sizes the result and one
   fills it. *)
let touch t s tag ~bound ~renew =
  let a = s.ages and sh = t.shift and m = max_age t and mask = mask t in
  let pers = t.kind = Pers and n = Array.length s.ages in
  let present = ref false and moved = ref false and dropped = ref 0 in
  for i = 0 to n - 1 do
    let age = a.(i) land mask in
    if a.(i) asr sh = tag then begin
      present := true;
      if renew && age <> 0 then moved := true
    end
    else if age < bound && (age < m || not pers) then begin
      moved := true;
      if age >= m then incr dropped
    end
  done;
  let insert = (not !present) && (renew || pers) in
  if not (!moved || insert) then s
  else begin
    (* Every slot starts as [tag] at age 0; an inserted [tag] keeps the
       slot the fill skips at its place in the tag order. *)
    let key = tag lsl sh in
    let out = Array.make (n - !dropped + if insert then 1 else 0) key in
    let k = ref 0 and placed = ref (not insert) in
    for i = 0 to n - 1 do
      let e = a.(i) in
      let tg = e asr sh and age = e land mask in
      if (not !placed) && tg > tag then begin
        placed := true;
        incr k
      end;
      if tg = tag then begin
        if not renew then out.(!k) <- e;
        incr k
      end
      else if age >= bound || (pers && age >= m) then begin
        out.(!k) <- e;
        incr k
      end
      else if age < m then begin
        out.(!k) <- e + 1;
        incr k
      end
    done;
    { s with ages = out }
  end

(* What steers an access's aging: the kind's own rule, or (Pers only)
   the must state before the same access. *)
type guide = Plain | Guided of t

(* The age of [tag] in [s], or [assoc] when untracked: an untracked tag
   is a definite miss, which ages everything. *)
let tracked_age t s tag =
  match age_in t.shift s tag with -1 -> t.config.Config.assoc | a -> a

(* Lines strictly younger than this bound age on an access to [tag] in
   set [set], whose record is [s]. *)
let bound t guide set s tag =
  match guide with
  | Guided must ->
      (* Must-guided persistence: the accessed tag's must-age bounds its
         true LRU position (absent from must = may miss = age all). *)
      tracked_age must must.sets.(set) tag
  | Plain -> (
      match t.kind with
      | Must -> tracked_age t s tag
      | May ->
          (* In a May state with the universe flag, *some* untracked line
             may be resident arbitrarily young — younger than the
             accessed tag — so no aging of minimum ages is guaranteed,
             whether the accessed tag is tracked or not.  Treating a
             tracked tag differently here is also non-monotone: a tag
             toggling between tracked and untracked across join
             iterations flips its set-mates between evicted and kept, and
             the fixpoint oscillates forever (found by the lib/fuzz
             oracle). *)
          if s.universe then 0 else tracked_age t s tag + 1
      | Pers ->
          (* Unconditional aging.  Using the accessed line's tracked age
             here (Ferdinand's original persistence update) is unsound: a
             join can import a young age for [tag] from one path and
             thereby suppress the aging that accesses on the *other* path
             must cause (the classic persistence unsoundness found by
             Huynh et al. / Cullmann — and rediscovered by this library's
             QCheck lattice tests).  Counting every same-set access as a
             potential new conflict is the simple sound rule. *)
          max_int)

(* One access to [tag] in [set].  An [uncertain] one is the join of the
   certain step with [s], computed in the same single pass: Must
   (intersection, older age) and Pers (union, older age) age the other
   lines as the certain step does but keep [tag]'s old age, and May
   (union, younger age) renews [tag] and ages nothing. *)
let step t guide ~uncertain set s tag =
  if not uncertain then
    touch t s tag ~bound:(bound t guide set s tag) ~renew:true
  else
    match t.kind with
    | May -> touch t s tag ~bound:0 ~renew:true
    | Must | Pers ->
        touch t s tag ~bound:(bound t guide set s tag) ~renew:false

(* An access to exactly one of [lines].  Only the touched sets are
   rebuilt: each becomes the join of its candidates' updates, joined
   with its old record too when the access may leave that set alone,
   because a candidate lies in another set or because [uncertain] says
   the access may not happen at all.  Joining in the old record is the
   same as joining the uncertain steps of the set's candidates, so each
   candidate takes one step and each further candidate of its set one
   join.  This equals the join of the one-line updates of [t] (and of
   [t] itself when [uncertain]) at the cost of the touched sets only,
   and the set array is copied only when a record changes. *)
let access_sets t ~uncertain guide lines =
  match lines with
  | [ line ] ->
      let set = Config.set_of_line t.config line in
      with_set t set
        (step t guide ~uncertain set t.sets.(set)
           (Config.tag_of_line t.config line))
  | first :: _ ->
      let set0 = Config.set_of_line t.config first in
      let joins_old =
        uncertain
        || List.exists (fun l -> Config.set_of_line t.config l <> set0) lines
      in
      let touched =
        List.fold_left
          (fun touched line ->
            let set = Config.set_of_line t.config line in
            let u =
              step t guide ~uncertain:joins_old set t.sets.(set)
                (Config.tag_of_line t.config line)
            in
            match List.assoc_opt set touched with
            | Some s ->
                (set, join_set t.kind t.shift s u)
                :: List.remove_assoc set touched
            | None -> (set, u) :: touched)
          [] lines
      in
      if List.for_all (fun (set, s) -> s == t.sets.(set)) touched then t
      else begin
        let sets = Array.copy t.sets in
        List.iter (fun (set, s) -> sets.(set) <- s) touched;
        { t with sets }
      end
  | [] -> t

let access_line t line = access_sets t ~uncertain:false Plain [ line ]

let access_one_of ?(uncertain = false) t lines =
  if lines = [] then invalid_arg "Acs.access_one_of: empty candidate list";
  access_sets t ~uncertain Plain lines

let check_guided name t must =
  if t.kind <> Pers || must.kind <> Must then
    invalid_arg (name ^ ": wants a Pers state and a Must state")

let access_line_guided t ~must line =
  check_guided "Acs.access_line_guided" t must;
  access_sets t ~uncertain:false (Guided must) [ line ]

let access_one_of_guided ?(uncertain = false) t ~must lines =
  check_guided "Acs.access_one_of_guided" t must;
  if lines = [] then
    invalid_arg "Acs.access_one_of_guided: empty candidate list";
  access_sets t ~uncertain (Guided must) lines

(* Every age of [s] raised by [n >= 1]: Must and May drop a line past
   the last way, Pers saturates it.  [s] itself when nothing moves. *)
let age_by t n s =
  let a = s.ages and m = max_age t and mask = mask t in
  let pers = t.kind = Pers and len = Array.length s.ages in
  let moved = ref false and kept = ref 0 in
  for i = 0 to len - 1 do
    let age = a.(i) land mask in
    if age < m then moved := true;
    if pers || age + n <= m then incr kept
  done;
  if len = 0 || (pers && not !moved) then s
  else begin
    let out = Array.make !kept 0 in
    let k = ref 0 in
    for i = 0 to len - 1 do
      let age = a.(i) land mask in
      if pers || age + n <= m then begin
        out.(!k) <- a.(i) - age + min m (age + n);
        incr k
      end
    done;
    { s with ages = out }
  end

let set_universe s = if s.universe then s else { s with universe = true }

(* Unknown access: exactly one set is touched by an unknown tag; the join
   over "which set" makes every set age conservatively (Must/Pers), while
   May keeps ages (the untouched scenario) but raises the universe flag. *)
let access_unknown t =
  match t.kind with
  | Must | Pers -> map_sets t (age_by t 1)
  | May -> map_sets t set_universe

let havoc t =
  match t.kind with
  | Must ->
      map_sets t (fun s -> if Array.length s.ages = 0 then s else empty_set)
  | May -> map_sets t set_universe
  | Pers -> map_sets t (age_by t (max_age t))

let age_of_line t line =
  let set = Config.set_of_line t.config line in
  match age_in t.shift t.sets.(set) (Config.tag_of_line t.config line) with
  | -1 -> None
  | a -> Some a

let contains_line t line = age_of_line t line <> None

let universe t ~set = t.sets.(set).universe

let lines_of_record t set s =
  Array.fold_left
    (fun acc e -> (((e asr t.shift) * t.config.Config.sets) + set) :: acc)
    [] s.ages

let lines t =
  let acc = ref [] in
  Array.iteri (fun set s -> acc := lines_of_record t set s @ !acc) t.sets;
  List.sort compare !acc

let lines_of_set t ~set =
  List.sort compare (lines_of_record t set t.sets.(set))

let shift_set t ~set n =
  if n <= 0 then t else with_set t set (age_by t n t.sets.(set))

let pp ppf t =
  let kind_str =
    match t.kind with Must -> "must" | May -> "may" | Pers -> "pers"
  in
  Format.fprintf ppf "@[<v>%s ACS:@," kind_str;
  Array.iteri
    (fun set s ->
      if Array.length s.ages > 0 || s.universe then begin
        Format.fprintf ppf "  set %d:" set;
        Array.iter
          (fun e ->
            Format.fprintf ppf " t%d@@%d" (e asr t.shift) (e land mask t))
          s.ages;
        if s.universe then Format.fprintf ppf " (+universe)";
        Format.fprintf ppf "@,"
      end)
    t.sets;
  Format.fprintf ppf "@]"
