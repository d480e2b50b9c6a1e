(* Tests for cache geometry, concrete LRU, abstract analyses, multilevel
   composition, shared-cache interference, partitioning and locking. *)

let cfg ~sets ~assoc = Cache.Config.make ~sets ~assoc ~line_size:8

(* ------------------------------------------------------------------ *)
(* Geometry                                                           *)
(* ------------------------------------------------------------------ *)

let test_config_geometry () =
  let c = cfg ~sets:4 ~assoc:2 in
  Alcotest.(check int) "lines" 8 (Cache.Config.num_lines c);
  Alcotest.(check int) "capacity" 64 (Cache.Config.capacity_bytes c);
  Alcotest.(check int) "line of 17" 2 (Cache.Config.line_of_addr c 17);
  Alcotest.(check int) "set of line 5" 1 (Cache.Config.set_of_line c 5);
  Alcotest.(check int) "tag of line 5" 1 (Cache.Config.tag_of_line c 5);
  Alcotest.(check int) "addr of line" 40 (Cache.Config.addr_of_line c 5);
  Alcotest.check_raises "bad sets"
    (Invalid_argument "Cache.Config.make: sets must be a power of two")
    (fun () -> ignore (Cache.Config.make ~sets:3 ~assoc:1 ~line_size:8))

let test_config_partitions () =
  let c = cfg ~sets:8 ~assoc:4 in
  let col = Cache.Config.columnize c ~ways:2 in
  Alcotest.(check int) "columnized ways" 2 col.Cache.Config.assoc;
  Alcotest.(check int) "columnized sets kept" 8 col.Cache.Config.sets;
  let bank = Cache.Config.bankize c ~share:1 ~of_:4 in
  Alcotest.(check int) "bankized sets" 2 bank.Cache.Config.sets;
  Alcotest.(check int) "bankized ways kept" 4 bank.Cache.Config.assoc

(* ------------------------------------------------------------------ *)
(* Concrete LRU                                                       *)
(* ------------------------------------------------------------------ *)

let addr_of_line c l = Cache.Config.addr_of_line c l

let test_concrete_lru_eviction () =
  let c = cfg ~sets:1 ~assoc:2 in
  let cache = Cache.Concrete.create c in
  let acc l = Cache.Concrete.access cache (addr_of_line c l) in
  Alcotest.(check bool) "miss 0" true (acc 0 = `Miss);
  Alcotest.(check bool) "miss 1" true (acc 1 = `Miss);
  Alcotest.(check bool) "hit 0" true (acc 0 = `Hit);
  (* 0 is now MRU; loading 2 evicts 1. *)
  Alcotest.(check bool) "miss 2" true (acc 2 = `Miss);
  Alcotest.(check bool) "hit 0 again" true (acc 0 = `Hit);
  Alcotest.(check bool) "1 evicted" true (acc 1 = `Miss)

let test_concrete_sets_independent () =
  let c = cfg ~sets:2 ~assoc:1 in
  let cache = Cache.Concrete.create c in
  let acc l = Cache.Concrete.access cache (addr_of_line c l) in
  ignore (acc 0);
  ignore (acc 1);
  (* line 0 -> set 0, line 1 -> set 1: no conflict. *)
  Alcotest.(check bool) "hit 0" true (acc 0 = `Hit);
  Alcotest.(check bool) "hit 1" true (acc 1 = `Hit);
  (* line 2 -> set 0 evicts line 0 only. *)
  ignore (acc 2);
  Alcotest.(check bool) "0 evicted" true (acc 0 = `Miss)

let test_concrete_locking () =
  let c = cfg ~sets:1 ~assoc:2 in
  let cache = Cache.Concrete.create c in
  Cache.Concrete.lock_line cache (addr_of_line c 0);
  let acc l = Cache.Concrete.access cache (addr_of_line c l) in
  Alcotest.(check bool) "locked always hits" true (acc 0 = `Hit);
  (* Only one unlocked way left: 1 and 2 thrash it. *)
  ignore (acc 1);
  ignore (acc 2);
  Alcotest.(check bool) "1 evicted by 2" true (acc 1 = `Miss);
  Alcotest.(check bool) "locked survives" true (acc 0 = `Hit);
  Cache.Concrete.lock_line cache (addr_of_line c 2);
  (match Cache.Concrete.lock_line cache (addr_of_line c 4) with
  | exception Failure _ -> ()
  | () -> Alcotest.fail "expected lock overflow failure");
  Cache.Concrete.unlock_all cache;
  Cache.Concrete.invalidate cache;
  Alcotest.(check (list int)) "empty after invalidate" []
    (Cache.Concrete.resident_lines cache)

let test_concrete_stats () =
  let c = cfg ~sets:1 ~assoc:2 in
  let cache = Cache.Concrete.create c in
  let acc l = ignore (Cache.Concrete.access cache (addr_of_line c l)) in
  acc 0; acc 0; acc 1; acc 0;
  let hits, misses = Cache.Concrete.stats cache in
  Alcotest.(check int) "hits" 2 hits;
  Alcotest.(check int) "misses" 2 misses

(* ------------------------------------------------------------------ *)
(* Abstract cache states                                              *)
(* ------------------------------------------------------------------ *)

let test_must_basic () =
  let c = cfg ~sets:1 ~assoc:2 in
  let acs = Cache.Acs.empty c Cache.Acs.Must in
  let acs = Cache.Acs.access_line acs 0 in
  Alcotest.(check (option int)) "line 0 age 0" (Some 0)
    (Cache.Acs.age_of_line acs 0);
  let acs = Cache.Acs.access_line acs 1 in
  Alcotest.(check (option int)) "line 0 aged" (Some 1)
    (Cache.Acs.age_of_line acs 0);
  let acs = Cache.Acs.access_line acs 2 in
  (* line 0 pushed out of 2 ways *)
  Alcotest.(check (option int)) "line 0 evicted" None
    (Cache.Acs.age_of_line acs 0);
  Alcotest.(check (option int)) "line 1 aged" (Some 1)
    (Cache.Acs.age_of_line acs 1)

let test_must_rehit_no_aging () =
  (* Re-accessing the MRU line must not age others. *)
  let c = cfg ~sets:1 ~assoc:2 in
  let acs = Cache.Acs.empty c Cache.Acs.Must in
  let acs = Cache.Acs.access_line acs 0 in
  let acs = Cache.Acs.access_line acs 1 in
  let acs = Cache.Acs.access_line acs 1 in
  Alcotest.(check (option int)) "line 0 stays age 1" (Some 1)
    (Cache.Acs.age_of_line acs 0)

let test_must_join_intersection () =
  let c = cfg ~sets:1 ~assoc:4 in
  let a =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty c Cache.Acs.Must)
      [ 0; 1 ]
  in
  let b =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty c Cache.Acs.Must)
      [ 2; 0 ]
  in
  let j = Cache.Acs.join a b in
  (* Only line 0 in both; ages: a has 0@1, b has 0@0 -> max 1. *)
  Alcotest.(check (option int)) "line 0 max age" (Some 1)
    (Cache.Acs.age_of_line j 0);
  Alcotest.(check (option int)) "line 1 dropped" None
    (Cache.Acs.age_of_line j 1);
  Alcotest.(check (option int)) "line 2 dropped" None
    (Cache.Acs.age_of_line j 2)

let test_may_join_union () =
  let c = cfg ~sets:1 ~assoc:4 in
  let a =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty c Cache.Acs.May)
      [ 0; 1 ]
  in
  let b =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty c Cache.Acs.May)
      [ 2; 0 ]
  in
  let j = Cache.Acs.join a b in
  Alcotest.(check (option int)) "line 0 min age" (Some 0)
    (Cache.Acs.age_of_line j 0);
  Alcotest.(check bool) "line 1 kept" true (Cache.Acs.contains_line j 1);
  Alcotest.(check bool) "line 2 kept" true (Cache.Acs.contains_line j 2)

let test_pers_saturates () =
  let c = cfg ~sets:1 ~assoc:2 in
  let acs = Cache.Acs.empty c Cache.Acs.Pers in
  let acs =
    List.fold_left Cache.Acs.access_line acs [ 0; 1; 2; 3 ]
  in
  (* line 0 has been pushed past assoc: saturates at 2 instead of dying. *)
  Alcotest.(check (option int)) "line 0 saturated" (Some 2)
    (Cache.Acs.age_of_line acs 0);
  Alcotest.(check (option int)) "line 3 fresh" (Some 0)
    (Cache.Acs.age_of_line acs 3)

let test_unknown_access_ages_must () =
  let c = cfg ~sets:2 ~assoc:2 in
  let acs = Cache.Acs.empty c Cache.Acs.Must in
  let acs = Cache.Acs.access_line acs 0 in
  let acs = Cache.Acs.access_unknown acs in
  Alcotest.(check (option int)) "line 0 aged by unknown" (Some 1)
    (Cache.Acs.age_of_line acs 0)

let test_unknown_access_sets_universe_in_may () =
  let c = cfg ~sets:2 ~assoc:2 in
  let acs = Cache.Acs.empty c Cache.Acs.May in
  let acs = Cache.Acs.access_unknown acs in
  Alcotest.(check bool) "universe set 0" true (Cache.Acs.universe acs ~set:0);
  Alcotest.(check bool) "universe set 1" true (Cache.Acs.universe acs ~set:1)

let test_havoc () =
  let c = cfg ~sets:1 ~assoc:2 in
  let must =
    Cache.Acs.access_line (Cache.Acs.empty c Cache.Acs.Must) 0
  in
  Alcotest.(check (option int)) "must havoc forgets" None
    (Cache.Acs.age_of_line (Cache.Acs.havoc must) 0);
  let pers =
    Cache.Acs.access_line (Cache.Acs.empty c Cache.Acs.Pers) 0
  in
  Alcotest.(check (option int)) "pers havoc saturates" (Some 2)
    (Cache.Acs.age_of_line (Cache.Acs.havoc pers) 0)

let test_shift_set () =
  let c = cfg ~sets:1 ~assoc:4 in
  let must =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty c Cache.Acs.Must)
      [ 0; 1 ]
  in
  let shifted = Cache.Acs.shift_set must ~set:0 2 in
  Alcotest.(check (option int)) "line 1 age 0+2" (Some 2)
    (Cache.Acs.age_of_line shifted 1);
  Alcotest.(check (option int)) "line 0 age 1+2" (Some 3)
    (Cache.Acs.age_of_line shifted 0);
  let gone = Cache.Acs.shift_set must ~set:0 4 in
  Alcotest.(check (option int)) "shifted out" None
    (Cache.Acs.age_of_line gone 0)

(* Soundness property: for two random access traces joined, must-hits hold
   on both concrete traces and may-absence implies miss on both. *)
let arb_trace =
  QCheck.make
    ~print:(fun (a, b, probe) ->
      Printf.sprintf "a=%s b=%s probe=%d"
        (String.concat "," (List.map string_of_int a))
        (String.concat "," (List.map string_of_int b))
        probe)
    QCheck.Gen.(
      let line = int_range 0 7 in
      triple
        (list_size (int_range 0 12) line)
        (list_size (int_range 0 12) line)
        line)

let run_concrete c trace probe =
  let cache = Cache.Concrete.create c in
  List.iter
    (fun l -> ignore (Cache.Concrete.access cache (addr_of_line c l)))
    trace;
  Cache.Concrete.probe cache (addr_of_line c probe)

let prop_must_sound =
  QCheck.Test.make ~name:"must-analysis sound vs concrete LRU" ~count:500
    arb_trace (fun (ta, tb, probe) ->
      let c = cfg ~sets:2 ~assoc:2 in
      let abstract trace =
        List.fold_left Cache.Acs.access_line
          (Cache.Acs.empty c Cache.Acs.Must)
          trace
      in
      let j = Cache.Acs.join (abstract ta) (abstract tb) in
      (not (Cache.Acs.contains_line j probe))
      || (run_concrete c ta probe && run_concrete c tb probe))

let prop_may_sound =
  QCheck.Test.make ~name:"may-analysis sound vs concrete LRU" ~count:500
    arb_trace (fun (ta, tb, probe) ->
      let c = cfg ~sets:2 ~assoc:2 in
      let abstract trace =
        List.fold_left Cache.Acs.access_line
          (Cache.Acs.empty c Cache.Acs.May)
          trace
      in
      let j = Cache.Acs.join (abstract ta) (abstract tb) in
      Cache.Acs.contains_line j probe
      || ((not (run_concrete c ta probe)) && not (run_concrete c tb probe)))

(* Lattice laws for all three ACS kinds on random trace-derived states. *)
let lattice_props =
  let arb_kind =
    QCheck.make
      ~print:(fun k ->
        match k with
        | Cache.Acs.Must -> "must"
        | Cache.Acs.May -> "may"
        | Cache.Acs.Pers -> "pers")
      QCheck.Gen.(oneofl [ Cache.Acs.Must; Cache.Acs.May; Cache.Acs.Pers ])
  in
  let arb_state =
    QCheck.make
      ~print:(fun (k, tr) ->
        Printf.sprintf "%s:%s"
          (match k with
          | Cache.Acs.Must -> "must"
          | Cache.Acs.May -> "may"
          | Cache.Acs.Pers -> "pers")
          (String.concat "," (List.map string_of_int tr)))
      QCheck.Gen.(
        pair
          (oneofl [ Cache.Acs.Must; Cache.Acs.May; Cache.Acs.Pers ])
          (list_size (int_range 0 10) (int_range 0 7)))
  in
  ignore arb_kind;
  let mk k trace =
    List.fold_left Cache.Acs.access_line
      (Cache.Acs.empty (cfg ~sets:2 ~assoc:2) k)
      trace
  in
  (* Candidate lists over lines 0..7 of the 2-set geometry: candidates
     both collide in one set and span both sets. *)
  let arb_candidates =
    QCheck.make
      ~print:(fun ls -> String.concat "," (List.map string_of_int ls))
      QCheck.Gen.(list_size (int_range 1 4) (int_range 0 7))
  in
  (* The reference for the set-local candidate steps: the join of the
     one-line updates. *)
  let join_of update = function
    | [] -> invalid_arg "join_of"
    | l :: rest ->
        List.fold_left
          (fun acc l -> Cache.Acs.join acc (update l))
          (update l) rest
  in
  [
    QCheck.Test.make ~name:"ACS access_one_of equals the join of updates"
      ~count:300 (QCheck.pair arb_state arb_candidates)
      (fun ((k, tr), ls) ->
        let t = mk k tr in
        let reference = join_of (Cache.Acs.access_line t) ls in
        Cache.Acs.equal (Cache.Acs.access_one_of t ls) reference
        && Cache.Acs.equal
             (Cache.Acs.access_one_of ~uncertain:true t ls)
             (Cache.Acs.join reference t));
    QCheck.Test.make
      ~name:"ACS access_one_of_guided equals the join of guided updates"
      ~count:300 (QCheck.pair arb_state arb_candidates)
      (fun ((_, tr), ls) ->
        let t = mk Cache.Acs.Pers tr and must = mk Cache.Acs.Must tr in
        let reference =
          join_of (fun l -> Cache.Acs.access_line_guided t ~must l) ls
        in
        Cache.Acs.equal (Cache.Acs.access_one_of_guided t ~must ls) reference
        && Cache.Acs.equal
             (Cache.Acs.access_one_of_guided ~uncertain:true t ~must ls)
             (Cache.Acs.join reference t));
    (* The L2 steps apply an uncertain unknown access as a certain one. *)
    QCheck.Test.make ~name:"ACS unknown access absorbs its input" ~count:200
      arb_state (fun (k, tr) ->
        let t = mk k tr in
        let u = Cache.Acs.access_unknown t in
        Cache.Acs.equal (Cache.Acs.join u t) u);
    (* [join] and [equal] short-circuit on physically shared states and
       set records, so the laws compare against an unshared copy rebuilt
       from the same trace: that one goes through the set merge. *)
    QCheck.Test.make ~name:"ACS join idempotent" ~count:200 arb_state
      (fun (k, tr) ->
        let a = mk k tr in
        Cache.Acs.equal (Cache.Acs.join a (mk k tr)) a);
    QCheck.Test.make ~name:"ACS join of shared sets equals the merge"
      ~count:200
      (QCheck.pair arb_state
         (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 7)))
      (fun ((k, tr), line) ->
        let a = mk k tr in
        let u = Cache.Acs.access_line a line in
        Cache.Acs.equal (Cache.Acs.join u a) (Cache.Acs.join u (mk k tr)));
    QCheck.Test.make ~name:"ACS join commutative" ~count:200
      (QCheck.pair arb_state arb_state)
      (fun ((k1, t1), (_, t2)) ->
        let a = mk k1 t1 and b = mk k1 t2 in
        Cache.Acs.equal (Cache.Acs.join a b) (Cache.Acs.join b a));
    QCheck.Test.make ~name:"ACS join associative" ~count:200
      (QCheck.triple arb_state arb_state arb_state)
      (fun ((k1, t1), (_, t2), (_, t3)) ->
        let a = mk k1 t1 and b = mk k1 t2 and c = mk k1 t3 in
        Cache.Acs.equal
          (Cache.Acs.join a (Cache.Acs.join b c))
          (Cache.Acs.join (Cache.Acs.join a b) c));
    QCheck.Test.make ~name:"ACS update distributes soundly over join"
      ~count:200
      (QCheck.triple arb_state arb_state (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 0 7)))
      (fun ((k1, t1), (_, t2), line) ->
        (* join (update a) (update b) over-approximates update (join a b):
           joining first never yields MORE knowledge. *)
        let a = mk k1 t1 and b = mk k1 t2 in
        let u_then_join =
          Cache.Acs.join
            (Cache.Acs.access_line a line)
            (Cache.Acs.access_line b line)
        in
        let join_then_u = Cache.Acs.access_line (Cache.Acs.join a b) line in
        (* For Must: join-then-update keeps a subset of lines with ages >=.
           Check via: every line of join_then_u is in u_then_join with age
           <= (Must/Pers) or >= (May). *)
        List.for_all
          (fun l ->
            match
              (Cache.Acs.age_of_line join_then_u l,
               Cache.Acs.age_of_line u_then_join l)
            with
            | Some aj, Some au -> (
                match k1 with
                | Cache.Acs.Must | Cache.Acs.Pers -> aj >= au
                | Cache.Acs.May -> aj <= au)
            | None, _ -> true
            | Some _, None -> k1 = Cache.Acs.May)
          (Cache.Acs.lines join_then_u));
  ]

(* Differential test of Cache.Acs against the map-based implementation
   it replaced (Acs_reference): random operation sequences on both, over
   every kind and the geometries the analyses use, compared through
   every observer after every step.  A Pers run steers its guided
   accesses with a Must state stepped alongside it, as the analyses do;
   joins take an earlier state of the same run, in either order. *)
module R = Acs_reference
module A = Cache.Acs

type acs_op =
  | Line of int
  | One_of of int list * bool  (** candidates, uncertain *)
  | Guided of int list * bool
  | Unknown
  | Havoc
  | Join of int * bool  (** an earlier state, on the left when [true] *)
  | Shift of int * int  (** set, amount *)

let acs_op_to_string = function
  | Line l -> Printf.sprintf "line %d" l
  | One_of (ls, u) ->
      Printf.sprintf "one_of%s [%s]"
        (if u then "?" else "")
        (String.concat ";" (List.map string_of_int ls))
  | Guided (ls, u) ->
      Printf.sprintf "guided%s [%s]"
        (if u then "?" else "")
        (String.concat ";" (List.map string_of_int ls))
  | Unknown -> "unknown"
  | Havoc -> "havoc"
  | Join (k, left) -> Printf.sprintf "join %d%s" k (if left then "" else "'")
  | Shift (set, n) -> Printf.sprintf "shift %d by %d" set n

let kind_name = function A.Must -> "must" | A.May -> "may" | A.Pers -> "pers"

(* Lines crowd into the first two sets and a random one, with enough
   tags per set to overflow every associativity. *)
let gen_acs_case =
  QCheck.Gen.(
    let* kind = oneofl [ A.Must; A.May; A.Pers ] in
    let* sets = oneofl [ 1; 2; 4; 64 ] in
    let* assoc = oneofl [ 1; 2; 4 ] in
    let line =
      let* set =
        oneof [ return 0; return (1 mod sets); int_bound (sets - 1) ]
      in
      let* tag = int_bound ((2 * assoc) + 1) in
      return ((tag * sets) + set)
    in
    let candidates = list_size (int_range 1 4) line in
    let op =
      frequency
        [
          (3, map (fun l -> Line l) line);
          (4, map2 (fun ls u -> One_of (ls, u)) candidates bool);
          (3, map2 (fun ls u -> Guided (ls, u)) candidates bool);
          (1, return Unknown);
          (1, return Havoc);
          (3, map2 (fun k left -> Join (k, left)) nat bool);
          ( 1,
            map2
              (fun set n -> Shift (set, n))
              (int_bound (sets - 1))
              (int_range 0 3) );
        ]
    in
    let* ops = list_size (int_range 1 30) op in
    return (kind, sets, assoc, ops))

let print_acs_case (kind, sets, assoc, ops) =
  Printf.sprintf "%s %dx%d: %s" (kind_name kind) sets assoc
    (String.concat ", " (List.map acs_op_to_string ops))

(* One run's state in both implementations, with the Must state that
   guides a Pers run ([None] otherwise). *)
type acs_pair = { r : R.t; a : A.t; guide : (R.t * A.t) option }

let acs_step history p op =
  let guide_step f g = Option.map (fun (rm, am) -> (f rm, g am)) p.guide in
  match op with
  | Line l ->
      {
        r = R.access_line p.r l;
        a = A.access_line p.a l;
        guide =
          guide_step
            (fun m -> R.access_line m l)
            (fun m -> A.access_line m l);
      }
  | One_of (ls, uncertain) | Guided (ls, uncertain) -> (
      let guide =
        guide_step
          (fun m -> R.access_one_of ~uncertain m ls)
          (fun m -> A.access_one_of ~uncertain m ls)
      in
      match (op, p.guide) with
      | Guided _, Some (rm, am) ->
          {
            r = R.access_one_of_guided ~uncertain p.r ~must:rm ls;
            a = A.access_one_of_guided ~uncertain p.a ~must:am ls;
            guide;
          }
      | _ ->
          {
            r = R.access_one_of ~uncertain p.r ls;
            a = A.access_one_of ~uncertain p.a ls;
            guide;
          })
  | Unknown ->
      {
        r = R.access_unknown p.r;
        a = A.access_unknown p.a;
        guide = guide_step R.access_unknown A.access_unknown;
      }
  | Havoc ->
      { r = R.havoc p.r; a = A.havoc p.a; guide = guide_step R.havoc A.havoc }
  | Join (k, left) ->
      let h = List.nth history (k mod List.length history) in
      let r, a =
        if left then (R.join p.r h.r, A.join p.a h.a)
        else (R.join h.r p.r, A.join h.a p.a)
      in
      let guide =
        match (p.guide, h.guide) with
        | Some (rm, am), Some (hr, ha) ->
            Some
              (if left then (R.join rm hr, A.join am ha)
               else (R.join hr rm, A.join ha am))
        | _ -> None
      in
      { r; a; guide }
  | Shift (set, n) ->
      {
        r = R.shift_set p.r ~set n;
        a = A.shift_set p.a ~set n;
        guide =
          guide_step
            (fun m -> R.shift_set m ~set n)
            (fun m -> A.shift_set m ~set n);
      }

(* Both implementations answer every observer alike: tracked lines, the
   age of every line the run may touch, every universe flag, the
   printer, and equality with every earlier state of the run. *)
let acs_agree ~sets ~assoc history (r, a) =
  let probes = List.init (sets * ((2 * assoc) + 2)) Fun.id in
  R.lines r = A.lines a
  && List.for_all (fun l -> R.age_of_line r l = A.age_of_line a l) probes
  && List.for_all
       (fun set ->
         R.universe r ~set = A.universe a ~set
         && R.lines_of_set r ~set = A.lines_of_set a ~set)
       (List.init sets Fun.id)
  && Format.asprintf "%a" R.pp r = Format.asprintf "%a" A.pp a
  && List.for_all (fun (hr, ha) -> R.equal r hr = A.equal a ha) history

let prop_acs_reference =
  QCheck.Test.make ~name:"random operation sequences agree" ~count:400
    (QCheck.make ~print:print_acs_case gen_acs_case)
    (fun (kind, sets, assoc, ops) ->
      let c = cfg ~sets ~assoc in
      let start =
        {
          r = R.empty c kind;
          a = A.empty c kind;
          guide =
            (if kind = A.Pers then Some (R.empty c A.Must, A.empty c A.Must)
             else None);
        }
      in
      let pairs p =
        (p.r, p.a) :: (match p.guide with Some g -> [ g ] | None -> [])
      in
      let rec run history p = function
        | [] -> true
        | op :: rest ->
            let q = acs_step history p op in
            let history = q :: history in
            let seen = List.concat_map pairs history in
            List.for_all (acs_agree ~sets ~assoc seen) (pairs q)
            && run history q rest
      in
      run [ start ] start ops)

let test_guided_pers_multi_line_loop () =
  (* Two same-set lines cycled in a 2-way set: the naive always-age rule
     saturates them, the must-guided update keeps both persistent. *)
  let c = cfg ~sets:1 ~assoc:2 in
  let rec iterate (must, pers) k =
    if k = 0 then (must, pers)
    else
      let step (m, p) l =
        (Cache.Acs.access_line m l, Cache.Acs.access_line_guided p ~must:m l)
      in
      iterate (step (step (must, pers) 0) 1) (k - 1)
  in
  let _, pers =
    iterate
      (Cache.Acs.empty c Cache.Acs.Must, Cache.Acs.empty c Cache.Acs.Pers)
      6
  in
  (match Cache.Acs.age_of_line pers 0 with
  | Some a ->
      Alcotest.(check bool)
        (Printf.sprintf "line 0 persistent (age %d < 2)" a)
        true (a < 2)
  | None -> Alcotest.fail "line 0 lost");
  (* And the guided update refuses wrong kinds. *)
  Alcotest.check_raises "kind check"
    (Invalid_argument
       "Acs.access_line_guided: wants a Pers state and a Must state")
    (fun () ->
      ignore
        (Cache.Acs.access_line_guided
           (Cache.Acs.empty c Cache.Acs.Must)
           ~must:(Cache.Acs.empty c Cache.Acs.Must)
           0))

(* ------------------------------------------------------------------ *)
(* Whole-procedure analysis                                           *)
(* ------------------------------------------------------------------ *)

let build src =
  let p = Isa.Asm.parse ~name:"t" src in
  Cfg.Graph.build p ~entry:"main"

let icache_analysis ?(entry = Cache.Analysis.Cold) config g =
  Cache.Analysis.analyze config g ~entry
    ~accesses:(Cache.Analysis.instruction_accesses config g)

let test_icache_loop_persistence () =
  (* A loop whose body fits in the cache: fetches are PS (first iteration
     misses, later ones hit). *)
  let g =
    build
      {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  nop
  bne r1, r0, loop
  halt
|}
  in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  (* line_size 4 = one instruction per line. *)
  let a = icache_analysis c g in
  let loop_start = Isa.Program.label_index g.Cfg.Graph.program "loop" in
  let cls = Cache.Analysis.classification a loop_start in
  Alcotest.(check bool)
    (Printf.sprintf "loop head fetch is PS or AH, got %s"
       (Cache.Analysis.classification_to_string cls))
    true
    (cls = Cache.Analysis.Persistent || cls = Cache.Analysis.Always_hit)

let test_icache_straightline_cold_misses () =
  let g = build "main:\n  nop\n  nop\n  halt\n" in
  let c = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4 in
  let a = icache_analysis c g in
  (* Cold start, one instr per line, no reuse: every fetch misses. *)
  List.iter
    (fun i ->
      Alcotest.(check string)
        (Printf.sprintf "instr %d" i)
        "AM"
        (Cache.Analysis.classification_to_string
           (Cache.Analysis.classification a i)))
    [ 0; 1; 2 ]

let test_icache_same_line_hits () =
  let g = build "main:\n  nop\n  nop\n  halt\n" in
  (* 16-byte lines: all three instructions share line 0. *)
  let c = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:16 in
  let a = icache_analysis c g in
  Alcotest.(check string) "first fetch misses" "AM"
    (Cache.Analysis.classification_to_string
       (Cache.Analysis.classification a 0));
  Alcotest.(check string) "second fetch hits" "AH"
    (Cache.Analysis.classification_to_string
       (Cache.Analysis.classification a 1))

let test_icache_unknown_entry_no_am () =
  let g = build "main:\n  nop\n  halt\n" in
  let c = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4 in
  let a = icache_analysis ~entry:Cache.Analysis.Unknown_entry c g in
  (* With unknown entry content, a first access cannot be AM. *)
  let cls = Cache.Analysis.classification a 0 in
  Alcotest.(check bool) "not AM" true (cls <> Cache.Analysis.Always_miss)

let test_icache_call_havocs () =
  let g =
    build "main:\n  nop\n  call f\n  nop\n  halt\nf:\n  ret\n"
  in
  let c = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:16 in
  let a = icache_analysis c g in
  (* Instruction after the call cannot be AH even though its line was
     touched before: the callee may have evicted it. *)
  let cls = Cache.Analysis.classification a 2 in
  Alcotest.(check bool)
    (Printf.sprintf "post-call fetch not AH (got %s)"
       (Cache.Analysis.classification_to_string cls))
    true
    (cls <> Cache.Analysis.Always_hit)

let test_dcache_accesses_extraction () =
  let g =
    build
      {|
main:
  li r1, 4
  ld.d r2, 0(r1)
  st.s r2, 2(r0)
  ld.io r3, 0(r0)
  halt
|}
  in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:8 in
  let p = g.Cfg.Graph.program in
  ignore p;
  let va = Dataflow.Value_analysis.analyze g in
  let accs = Cache.Analysis.data_accesses c g va g.Cfg.Graph.entry in
  (* io access is uncached: only 2 accesses. *)
  Alcotest.(check int) "two cacheable accesses" 2 (List.length accs);
  let a0 = List.nth accs 0 in
  (match a0.Cache.Analysis.target with
  | Cache.Analysis.Lines [ l ] ->
      let expect =
        Cache.Config.line_of_addr c (Isa.Layout.byte_addr Isa.Instr.Data 4)
      in
      Alcotest.(check int) "data line" expect l
  | _ -> Alcotest.fail "expected single-line target");
  ()

let test_dcache_unknown_address () =
  let g = build "main:\n  ld.d r1, 0(r0)\n  ld.d r2, 0(r1)\n  halt\n" in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:8 in
  let va = Dataflow.Value_analysis.analyze g in
  let accs = Cache.Analysis.data_accesses c g va g.Cfg.Graph.entry in
  match List.map (fun a -> a.Cache.Analysis.target) accs with
  | [ Cache.Analysis.Lines _; Cache.Analysis.Unknown ] -> ()
  | _ -> Alcotest.fail "expected known then unknown target"

let test_dcache_negative_address () =
  (* Index -300000 of the data space lies below byte address 0: no cache
     line holds it, so the access is unknown rather than a negative set. *)
  let g = build "main:\n  li r1, -300000\n  ld.d r2, 0(r1)\n  halt\n" in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:8 in
  let va = Dataflow.Value_analysis.analyze g in
  match Cache.Analysis.data_accesses c g va g.Cfg.Graph.entry with
  | [ { Cache.Analysis.target = Cache.Analysis.Unknown; _ } ] -> ()
  | _ -> Alcotest.fail "expected one unknown data access"

let test_classification_not_found () =
  let g =
    build "main:\n  nop\n  ld.d r2, 4(r0)\n  call f\n  halt\nf:\n  ret\n"
  in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:8 in
  let va = Dataflow.Value_analysis.analyze g in
  let a =
    Cache.Analysis.analyze c g ~entry:Cache.Analysis.Cold
      ~accesses:(Cache.Analysis.data_accesses c g va)
  in
  ignore (Cache.Analysis.classification a ~kind:Cache.Analysis.Data 1);
  let missing label kind i =
    Alcotest.check_raises label Not_found (fun () ->
        ignore (Cache.Analysis.classification a ~kind i))
  in
  missing "no data access at a nop" Cache.Analysis.Data 0;
  missing "no fetch in a data analysis" Cache.Analysis.Fetch 1;
  missing "callee instruction" Cache.Analysis.Data 4;
  missing "past the program" Cache.Analysis.Data 100;
  missing "negative index" Cache.Analysis.Data (-1)

(* [accesses] is built once, from the per-kind tables; it must equal the
   list the per-call construction gave: every block's accesses, sorted
   by (instruction, kind), each paired with its classification. *)
let prop_accesses_sorted_once =
  QCheck.Test.make ~name:"accesses equals the sorted per-block list" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 63))
    (fun (seed, index) ->
      let gen = Fuzz.Generator.generate ~seed ~index () in
      let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16 in
      let callgraph = Cfg.Callgraph.build gen.Fuzz.Generator.program in
      List.for_all
        (fun (_, g) ->
          let va = Dataflow.Value_analysis.analyze g in
          List.for_all
            (fun accesses ->
              let t =
                Cache.Analysis.analyze c g ~entry:Cache.Analysis.Cold ~accesses
              in
              let expected =
                List.init (Cfg.Graph.num_blocks g) accesses
                |> List.concat
                |> List.sort (fun (a : Cache.Analysis.access) b ->
                       compare
                         (a.Cache.Analysis.instr, a.Cache.Analysis.kind)
                         (b.Cache.Analysis.instr, b.Cache.Analysis.kind))
                |> List.map (fun (a : Cache.Analysis.access) ->
                       ( a,
                         Cache.Analysis.classification t
                           ~kind:a.Cache.Analysis.kind a.Cache.Analysis.instr
                       ))
              in
              Cache.Analysis.accesses t = expected)
            [
              Cache.Analysis.instruction_accesses c g;
              Cache.Analysis.data_accesses c g va;
              Core.Context.combined_l2_accesses ~include_fetches:true c g va;
            ])
        (Cfg.Callgraph.bottom_up callgraph))

(* ------------------------------------------------------------------ *)
(* Multilevel                                                         *)
(* ------------------------------------------------------------------ *)

let multilevel_for src ~l1_cfg ~l2_cfg =
  let g = build src in
  let l1 = icache_analysis l1_cfg g in
  let m =
    Cache.Multilevel.analyze l2_cfg g ~entry:Cache.Analysis.Cold
      ~cac_of:(Cache.Multilevel.cac_of_l1_analysis l1)
      ~l2_accesses:(Cache.Analysis.instruction_accesses l2_cfg g)
      ()
  in
  (g, l1, m)

(* Persistence decides only an access that must and may leave open, so
   a level runs its persistence fixpoint only when it has one: never on
   cold straight-line code, whose every fetch misses, and once per level
   for a loop whose body misses on entry and hits on the back edge. *)
let test_persistence_on_demand () =
  let l1_cfg = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:8 ~assoc:2 ~line_size:4 in
  let pers_fixpoints src =
    List.map
      (fun level ->
        snd
          (Front_ends.spans
             ("cache." ^ level ^ ".pers")
             (fun () -> ignore (multilevel_for src ~l1_cfg ~l2_cfg))))
      [ "l1"; "l2" ]
  in
  Alcotest.(check (list int))
    "straight line: no persistence fixpoint" [ 0; 0 ]
    (pers_fixpoints "main:\n  nop\n  nop\n  halt\n");
  let loop =
    "main:\n  li r1, 10\nloop:\n  subi r1, r1, 1\n  nop\n  bne r1, r0, loop\n  halt\n"
  in
  Alcotest.(check (list int))
    "loop: one persistence fixpoint per level" [ 1; 1 ]
    (pers_fixpoints loop);
  let _, l1, m = multilevel_for loop ~l1_cfg ~l2_cfg in
  Alcotest.(check string) "loop head is PS at L1" "PS"
    (Cache.Analysis.classification_to_string
       (Cache.Analysis.classification l1 1));
  Alcotest.(check string) "loop head is PS at L2" "PS"
    (Cache.Analysis.classification_to_string
       (Cache.Multilevel.classification m 1))

let test_multilevel_cac () =
  let src =
    {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  let l1_cfg = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:8 ~assoc:2 ~line_size:4 in
  let g, l1, m = multilevel_for src ~l1_cfg ~l2_cfg in
  ignore l1;
  (* Instruction 0 (li): first access, L1 AM -> CAC Always; cold L2 ->
     L2 AM. *)
  Alcotest.(check bool) "instr 0 CAC Always" true
    (Cache.Multilevel.cac m 0 = Cache.Multilevel.Always);
  Alcotest.(check string) "instr 0 L2 AM" "AM"
    (Cache.Analysis.classification_to_string
       (Cache.Multilevel.classification m 0));
  ignore g

let test_multilevel_never_for_l1_hits () =
  (* Big L1 line: instr 1 hits L1 -> CAC Never -> L2 reports AH (not
     accessed). *)
  let src = "main:\n  nop\n  nop\n  halt\n" in
  let l1_cfg = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:16 in
  let l2_cfg = Cache.Config.make ~sets:8 ~assoc:2 ~line_size:16 in
  let _, _, m = multilevel_for src ~l1_cfg ~l2_cfg in
  Alcotest.(check bool) "instr 1 CAC Never" true
    (Cache.Multilevel.cac m 1 = Cache.Multilevel.Never)

let test_multilevel_footprint () =
  let src = "main:\n  nop\n  nop\n  nop\n  nop\n  halt\n" in
  let l1_cfg = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  let _, _, m = multilevel_for src ~l1_cfg ~l2_cfg in
  let fp = Cache.Multilevel.footprint m in
  (* 5 instructions at lines 0..4 -> sets 0..3 plus wrap: set 0 has lines
     0 and 4. *)
  Alcotest.(check int) "set 0 two lines" 2 fp.(0);
  Alcotest.(check int) "set 1 one line" 1 fp.(1)

let test_multilevel_bypass () =
  let src = "main:\n  nop\n  nop\n  halt\n" in
  let l1_cfg = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  let g = build src in
  let l1 = icache_analysis l1_cfg g in
  let m =
    Cache.Multilevel.analyze l2_cfg g ~entry:Cache.Analysis.Cold
      ~cac_of:(Cache.Multilevel.cac_of_l1_analysis l1)
      ~l2_accesses:(Cache.Analysis.instruction_accesses l2_cfg g)
      ~bypass:(fun _ -> true)
      ()
  in
  let fp = Cache.Multilevel.footprint m in
  Alcotest.(check int) "bypassed footprint empty" 0
    (Array.fold_left ( + ) 0 fp);
  Alcotest.(check string) "bypassed access L2 AM" "AM"
    (Cache.Analysis.classification_to_string
       (Cache.Multilevel.classification m 0))

let test_single_usage_lines () =
  let src =
    {|
main:
  li r1, 3
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  let g = build src in
  let dom = Cfg.Dominators.compute g in
  let loops = Cfg.Loops.analyze g dom in
  let c = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  let su =
    Cache.Multilevel.single_usage_lines g loops
      ~l2_accesses:(Cache.Analysis.instruction_accesses c g)
  in
  (* Lines of instr 0 (li) and instr 3 (halt) are single-usage; the loop
     lines (instr 1-2) are not. *)
  Alcotest.(check (list int)) "single usage" [ 0; 3 ] su

(* ------------------------------------------------------------------ *)
(* Shared-cache interference                                          *)
(* ------------------------------------------------------------------ *)

let test_shared_interference_degrades () =
  (* Loop body PS/AH at L2... build a case where the task has an L2 AH
     and conflicts push it out. *)
  let src =
    {|
main:
  li r1, 10
loop:
  subi r1, r1, 1
  bne r1, r0, loop
  halt
|}
  in
  (* Tiny L1 so loop fetches miss L1; L2 assoc 2. *)
  let l1_cfg = Cache.Config.make ~sets:1 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:2 ~assoc:2 ~line_size:4 in
  let _, _, m = multilevel_for src ~l1_cfg ~l2_cfg in
  let before =
    List.map
      (fun (i : Cache.Multilevel.access_info) ->
        (i.Cache.Multilevel.instr, i.Cache.Multilevel.l2_class))
      (Cache.Multilevel.access_infos m)
  in
  let no_conf = Cache.Shared.no_conflicts l2_cfg in
  let same = Cache.Shared.interfere m no_conf in
  Alcotest.(check bool) "no conflicts -> unchanged" true (before = same);
  let full_conf = Array.make l2_cfg.Cache.Config.sets 2 in
  let after = Cache.Shared.interfere m full_conf in
  let frac = Cache.Shared.degraded_fraction ~before ~after in
  Alcotest.(check bool)
    (Printf.sprintf "full conflicts degrade some accesses (%.2f)" frac)
    true (frac > 0.0);
  (* And nothing can be AH or PS anymore under assoc-many conflicts. *)
  List.iter
    (fun (_, cls) ->
      Alcotest.(check bool) "no AH/PS survives" true
        (cls = Cache.Analysis.Always_miss
        || cls = Cache.Analysis.Not_classified))
    after

let test_shared_am_survives () =
  let src = "main:\n  nop\n  halt\n" in
  let l1_cfg = Cache.Config.make ~sets:1 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:2 ~assoc:2 ~line_size:4 in
  let _, _, m = multilevel_for src ~l1_cfg ~l2_cfg in
  let full_conf = Array.make l2_cfg.Cache.Config.sets 2 in
  let after = Cache.Shared.interfere m full_conf in
  List.iter
    (fun ((i, cls) : int * Cache.Analysis.classification) ->
      match Cache.Multilevel.classification m i with
      | Cache.Analysis.Always_miss ->
          Alcotest.(check string) "AM survives" "AM"
            (Cache.Analysis.classification_to_string cls)
      | _ -> ())
    after

let test_shared_conflicts_of_corunners () =
  let src = "main:\n  nop\n  nop\n  nop\n  nop\n  halt\n" in
  let l1_cfg = Cache.Config.make ~sets:1 ~assoc:1 ~line_size:4 in
  let l2_cfg = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:4 in
  let _, _, m = multilevel_for src ~l1_cfg ~l2_cfg in
  let conf = Cache.Shared.conflicts_of_corunners [ m; m ] l2_cfg in
  (* Two identical co-runners: set 0 has 2 lines each -> capped at assoc 2. *)
  Alcotest.(check int) "capped at assoc" 2 conf.(0)

(* ------------------------------------------------------------------ *)
(* Partitioning and locking                                           *)
(* ------------------------------------------------------------------ *)

let test_partition_even_shares () =
  let c = cfg ~sets:8 ~assoc:4 in
  let col =
    Cache.Partition.even_shares Cache.Partition.Columnization c ~parts:4
  in
  Alcotest.(check (list int)) "ways split" [ 1; 1; 1; 1 ]
    col.Cache.Partition.shares;
  let pc = Cache.Partition.partition_config c col ~index:0 in
  Alcotest.(check int) "partition ways" 1 pc.Cache.Config.assoc;
  let bank =
    Cache.Partition.even_shares Cache.Partition.Bankization c ~parts:3
  in
  (* 8 sets / 3 parts -> shares rounded to powers of two. *)
  List.iter
    (fun s -> Alcotest.(check bool) "pow2" true (s land (s - 1) = 0))
    bank.Cache.Partition.shares

let test_locking_greedy () =
  let c = cfg ~sets:2 ~assoc:1 in
  (* Lines 0 and 2 both map to set 0; only one way.  Profit favors 2. *)
  let sel =
    Cache.Locking.select c ~candidates:[ (0, 5); (2, 50); (1, 10) ]
  in
  Alcotest.(check (list int)) "locked" [ 1; 2 ] sel.Cache.Locking.locked;
  Alcotest.(check string) "locked line hits" "AH"
    (Cache.Analysis.classification_to_string
       (Cache.Locking.classify sel (Cache.Analysis.Lines [ 2 ])));
  Alcotest.(check string) "unlocked line misses" "AM"
    (Cache.Analysis.classification_to_string
       (Cache.Locking.classify sel (Cache.Analysis.Lines [ 0 ])))

let test_locking_weights () =
  let c = cfg ~sets:2 ~assoc:1 in
  let sel = Cache.Locking.select c ~candidates:[ (0, 10) ] in
  let accesses =
    [
      ( { Cache.Analysis.instr = 0; kind = Cache.Analysis.Data;
          target = Cache.Analysis.Lines [ 0 ] },
        10 );
      ( { Cache.Analysis.instr = 1; kind = Cache.Analysis.Data;
          target = Cache.Analysis.Lines [ 1 ] },
        3 );
    ]
  in
  let hits, misses = Cache.Locking.locked_hit_count sel accesses in
  Alcotest.(check int) "hit weight" 10 hits;
  Alcotest.(check int) "miss weight" 3 misses

(* ------------------------------------------------------------------ *)
(* Method cache                                                       *)
(* ------------------------------------------------------------------ *)

let test_method_cache_fifo () =
  let mc = Cache.Method_cache.create { Cache.Method_cache.slots = 2; fill_per_word = 2 } in
  Alcotest.(check bool) "miss 0" true (Cache.Method_cache.access mc 0 = `Miss);
  Alcotest.(check bool) "miss 1" true (Cache.Method_cache.access mc 1 = `Miss);
  Alcotest.(check bool) "hit 0" true (Cache.Method_cache.access mc 0 = `Hit);
  (* FIFO: re-accessing 0 does NOT refresh it; loading 2 evicts 0 (the
     oldest installed), not 1. *)
  Alcotest.(check bool) "miss 2" true (Cache.Method_cache.access mc 2 = `Miss);
  Alcotest.(check bool) "0 evicted (FIFO)" false (Cache.Method_cache.resident mc 0);
  Alcotest.(check bool) "1 survives" true (Cache.Method_cache.resident mc 1)

let test_method_cache_analysis () =
  let p =
    Isa.Asm.parse ~name:"t"
      "main:\n  call f\n  halt\nf:\n  nop\n  nop\n  ret\n"
  in
  let cg = Cfg.Callgraph.build p in
  let fits =
    Cache.Method_cache.analyze cg { Cache.Method_cache.slots = 4; fill_per_word = 2 }
  in
  Alcotest.(check bool) "fits" true fits.Cache.Method_cache.always_fits;
  Alcotest.(check int) "two procs" 2
    (List.length fits.Cache.Method_cache.procs);
  Alcotest.(check (option int)) "f size" (Some 3)
    (List.assoc_opt "f" fits.Cache.Method_cache.procs);
  let tight =
    Cache.Method_cache.analyze cg { Cache.Method_cache.slots = 1; fill_per_word = 2 }
  in
  Alcotest.(check bool) "does not fit in 1 slot" false
    tight.Cache.Method_cache.always_fits;
  Alcotest.(check int) "load cost" (50 + 6)
    (Cache.Method_cache.load_cost
       { Cache.Method_cache.slots = 1; fill_per_word = 2 }
       ~mem_latency:50 ~size_words:3)

(* ------------------------------------------------------------------ *)
(* Engine reference                                                   *)
(* ------------------------------------------------------------------ *)

(* Differential test of the cache engine, which keeps the before-states
   its fixpoints' last transfers saw and runs persistence only on
   demand, against the replay engine it replaced (Cache_reference):
   every L1 classification, and every L2 access's CAC, class and must
   ages, and the persistence ages of every [Persistent] L2 access, for
   every analysis a context and a mode's back end ran.  Production
   keeps no persistence ages for any other access. *)
module CR = Cache_reference

(* The reference's L1i (when the context has one) and L1d analyses of a
   procedure, over the access lists production analyzes. *)
let reference_l1 (ctx : Core.Context.t) (p : Core.Context.proc) =
  let g = p.Core.Context.graph and entry = p.Core.Context.entry in
  let l1i = ctx.Core.Context.l1i_config
  and l1d = ctx.Core.Context.l1d_config in
  ( Option.map
      (fun _ ->
        CR.analyze l1i g ~entry
          ~accesses:(Cache.Analysis.instruction_accesses l1i g))
      p.Core.Context.l1i,
    CR.analyze l1d g ~entry
      ~accesses:(Cache.Analysis.data_accesses l1d g p.Core.Context.va) )

(* The first L1 disagreement of a context's procedures, if any. *)
let l1_mismatch (ctx : Core.Context.t) =
  List.find_map
    (fun (name, (p : Core.Context.proc)) ->
      let l1i, l1d = reference_l1 ctx p in
      if Option.map Cache.Analysis.accesses p.Core.Context.l1i <> l1i then
        Some (name ^ " l1i")
      else if Cache.Analysis.accesses p.Core.Context.l1d <> l1d then
        Some (name ^ " l1d")
      else None)
    ctx.Core.Context.procs

let info_agrees (prod : Cache.Multilevel.access_info)
    (r : Cache.Multilevel.access_info) =
  let module M = Cache.Multilevel in
  prod.M.instr = r.M.instr && prod.M.kind = r.M.kind
  && prod.M.target = r.M.target && prod.M.cac = r.M.cac
  && prod.M.l2_class = r.M.l2_class
  && prod.M.must_ages = r.M.must_ages
  && prod.M.pers_ages
     = if prod.M.l2_class = Cache.Analysis.Persistent then r.M.pers_ages
       else []

(* The first L2 disagreement of a bound's multilevel analyses, each
   recomputed by the reference from the inputs [Context.multilevel]
   hands the engine: the L2 view's geometry and bypass set, the access
   lists, and CACs from the reference's L1 classifications. *)
let l2_mismatch (ctx : Core.Context.t) (w : Core.Wcet.t) =
  let bypass =
    match w.Core.Wcet.platform.Core.Platform.l2 with
    | Core.Platform.Shared_l2 { bypass; _ } -> bypass
    | _ -> fun _ -> false
  in
  List.find_map
    (fun (name, m) ->
      let p = Core.Context.proc ctx name in
      let l1 =
        let l1i, l1d = reference_l1 ctx p in
        Option.value l1i ~default:[] @ l1d
      in
      let cac_of (a : Cache.Analysis.access) =
        match
          List.find_opt
            (fun ((b : Cache.Analysis.access), _) ->
              b.Cache.Analysis.instr = a.Cache.Analysis.instr
              && b.Cache.Analysis.kind = a.Cache.Analysis.kind)
            l1
        with
        | Some (_, Cache.Analysis.Always_hit) -> Cache.Multilevel.Never
        | Some (_, (Cache.Analysis.Persistent | Cache.Analysis.Not_classified))
          ->
            Cache.Multilevel.Uncertain
        | Some (_, Cache.Analysis.Always_miss) | None -> Cache.Multilevel.Always
      in
      let config = Cache.Multilevel.config m in
      let reference =
        CR.multilevel config p.Core.Context.graph ~entry:p.Core.Context.entry
          ~cac_of
          ~l2_accesses:(Core.Context.l2_accesses ctx p config)
          ~bypass
      in
      let prod = Cache.Multilevel.access_infos m in
      if
        List.length prod = List.length reference
        && List.for_all2 info_agrees prod reference
      then None
      else Some (name ^ " l2"))
    w.Core.Wcet.multilevels

(* The first disagreement over one task: solo, then on a 2-core system
   running it on both cores, in the seven contended modes. *)
let engine_mismatch (program, annot) =
  let solo = Core.Mode.solo_platform () in
  let ctx = Core.Context.of_platform ~annot solo program in
  let sys =
    Core.Multicore.default_system ~cores:2
      ~tasks:[| Some (program, annot); Some (program, annot) |]
  in
  let ctxs = Core.Multicore.contexts sys in
  let ctx_of core = Option.get ctxs.(core) in
  let tag label = Option.map (fun s -> label ^ " " ^ s) in
  let contended mode () =
    Core.Mode.analyze ~ctxs sys mode
    |> Array.to_list
    |> List.mapi (fun core w -> (core, w))
    |> List.find_map (fun (core, w) ->
           Option.bind w (fun w ->
               tag
                 (Printf.sprintf "%s core %d" (Core.Mode.name mode) core)
                 (l2_mismatch (ctx_of core) w)))
  in
  List.find_map
    (fun check -> check ())
    ((fun () -> tag "solo" (l1_mismatch ctx))
    :: (fun () ->
         tag "solo" (l2_mismatch ctx (Core.Wcet.analyze_with ~ctx solo)))
    :: (fun () -> tag "2-core" (l1_mismatch (ctx_of 0)))
    :: List.filter_map
         (fun mode ->
           if mode = Core.Mode.Solo then None else Some (contended mode))
         Core.Mode.all)

let test_engine_reference_catalog () =
  List.iter
    (fun (b : Workloads.Bench_programs.t) ->
      Alcotest.(check (option string))
        b.Workloads.Bench_programs.name None
        (engine_mismatch
           (b.Workloads.Bench_programs.program, b.Workloads.Bench_programs.annot)))
    (Workloads.Bench_programs.suite ())

let prop_engine_reference_generated =
  QCheck.Test.make ~name:"engine reference agrees on generated programs"
    ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 0 99))
    (fun (seed, index) ->
      let gen = Fuzz.Generator.generate ~seed ~index () in
      match
        engine_mismatch (gen.Fuzz.Generator.program, gen.Fuzz.Generator.annot)
      with
      | None -> true
      | Some where -> QCheck.Test.fail_reportf "seed %d index %d: %s" seed index where)

let () =
  Alcotest.run "cache"
    [
      ( "config",
        [
          Alcotest.test_case "geometry" `Quick test_config_geometry;
          Alcotest.test_case "partitions" `Quick test_config_partitions;
        ] );
      ( "concrete",
        [
          Alcotest.test_case "LRU eviction" `Quick test_concrete_lru_eviction;
          Alcotest.test_case "sets independent" `Quick
            test_concrete_sets_independent;
          Alcotest.test_case "locking" `Quick test_concrete_locking;
          Alcotest.test_case "stats" `Quick test_concrete_stats;
        ] );
      ( "acs",
        [
          Alcotest.test_case "must basic" `Quick test_must_basic;
          Alcotest.test_case "must re-hit no aging" `Quick
            test_must_rehit_no_aging;
          Alcotest.test_case "must join" `Quick test_must_join_intersection;
          Alcotest.test_case "may join" `Quick test_may_join_union;
          Alcotest.test_case "pers saturates" `Quick test_pers_saturates;
          Alcotest.test_case "unknown ages must" `Quick
            test_unknown_access_ages_must;
          Alcotest.test_case "unknown sets may universe" `Quick
            test_unknown_access_sets_universe_in_may;
          Alcotest.test_case "havoc" `Quick test_havoc;
          Alcotest.test_case "shift set" `Quick test_shift_set;
          Alcotest.test_case "guided persistence" `Quick
            test_guided_pers_multi_line_loop;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "loop persistence" `Quick
            test_icache_loop_persistence;
          Alcotest.test_case "cold straightline misses" `Quick
            test_icache_straightline_cold_misses;
          Alcotest.test_case "same line hits" `Quick test_icache_same_line_hits;
          Alcotest.test_case "unknown entry: no AM" `Quick
            test_icache_unknown_entry_no_am;
          Alcotest.test_case "call havocs" `Quick test_icache_call_havocs;
          Alcotest.test_case "data access extraction" `Quick
            test_dcache_accesses_extraction;
          Alcotest.test_case "unknown data address" `Quick
            test_dcache_unknown_address;
          Alcotest.test_case "negative data address is unknown" `Quick
            test_dcache_negative_address;
          Alcotest.test_case "classification raises Not_found" `Quick
            test_classification_not_found;
          QCheck_alcotest.to_alcotest prop_accesses_sorted_once;
        ] );
      ( "multilevel",
        [
          Alcotest.test_case "CAC assignment" `Quick test_multilevel_cac;
          Alcotest.test_case "Never for L1 hits" `Quick
            test_multilevel_never_for_l1_hits;
          Alcotest.test_case "footprint" `Quick test_multilevel_footprint;
          Alcotest.test_case "bypass" `Quick test_multilevel_bypass;
          Alcotest.test_case "single-usage lines" `Quick
            test_single_usage_lines;
          Alcotest.test_case "persistence on demand" `Quick
            test_persistence_on_demand;
        ] );
      ( "shared",
        [
          Alcotest.test_case "interference degrades" `Quick
            test_shared_interference_degrades;
          Alcotest.test_case "AM survives" `Quick test_shared_am_survives;
          Alcotest.test_case "corunner conflicts" `Quick
            test_shared_conflicts_of_corunners;
        ] );
      ( "method cache",
        [
          Alcotest.test_case "FIFO replacement" `Quick test_method_cache_fifo;
          Alcotest.test_case "fit analysis" `Quick test_method_cache_analysis;
        ] );
      ( "partition+locking",
        [
          Alcotest.test_case "even shares" `Quick test_partition_even_shares;
          Alcotest.test_case "greedy locking" `Quick test_locking_greedy;
          Alcotest.test_case "locking weights" `Quick test_locking_weights;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          ([ prop_must_sound; prop_may_sound ] @ lattice_props) );
      ("acs reference", [ QCheck_alcotest.to_alcotest prop_acs_reference ]);
      ( "engine reference",
        [
          Alcotest.test_case "catalog in all eight modes" `Quick
            test_engine_reference_catalog;
          QCheck_alcotest.to_alcotest prop_engine_reference_generated;
        ] );
    ]
