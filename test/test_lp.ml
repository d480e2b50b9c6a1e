(* Tests for the exact-rational LP/ILP substrate. *)

let q = Lp.Q.make

let check_q msg expected actual =
  Alcotest.(check string) msg (Lp.Q.to_string expected) (Lp.Q.to_string actual)

(* ------------------------------------------------------------------ *)
(* Rationals                                                          *)
(* ------------------------------------------------------------------ *)

let test_q_normalization () =
  check_q "6/4 = 3/2" (q 3 2) (q 6 4);
  check_q "-6/4 = -3/2" (q (-3) 2) (q 6 (-4));
  check_q "0/7 = 0" Lp.Q.zero (q 0 7);
  check_q "neg den" (q (-1) 2) (q 1 (-2))

let test_q_arith () =
  check_q "1/2 + 1/3" (q 5 6) (Lp.Q.add (q 1 2) (q 1 3));
  check_q "1/2 - 1/3" (q 1 6) (Lp.Q.sub (q 1 2) (q 1 3));
  check_q "2/3 * 3/4" (q 1 2) (Lp.Q.mul (q 2 3) (q 3 4));
  check_q "(1/2) / (1/4)" (q 2 1) (Lp.Q.div (q 1 2) (q 1 4));
  check_q "inv 3/5" (q 5 3) (Lp.Q.inv (q 3 5));
  check_q "neg" (q (-7) 3) (Lp.Q.neg (q 7 3));
  check_q "abs" (q 7 3) (Lp.Q.abs (q (-7) 3))

let test_q_compare () =
  Alcotest.(check bool) "1/2 < 2/3" true Lp.Q.(q 1 2 < q 2 3);
  Alcotest.(check bool) "equal" true (Lp.Q.equal (q 2 4) (q 1 2));
  Alcotest.(check int) "sign neg" (-1) (Lp.Q.sign (q (-1) 5));
  check_q "min" (q 1 3) (Lp.Q.min (q 1 3) (q 1 2));
  check_q "max" (q 1 2) (Lp.Q.max (q 1 3) (q 1 2))

let test_q_floor_ceil () =
  Alcotest.(check int) "floor 7/2" 3 (Lp.Q.floor (q 7 2));
  Alcotest.(check int) "floor -7/2" (-4) (Lp.Q.floor (q (-7) 2));
  Alcotest.(check int) "floor 4" 4 (Lp.Q.floor (q 4 1));
  Alcotest.(check int) "ceil 7/2" 4 (Lp.Q.ceil (q 7 2));
  Alcotest.(check int) "ceil -7/2" (-3) (Lp.Q.ceil (q (-7) 2));
  Alcotest.(check int) "ceil 4" 4 (Lp.Q.ceil (q 4 1))

let test_q_division_by_zero () =
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (q 1 0));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Lp.Q.div Lp.Q.one Lp.Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Lp.Q.inv Lp.Q.zero))

let test_q_to_int () =
  Alcotest.(check int) "to_int_exn 5" 5 (Lp.Q.to_int_exn (q 5 1));
  Alcotest.(check bool) "is_integer 5" true (Lp.Q.is_integer (q 5 1));
  Alcotest.(check bool) "is_integer 5/2" false (Lp.Q.is_integer (q 5 2))

let test_q_overflow () =
  Alcotest.check_raises "max_int + 1" Lp.Q.Overflow (fun () ->
      ignore (Lp.Q.add (Lp.Q.of_int max_int) Lp.Q.one));
  Alcotest.check_raises "min_int - 1" Lp.Q.Overflow (fun () ->
      ignore (Lp.Q.sub (Lp.Q.of_int min_int) Lp.Q.one));
  Alcotest.check_raises "neg min_int" Lp.Q.Overflow (fun () ->
      ignore (Lp.Q.neg (Lp.Q.of_int min_int)));
  Alcotest.check_raises "2^40 * 2^40" Lp.Q.Overflow (fun () ->
      ignore (Lp.Q.mul (Lp.Q.of_int (1 lsl 40)) (Lp.Q.of_int (1 lsl 40))));
  (* Comparison cross-multiplies, so it must check too. *)
  Alcotest.check_raises "cross-multiplied compare" Lp.Q.Overflow (fun () ->
      ignore (Lp.Q.compare (q max_int 2) (q (max_int - 2) 3)));
  (* ... but exact results at the edge of the range are not rejected. *)
  check_q "max_int reachable" (Lp.Q.of_int max_int)
    (Lp.Q.add (Lp.Q.of_int (max_int - 1)) Lp.Q.one);
  check_q "big fraction fast path" (q 1 2)
    (Lp.Q.mul (q 1 (1 lsl 31)) (q (1 lsl 30) 1))

(* Property: field axioms on random rationals (small to avoid overflow). *)
let small_q =
  QCheck.Gen.(
    map2
      (fun n d -> q n d)
      (int_range (-1000) 1000)
      (int_range 1 1000))

let arb_q = QCheck.make ~print:Lp.Q.to_string small_q

let prop_add_commutative =
  QCheck.Test.make ~name:"Q: a+b = b+a" ~count:500
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      Lp.Q.equal (Lp.Q.add a b) (Lp.Q.add b a))

let prop_mul_distributes =
  QCheck.Test.make ~name:"Q: a*(b+c) = a*b + a*c" ~count:500
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
      Lp.Q.equal
        (Lp.Q.mul a (Lp.Q.add b c))
        (Lp.Q.add (Lp.Q.mul a b) (Lp.Q.mul a c)))

let prop_sub_add_roundtrip =
  QCheck.Test.make ~name:"Q: (a-b)+b = a" ~count:500
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
      Lp.Q.equal (Lp.Q.add (Lp.Q.sub a b) b) a)

let prop_floor_le =
  QCheck.Test.make ~name:"Q: floor a <= a < floor a + 1" ~count:500 arb_q
    (fun a ->
      let f = Lp.Q.of_int (Lp.Q.floor a) in
      Lp.Q.compare f a <= 0
      && Lp.Q.compare a (Lp.Q.add f Lp.Q.one) < 0)

(* ------------------------------------------------------------------ *)
(* Simplex                                                            *)
(* ------------------------------------------------------------------ *)

let solve_expect_optimal m =
  match Lp.Simplex.solve m with
  | Lp.Simplex.Optimal (obj, sol) -> (obj, sol)
  | Lp.Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Lp.Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"

let test_simplex_basic () =
  (* max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 -> x=4, y=0, obj=12 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m
    [ (Lp.Q.one, x); (Lp.Q.one, y) ]
    Lp.Model.Le (q 4 1);
  Lp.Model.add_constraint m
    [ (Lp.Q.one, x); (q 3 1, y) ]
    Lp.Model.Le (q 6 1);
  Lp.Model.set_objective m [ (q 3 1, x); (q 2 1, y) ];
  let obj, sol = solve_expect_optimal m in
  check_q "objective" (q 12 1) obj;
  check_q "x" (q 4 1) sol.((x :> int));
  check_q "y" Lp.Q.zero sol.((y :> int))

let test_simplex_classic_2d () =
  (* max 5x + 4y s.t. 6x + 4y <= 24, x + 2y <= 6 -> x=3, y=3/2, obj=21 *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (q 6 1, x); (q 4 1, y) ] Lp.Model.Le (q 24 1);
  Lp.Model.add_constraint m [ (q 1 1, x); (q 2 1, y) ] Lp.Model.Le (q 6 1);
  Lp.Model.set_objective m [ (q 5 1, x); (q 4 1, y) ];
  let obj, sol = solve_expect_optimal m in
  check_q "objective" (q 21 1) obj;
  check_q "x" (q 3 1) sol.((x :> int));
  check_q "y" (q 3 2) sol.((y :> int))

let test_simplex_equality_constraints () =
  (* max x + y s.t. x + y = 10, x <= 4 -> obj = 10 with x=4,y=6 (any split) *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m
    [ (Lp.Q.one, x); (Lp.Q.one, y) ]
    Lp.Model.Eq (q 10 1);
  Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Le (q 4 1);
  Lp.Model.set_objective m [ (Lp.Q.one, x); (Lp.Q.one, y) ];
  let obj, _ = solve_expect_optimal m in
  check_q "objective" (q 10 1) obj

let test_simplex_ge_constraints () =
  (* min x + y (== max -x - y) s.t. x + 2y >= 4, 3x + y >= 6.
     Optimum at intersection: x = 8/5, y = 6/5, min = 14/5. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (q 1 1, x); (q 2 1, y) ] Lp.Model.Ge (q 4 1);
  Lp.Model.add_constraint m [ (q 3 1, x); (q 1 1, y) ] Lp.Model.Ge (q 6 1);
  Lp.Model.set_objective m [ (q (-1) 1, x); (q (-1) 1, y) ];
  let obj, sol = solve_expect_optimal m in
  check_q "objective" (q (-14) 5) obj;
  check_q "x" (q 8 5) sol.((x :> int));
  check_q "y" (q 6 5) sol.((y :> int))

let test_simplex_infeasible () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Le (q 1 1);
  Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Ge (q 2 1);
  Lp.Model.set_objective m [ (Lp.Q.one, x) ];
  match Lp.Simplex.solve m with
  | Lp.Simplex.Infeasible -> ()
  | Lp.Simplex.Optimal _ -> Alcotest.fail "expected infeasible, got optimal"
  | Lp.Simplex.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"

let test_simplex_unbounded () =
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Le (q 5 1);
  Lp.Model.set_objective m [ (Lp.Q.one, x); (Lp.Q.one, y) ];
  match Lp.Simplex.solve m with
  | Lp.Simplex.Unbounded -> ()
  | Lp.Simplex.Optimal _ -> Alcotest.fail "expected unbounded, got optimal"
  | Lp.Simplex.Infeasible ->
      Alcotest.fail "expected unbounded, got infeasible"

let test_simplex_degenerate () =
  (* Degenerate vertex: three constraints through one point; Bland's rule
     must still terminate. max x + y s.t. x <= 2, y <= 2, x + y <= 4. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Le (q 2 1);
  Lp.Model.add_constraint m [ (Lp.Q.one, y) ] Lp.Model.Le (q 2 1);
  Lp.Model.add_constraint m
    [ (Lp.Q.one, x); (Lp.Q.one, y) ]
    Lp.Model.Le (q 4 1);
  Lp.Model.set_objective m [ (Lp.Q.one, x); (Lp.Q.one, y) ];
  let obj, _ = solve_expect_optimal m in
  check_q "objective" (q 4 1) obj

let test_simplex_flow_conservation () =
  (* An IPET-shaped model: diamond CFG entry->a->{b,c}->d->exit.
     Costs: a=2, b=10, c=3, d=1; entry count = 1.
     WCET = 2 + 10 + 1 = 13. *)
  let m = Lp.Model.create () in
  let e_in = Lp.Model.add_var m ~name:"e_in" in
  let e_ab = Lp.Model.add_var m ~name:"e_ab" in
  let e_ac = Lp.Model.add_var m ~name:"e_ac" in
  let e_bd = Lp.Model.add_var m ~name:"e_bd" in
  let e_cd = Lp.Model.add_var m ~name:"e_cd" in
  let e_out = Lp.Model.add_var m ~name:"e_out" in
  let c1 = Lp.Q.one in
  Lp.Model.add_constraint m [ (c1, e_in) ] Lp.Model.Eq Lp.Q.one;
  (* a: in = out *)
  Lp.Model.add_constraint m
    [ (c1, e_in); (Lp.Q.minus_one, e_ab); (Lp.Q.minus_one, e_ac) ]
    Lp.Model.Eq Lp.Q.zero;
  (* b *)
  Lp.Model.add_constraint m
    [ (c1, e_ab); (Lp.Q.minus_one, e_bd) ]
    Lp.Model.Eq Lp.Q.zero;
  (* c *)
  Lp.Model.add_constraint m
    [ (c1, e_ac); (Lp.Q.minus_one, e_cd) ]
    Lp.Model.Eq Lp.Q.zero;
  (* d *)
  Lp.Model.add_constraint m
    [ (c1, e_bd); (c1, e_cd); (Lp.Q.minus_one, e_out) ]
    Lp.Model.Eq Lp.Q.zero;
  (* objective: 2*x_a + 10*x_b + 3*x_c + 1*x_d where x_a = e_in etc. *)
  Lp.Model.set_objective m
    [ (q 2 1, e_in); (q 10 1, e_ab); (q 3 1, e_ac); (c1, e_out) ];
  let obj, sol = solve_expect_optimal m in
  check_q "wcet" (q 13 1) obj;
  check_q "takes b" Lp.Q.one sol.((e_ab :> int));
  check_q "skips c" Lp.Q.zero sol.((e_ac :> int))

(* ------------------------------------------------------------------ *)
(* ILP                                                                *)
(* ------------------------------------------------------------------ *)

let solve_ilp_expect m =
  match Lp.Ilp.solve m with
  | Lp.Ilp.Optimal (obj, sol) -> (obj, sol)
  | Lp.Ilp.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Lp.Ilp.Infeasible -> Alcotest.fail "unexpected: infeasible"

let test_ilp_knapsack () =
  (* max 8x + 11y + 6z s.t. 5x + 7y + 4z <= 14, x,y,z <= 1 integer.
     Optimum: x=1,y=1,z=0 -> 19?  5+7=12 <=14; adding z: 16 > 14.
     x=1,z=1: 9 -> obj 14. y=1,z=1: 11 -> 17. So 19. *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  let z = Lp.Model.add_var m ~name:"z" in
  Lp.Model.add_constraint m
    [ (q 5 1, x); (q 7 1, y); (q 4 1, z) ]
    Lp.Model.Le (q 14 1);
  List.iter
    (fun v -> Lp.Model.add_constraint m [ (Lp.Q.one, v) ] Lp.Model.Le Lp.Q.one)
    [ x; y; z ];
  Lp.Model.set_objective m [ (q 8 1, x); (q 11 1, y); (q 6 1, z) ];
  let obj, sol = solve_ilp_expect m in
  check_q "objective" (q 19 1) obj;
  Alcotest.(check int) "x" 1 sol.((x :> int));
  Alcotest.(check int) "y" 1 sol.((y :> int));
  Alcotest.(check int) "z" 0 sol.((z :> int))

let test_ilp_forces_integrality () =
  (* LP relaxation optimum is fractional: max y s.t. 2y <= 3 -> y = 3/2.
     ILP answer must be 1. *)
  let m = Lp.Model.create () in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (q 2 1, y) ] Lp.Model.Le (q 3 1);
  Lp.Model.set_objective m [ (Lp.Q.one, y) ];
  let obj, sol = solve_ilp_expect m in
  check_q "objective" Lp.Q.one obj;
  Alcotest.(check int) "y" 1 sol.((y :> int))

let test_ilp_infeasible () =
  (* 1/2 <= x <= 3/4 has no integer point (x >= 0 int). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  Lp.Model.add_constraint m [ (q 1 1, x) ] Lp.Model.Ge (q 1 2);
  Lp.Model.add_constraint m [ (q 1 1, x) ] Lp.Model.Le (q 3 4);
  Lp.Model.set_objective m [ (Lp.Q.one, x) ];
  match Lp.Ilp.solve m with
  | Lp.Ilp.Infeasible -> ()
  | Lp.Ilp.Optimal _ -> Alcotest.fail "expected infeasible"
  | Lp.Ilp.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"

(* Property: on random bounded 2-var integer programs, branch-and-bound
   matches brute force over the integer grid. *)
let prop_ilp_matches_bruteforce =
  let gen =
    QCheck.Gen.(
      let coef = int_range (-5) 5 in
      let bound = int_range 1 12 in
      tup2
        (tup2 coef coef) (* objective *)
        (list_size (int_range 1 4) (tup3 coef coef bound)))
  in
  let print ((c1, c2), cons) =
    Printf.sprintf "max %dx+%dy s.t. %s" c1 c2
      (String.concat "; "
         (List.map (fun (a, b, r) -> Printf.sprintf "%dx+%dy<=%d" a b r) cons))
  in
  QCheck.Test.make ~name:"ILP matches brute force on small 2-var IPs"
    ~count:200 (QCheck.make ~print gen)
    (fun ((c1, c2), cons) ->
      let m = Lp.Model.create () in
      let x = Lp.Model.add_var m ~name:"x" in
      let y = Lp.Model.add_var m ~name:"y" in
      (* Keep the feasible region bounded. *)
      Lp.Model.add_constraint m [ (Lp.Q.one, x) ] Lp.Model.Le (q 15 1);
      Lp.Model.add_constraint m [ (Lp.Q.one, y) ] Lp.Model.Le (q 15 1);
      List.iter
        (fun (a, b, r) ->
          Lp.Model.add_constraint m
            [ (q a 1, x); (q b 1, y) ]
            Lp.Model.Le (q r 1))
        cons;
      Lp.Model.set_objective m [ (q c1 1, x); (q c2 1, y) ];
      let brute =
        let best = ref None in
        for xi = 0 to 15 do
          for yi = 0 to 15 do
            let ok =
              List.for_all (fun (a, b, r) -> (a * xi) + (b * yi) <= r) cons
            in
            if ok then begin
              let v = (c1 * xi) + (c2 * yi) in
              match !best with
              | None -> best := Some v
              | Some b -> if v > b then best := Some v
            end
          done
        done;
        !best
      in
      match (Lp.Ilp.solve m, brute) with
      | Lp.Ilp.Optimal (obj, _), Some b -> Lp.Q.to_int_exn obj = b
      | Lp.Ilp.Infeasible, None -> true
      | Lp.Ilp.Unbounded, _ -> false (* region is bounded *)
      | Lp.Ilp.Optimal _, None | Lp.Ilp.Infeasible, Some _ -> false)

(* ------------------------------------------------------------------ *)
(* Differential: sparse/warm-started stack vs the dense reference      *)
(* ------------------------------------------------------------------ *)

let gen_term = QCheck.Gen.(tup2 (int_range (-4) 4) (int_range 0 3))

let gen_con =
  QCheck.Gen.(
    tup3
      (list_size (int_range 1 4) gen_term)
      (oneofl [ Lp.Model.Le; Lp.Model.Ge; Lp.Model.Eq ])
      (int_range 0 10))

(* Random small models over up to 4 variables with a mix of relation
   kinds.  [bounded] adds an upper bound per variable, which keeps the
   branch-and-bound trees small and also lets the unbounded outcome be
   exercised when off. *)
let gen_random_model =
  QCheck.Gen.(
    tup4 (int_range 1 4)
      (list_size (int_range 1 6) gen_con)
      (list_size (int_range 1 4) gen_term)
      bool)

let print_terms nvars ts =
  String.concat "+"
    (List.map (fun (c, v) -> Printf.sprintf "%d*x%d" c (v mod nvars)) ts)

let print_cons nvars cons =
  String.concat "; "
    (List.map
       (fun (ts, rel, r) ->
         Printf.sprintf "%s %s %d" (print_terms nvars ts)
           (match rel with Lp.Model.Le -> "<=" | Ge -> ">=" | Eq -> "=")
           r)
       cons)

let print_random_model (nvars, cons, obj, bounded) =
  Printf.sprintf "nvars=%d%s max %s s.t. %s" nvars
    (if bounded then " (boxed)" else "")
    (print_terms nvars obj) (print_cons nvars cons)

let build_random_model ~var_bound (nvars, cons, obj, bounded) =
  let m = Lp.Model.create () in
  let vars =
    Array.init nvars (fun i ->
        Lp.Model.add_var m ~name:(Printf.sprintf "x%d" i))
  in
  let terms ts = List.map (fun (c, v) -> (q c 1, vars.(v mod nvars))) ts in
  List.iter (fun (ts, rel, r) -> Lp.Model.add_constraint m (terms ts) rel (q r 1))
    cons;
  if bounded then
    Array.iter
      (fun v ->
        Lp.Model.add_constraint m [ (Lp.Q.one, v) ] Lp.Model.Le
          (q var_bound 1))
      vars;
  Lp.Model.set_objective m (terms obj);
  m

(* The model plus 0-2 extra rows, handed to [prepare ~extra] on the
   sparse side and to [solve_lp_with ~extra] on the dense one: the path
   a refinement cut system's from-scratch re-solve takes. *)
let prop_lp_matches_reference =
  QCheck.Test.make ~name:"sparse and dense LP solvers agree" ~count:500
    (QCheck.make
       ~print:(fun (((nvars, _, _, _) as spec), extra) ->
         Printf.sprintf "%s extra %s" (print_random_model spec)
           (print_cons nvars extra))
       QCheck.Gen.(pair gen_random_model (list_size (int_range 0 2) gen_con)))
    (fun (((nvars, _, _, _) as spec), extra) ->
      let m = build_random_model ~var_bound:12 spec in
      let extra =
        List.map
          (fun (ts, rel, r) ->
            ( List.map
                (fun (c, v) -> (q c 1, Lp.Model.var_of_index m (v mod nvars)))
                ts,
              rel,
              q r 1 ))
          extra
      in
      match
        ( fst (Lp.Simplex.solve_prepared (Lp.Simplex.prepare m ~extra) m),
          Lp_reference.solve_lp_with m ~extra )
      with
      | Lp.Simplex.Optimal (o1, _), Lp_reference.Optimal (o2, _) ->
          (* Alternate optima may differ in the witness; the objective
             value is unique. *)
          Lp.Q.equal o1 o2
      | Lp.Simplex.Unbounded, Lp_reference.Unbounded -> true
      | Lp.Simplex.Infeasible, Lp_reference.Infeasible -> true
      | _ -> false)

let prop_ilp_matches_reference =
  QCheck.Test.make ~name:"warm-started and cold branch-and-bound agree"
    ~count:300
    (QCheck.make ~print:print_random_model gen_random_model)
    (fun (nvars, cons, obj, _) ->
      (* Always boxed: keeps both search trees small and finite. *)
      let m = build_random_model ~var_bound:8 (nvars, cons, obj, true) in
      match (Lp.Ilp.solve m, Lp_reference.solve_ilp m) with
      | Lp.Ilp.Optimal (o1, _), Lp_reference.Ilp_optimal (o2, _) ->
          Lp.Q.equal o1 o2
      | Lp.Ilp.Unbounded, Lp_reference.Ilp_unbounded -> true
      | Lp.Ilp.Infeasible, Lp_reference.Ilp_infeasible -> true
      | _ -> false)

let test_ilp_reports_nodes () =
  (* A fractional relaxation (max y s.t. 2y <= 3) forces a branch: the
     root plus at least one child must be counted. *)
  let m = Lp.Model.create () in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (q 2 1, y) ] Lp.Model.Le (q 3 1);
  Lp.Model.set_objective m [ (Lp.Q.one, y) ];
  let r = Lp.Ilp.solve_result m in
  (match r.Lp.Ilp.outcome with
  | Lp.Ilp.Optimal (obj, _) -> check_q "objective" Lp.Q.one obj
  | _ -> Alcotest.fail "expected optimal");
  Alcotest.(check bool) "branched" true (r.Lp.Ilp.nodes >= 2);
  (* An integral relaxation solves at the root alone. *)
  let m2 = Lp.Model.create () in
  let x = Lp.Model.add_var m2 ~name:"x" in
  Lp.Model.add_constraint m2 [ (Lp.Q.one, x) ] Lp.Model.Le (q 5 1);
  Lp.Model.set_objective m2 [ (Lp.Q.one, x) ];
  let r2 = Lp.Ilp.solve_result m2 in
  Alcotest.(check int) "root only" 1 r2.Lp.Ilp.nodes

let test_ilp_unbounded_at_root_only () =
  (* Unboundedness surfaces at the root; branching never manufactures
     it (the warm-started children are dual-feasible by construction,
     which is what structurally fixed the old Unbounded-after-Le bug). *)
  let m = Lp.Model.create () in
  let x = Lp.Model.add_var m ~name:"x" in
  let y = Lp.Model.add_var m ~name:"y" in
  Lp.Model.add_constraint m [ (q 2 1, y) ] Lp.Model.Le (q 3 1);
  Lp.Model.set_objective m [ (Lp.Q.one, x); (Lp.Q.one, y) ];
  (match Lp.Ilp.solve m with
  | Lp.Ilp.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded");
  let r = Lp.Ilp.solve_result m in
  Alcotest.(check int) "no descent past an unbounded root" 1 r.Lp.Ilp.nodes

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_add_commutative;
      prop_mul_distributes;
      prop_sub_add_roundtrip;
      prop_floor_le;
      prop_ilp_matches_bruteforce;
      prop_lp_matches_reference;
      prop_ilp_matches_reference;
    ]

let () =
  Alcotest.run "lp"
    [
      ( "q",
        [
          Alcotest.test_case "normalization" `Quick test_q_normalization;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "comparison" `Quick test_q_compare;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "division by zero" `Quick
            test_q_division_by_zero;
          Alcotest.test_case "integer conversion" `Quick test_q_to_int;
          Alcotest.test_case "overflow detection" `Quick test_q_overflow;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "basic max" `Quick test_simplex_basic;
          Alcotest.test_case "classic 2d" `Quick test_simplex_classic_2d;
          Alcotest.test_case "equality constraints" `Quick
            test_simplex_equality_constraints;
          Alcotest.test_case "ge constraints (phase 1)" `Quick
            test_simplex_ge_constraints;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate vertex" `Quick
            test_simplex_degenerate;
          Alcotest.test_case "IPET-shaped flow model" `Quick
            test_simplex_flow_conservation;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "forces integrality" `Quick
            test_ilp_forces_integrality;
          Alcotest.test_case "infeasible" `Quick test_ilp_infeasible;
          Alcotest.test_case "reports node counts" `Quick
            test_ilp_reports_nodes;
          Alcotest.test_case "unbounded only at the root" `Quick
            test_ilp_unbounded_at_root_only;
        ] );
      ("properties", qcheck_cases);
    ]
