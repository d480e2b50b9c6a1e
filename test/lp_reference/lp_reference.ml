(* The pre-sparse solver stack, kept verbatim as a differential oracle:
   dense tableau, pure Bland pricing, and a branch-and-bound that
   cold-starts the simplex at every node.  [bench/perf.ml] measures its
   pivot counts as the baseline the sparse/warm-started stack must beat,
   and the tests assert outcome equality against it on random models and
   on every catalog IPET system.  Not linked by any library under lib/. *)

open Lp

type outcome =
  | Optimal of Q.t * Q.t array
  | Unbounded
  | Infeasible

type tableau = {
  rows : Q.t array array;
  basis : int array;
  z : Q.t array;
  ncols : int;
  blocked : bool array;
}

let pivots_key = Domain.DLS.new_key (fun () -> ref 0)
let pivots () = !(Domain.DLS.get pivots_key)

let pivot t ~row ~col =
  incr (Domain.DLS.get pivots_key);
  let m = Array.length t.rows and w = t.ncols + 1 in
  let piv = t.rows.(row).(col) in
  let inv = Q.inv piv in
  for j = 0 to w - 1 do
    t.rows.(row).(j) <- Q.mul t.rows.(row).(j) inv
  done;
  let eliminate target =
    let factor = target.(col) in
    if not (Q.is_zero factor) then
      for j = 0 to w - 1 do
        target.(j) <- Q.sub target.(j) (Q.mul factor t.rows.(row).(j))
      done
  in
  for i = 0 to m - 1 do
    if i <> row then eliminate t.rows.(i)
  done;
  eliminate t.z;
  t.basis.(row) <- col

(* Bland's rule: entering = smallest-index column with negative reduced
   cost; leaving = ratio test with smallest basis index tie-break. *)
let rec iterate t =
  let entering =
    let rec find j =
      if j >= t.ncols then None
      else if (not t.blocked.(j)) && Q.sign t.z.(j) < 0 then Some j
      else find (j + 1)
    in
    find 0
  in
  match entering with
  | None -> `Optimal
  | Some col -> (
      let m = Array.length t.rows in
      let best = ref None in
      for i = 0 to m - 1 do
        let a = t.rows.(i).(col) in
        if Q.sign a > 0 then begin
          let ratio = Q.div t.rows.(i).(t.ncols) a in
          match !best with
          | None -> best := Some (ratio, i)
          | Some (r, i') ->
              let c = Q.compare ratio r in
              if c < 0 || (c = 0 && t.basis.(i) < t.basis.(i')) then
                best := Some (ratio, i)
        end
      done;
      match !best with
      | None -> `Unbounded
      | Some (_, row) ->
          pivot t ~row ~col;
          iterate t)

type norm_constraint = { coefs : Q.t array; rel : Model.relation; rhs : Q.t }

let normalize_constraints model extra =
  let n = Model.num_vars model in
  let norm (e, rel, b) =
    let coefs = Array.make n Q.zero in
    List.iter
      (fun (c, v) ->
        let v = (v : Model.var :> int) in
        coefs.(v) <- Q.add coefs.(v) c)
      (e : Model.linexpr);
    if Q.sign b < 0 then begin
      let coefs = Array.map Q.neg coefs in
      let rel =
        match rel with Model.Le -> Model.Ge | Ge -> Le | Eq -> Eq
      in
      { coefs; rel; rhs = Q.neg b }
    end
    else { coefs; rel; rhs = b }
  in
  List.map norm (Model.constraints model @ extra)

let build_tableau model extra =
  let n = Model.num_vars model in
  let cons = normalize_constraints model extra in
  let m = List.length cons in
  let n_slack =
    List.length
      (List.filter (fun c -> c.rel = Model.Le || c.rel = Model.Ge) cons)
  in
  let n_art =
    List.length
      (List.filter (fun c -> c.rel = Model.Ge || c.rel = Model.Eq) cons)
  in
  let ncols = n + n_slack + n_art in
  let rows = Array.init m (fun _ -> Array.make (ncols + 1) Q.zero) in
  let basis = Array.make m (-1) in
  let art_cols = ref [] in
  let art_rows = ref [] in
  let next_slack = ref n in
  let next_art = ref (n + n_slack) in
  List.iteri
    (fun i c ->
      Array.blit c.coefs 0 rows.(i) 0 n;
      rows.(i).(ncols) <- c.rhs;
      (match c.rel with
      | Model.Le ->
          rows.(i).(!next_slack) <- Q.one;
          basis.(i) <- !next_slack;
          incr next_slack
      | Model.Ge ->
          rows.(i).(!next_slack) <- Q.minus_one;
          incr next_slack;
          rows.(i).(!next_art) <- Q.one;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          art_rows := i :: !art_rows;
          incr next_art
      | Model.Eq ->
          rows.(i).(!next_art) <- Q.one;
          basis.(i) <- !next_art;
          art_cols := !next_art :: !art_cols;
          art_rows := i :: !art_rows;
          incr next_art))
    cons;
  let blocked = Array.make ncols false in
  (rows, basis, ncols, blocked, !art_cols, !art_rows)

let phase1_z rows ncols art_rows art_cols =
  let z = Array.make (ncols + 1) Q.zero in
  List.iter
    (fun i ->
      for j = 0 to ncols do
        z.(j) <- Q.sub z.(j) rows.(i).(j)
      done)
    art_rows;
  List.iter (fun j -> z.(j) <- Q.add z.(j) Q.one) art_cols;
  z

let phase2_z model rows basis ncols =
  let c = Array.make ncols Q.zero in
  List.iter
    (fun (coef, v) ->
      let v = (v : Model.var :> int) in
      c.(v) <- Q.add c.(v) coef)
    (Model.objective model);
  let z = Array.make (ncols + 1) Q.zero in
  for j = 0 to ncols - 1 do
    z.(j) <- Q.neg c.(j)
  done;
  Array.iteri
    (fun i b ->
      let cb = c.(b) in
      if not (Q.is_zero cb) then
        for j = 0 to ncols do
          z.(j) <- Q.add z.(j) (Q.mul cb rows.(i).(j))
        done)
    basis;
  z

let solve_lp_with model ~extra =
  let rows, basis, ncols, blocked, art_cols, art_rows =
    build_tableau model extra
  in
  let n = Model.num_vars model in
  let has_artificials = art_cols <> [] in
  let finish t =
    match iterate t with
    | `Unbounded -> Unbounded
    | `Optimal ->
        let solution = Array.make n Q.zero in
        Array.iteri
          (fun i b -> if b < n then solution.(b) <- t.rows.(i).(ncols))
          t.basis;
        Optimal (t.z.(ncols), solution)
  in
  if not has_artificials then
    let z = phase2_z model rows basis ncols in
    finish { rows; basis; z; ncols; blocked }
  else begin
    let z1 = phase1_z rows ncols art_rows art_cols in
    let t1 = { rows; basis; z = z1; ncols; blocked } in
    match iterate t1 with
    | `Unbounded ->
        (* Phase 1 is bounded above by 0 by construction. *)
        assert false
    | `Optimal ->
        if Q.sign t1.z.(ncols) < 0 then Infeasible
        else begin
          (* Drive remaining basic artificials out where possible (the
             original quadratic List.mem scan, kept as-is). *)
          Array.iteri
            (fun i b ->
              if List.mem b art_cols then begin
                let rec find j =
                  if j >= ncols then None
                  else if
                    (not (List.mem j art_cols))
                    && not (Q.is_zero rows.(i).(j))
                  then Some j
                  else find (j + 1)
                in
                match find 0 with
                | Some col -> pivot t1 ~row:i ~col
                | None -> () (* redundant row; artificial stays at zero *)
              end)
            t1.basis;
          List.iter (fun j -> blocked.(j) <- true) art_cols;
          let z2 = phase2_z model t1.rows t1.basis ncols in
          finish { t1 with z = z2 }
        end
  end

let solve_lp model = solve_lp_with model ~extra:[]

(* ------------------------------------------------------------------ *)
(* Cold-start branch and bound (the original Ilp.solve, bugs and all   *)
(* except the Unbounded early exit, which is harmless to keep here).   *)
(* ------------------------------------------------------------------ *)

type ilp_outcome =
  | Ilp_optimal of Q.t * int array
  | Ilp_unbounded
  | Ilp_infeasible

let find_fractional solution =
  let n = Array.length solution in
  let rec go i =
    if i >= n then None
    else if Q.is_integer solution.(i) then go (i + 1)
    else Some i
  in
  go 0

(* Per-domain monotone node counter, mirroring [Ilp.nodes_explored] so
   the bench harness can report both stacks' tree sizes. *)
let nodes_key = Domain.DLS.new_key (fun () -> ref 0)
let ilp_nodes () = !(Domain.DLS.get nodes_key)

let solve_ilp ?(max_nodes = 100_000) model =
  let n = Model.num_vars model in
  let incumbent = ref None in
  let nodes = Domain.DLS.get nodes_key in
  let nodes0 = !nodes in
  let better obj =
    match !incumbent with
    | None -> true
    | Some (best, _) -> Q.compare obj best > 0
  in
  let rec explore extra =
    incr nodes;
    if !nodes - nodes0 > max_nodes then
      failwith
        "Lp_reference.solve_ilp: branch-and-bound node budget exhausted";
    match solve_lp_with model ~extra with
    | Infeasible -> `Done
    | Unbounded -> `Unbounded
    | Optimal (obj, solution) ->
        if not (better obj) then `Done
        else begin
          match find_fractional solution with
          | None ->
              if better obj then
                incumbent := Some (obj, Array.map Q.to_int_exn solution);
              `Done
          | Some i ->
              let v = Model.var_of_index model i in
              let x = solution.(i) in
              let le = ([ (Q.one, v) ], Model.Le, Q.of_int (Q.floor x)) in
              let ge = ([ (Q.one, v) ], Model.Ge, Q.of_int (Q.ceil x)) in
              let r1 = explore (le :: extra) in
              let r2 = explore (ge :: extra) in
              if r1 = `Unbounded || r2 = `Unbounded then `Unbounded
              else `Done
        end
  in
  match explore [] with
  | `Unbounded -> Ilp_unbounded
  | `Done -> (
      match !incumbent with
      | Some (obj, sol) ->
          assert (Array.length sol = n);
          Ilp_optimal (obj, sol)
      | None -> Ilp_infeasible)
