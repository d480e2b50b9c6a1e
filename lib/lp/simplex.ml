type outcome =
  | Optimal of Q.t * Q.t array
  | Unbounded
  | Infeasible

(* Sparse-row tableau.

   Each constraint row is a sparse map column -> nonzero coefficient with
   the right-hand side held separately; the reduced-cost row [z] stays
   dense because pricing scans every column anyway.  [basis.(i)] is the
   column basic in row [i]; canonical form is maintained by [pivot], so a
   basic column has a unit entry in its own row and appears in no other.
   IPET tableaus are network-flow-like — a few nonzeros per row out of
   hundreds of columns — so row operations touch only the handful of
   entries that exist instead of the whole width. *)

module Svec = struct
  type t = (int, Q.t) Hashtbl.t

  let create () : t = Hashtbl.create 8
  let copy : t -> t = Hashtbl.copy
  let get (t : t) j = match Hashtbl.find_opt t j with Some q -> q | None -> Q.zero
  let set (t : t) j q =
    if Q.is_zero q then Hashtbl.remove t j else Hashtbl.replace t j q

  let iter f (t : t) = Hashtbl.iter f t

  let scale (t : t) k =
    Hashtbl.filter_map_inplace (fun _ v -> Some (Q.mul v k)) t

  (* target <- target + factor * src.  Exact arithmetic makes the entry
     order irrelevant. *)
  let axpy (target : t) factor (src : t) =
    iter (fun j v -> set target j (Q.add (get target j) (Q.mul factor v))) src
end

type tableau = {
  mutable rows : Svec.t array;
  mutable rhs : Q.t array;
  mutable basis : int array;
  mutable z : Q.t array; (* dense reduced costs, length ncols *)
  mutable zval : Q.t; (* objective value of the current basis *)
  mutable ncols : int;
  mutable blocked : bool array; (* columns that may never enter (artificials) *)
}

(* Per-domain monotone pivot counter: a reader takes it before and after
   a solve and charges the difference, without cross-domain races. *)
let pivots_key = Domain.DLS.new_key (fun () -> ref 0)
let pivots () = !(Domain.DLS.get pivots_key)

(* Charge the pivots of [f] to the ambient [lp.simplex.pivots] counter.
   Every entry point that pivots goes through this or a solve wrapper
   below, so under a sink the counter equals the [pivots] delta. *)
let count_pivots f =
  if not (Obs.enabled ()) then f ()
  else begin
    let p0 = pivots () in
    let r = f () in
    Obs.add "lp.simplex.pivots" (pivots () - p0);
    r
  end

let pivot t ~row ~col =
  incr (Domain.DLS.get pivots_key);
  let r = t.rows.(row) in
  let piv = Svec.get r col in
  if not (Q.equal piv Q.one) then begin
    let inv = Q.inv piv in
    Svec.scale r inv;
    t.rhs.(row) <- Q.mul t.rhs.(row) inv
  end;
  let m = Array.length t.rows in
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = Svec.get t.rows.(i) col in
      if not (Q.is_zero f) then begin
        Svec.axpy t.rows.(i) (Q.neg f) r;
        t.rhs.(i) <- Q.sub t.rhs.(i) (Q.mul f t.rhs.(row))
      end
    end
  done;
  let f = t.z.(col) in
  if not (Q.is_zero f) then begin
    Svec.iter (fun j v -> t.z.(j) <- Q.sub t.z.(j) (Q.mul f v)) r;
    t.zval <- Q.sub t.zval (Q.mul f t.rhs.(row))
  end;
  t.basis.(row) <- col

(* Pricing.  Dantzig (most negative reduced cost, smallest index on ties)
   takes far fewer iterations than Bland on IPET tableaus but can cycle on
   degenerate vertices; after [degeneracy_threshold] consecutive
   zero-progress pivots we fall back to Bland's rule, which cannot cycle
   from any basis, and return to Dantzig on the next strict improvement. *)
let degeneracy_threshold = 32

let entering_dantzig t =
  let best = ref None in
  for j = 0 to t.ncols - 1 do
    if (not t.blocked.(j)) && Q.sign t.z.(j) < 0 then
      match !best with
      | Some (v, _) when Q.compare t.z.(j) v >= 0 -> ()
      | _ -> best := Some (t.z.(j), j)
  done;
  Option.map snd !best

let entering_bland t =
  let rec find j =
    if j >= t.ncols then None
    else if (not t.blocked.(j)) && Q.sign t.z.(j) < 0 then Some j
    else find (j + 1)
  in
  find 0

(* Ratio test: min rhs_i / a_i over a_i > 0, smallest basis index on
   ties (identical to the dense solver's rule). *)
let leaving t col =
  let m = Array.length t.rows in
  let best = ref None in
  for i = 0 to m - 1 do
    let a = Svec.get t.rows.(i) col in
    if Q.sign a > 0 then begin
      let ratio = Q.div t.rhs.(i) a in
      match !best with
      | None -> best := Some (ratio, i)
      | Some (r, i') ->
          let c = Q.compare ratio r in
          if c < 0 || (c = 0 && t.basis.(i) < t.basis.(i')) then
            best := Some (ratio, i)
    end
  done;
  !best

(* Pinned-artificial guard.  Zero-valued artificials are left basic after
   phase 1 (driving each one out would cost exactly the pivot we are
   trying to save), but they must stay at zero — a basic artificial going
   positive silently relaxes its equality row.  A strictly positive step
   through a row whose basic artificial has a negative coefficient in the
   entering column would do just that, so such a row preempts the ratio
   test: pivoting there is degenerate (rhs is zero — no variable moves,
   no objective change) and retires the artificial for good, since
   blocked columns never re-enter.  Each firing permanently shrinks the
   set of basic artificials, so these forced pivots cannot cycle. *)
let pinned_leaving t col =
  let m = Array.length t.rows in
  let best = ref None in
  for i = 0 to m - 1 do
    if
      t.blocked.(t.basis.(i))
      && Q.is_zero t.rhs.(i)
      && Q.sign (Svec.get t.rows.(i) col) < 0
    then
      match !best with
      | Some i' when t.basis.(i') <= t.basis.(i) -> ()
      | _ -> best := Some i
  done;
  !best

let iterate t =
  let degen = ref 0 in
  let rec go () =
    let entering =
      if !degen >= degeneracy_threshold then entering_bland t
      else entering_dantzig t
    in
    match entering with
    | None -> `Optimal
    | Some col -> (
        match leaving t col with
        | Some (ratio, row) when Q.is_zero ratio ->
            (* Zero step: pinned artificials cannot move either. *)
            pivot t ~row ~col;
            incr degen;
            go ()
        | blocking -> (
            match pinned_leaving t col with
            | Some row ->
                pivot t ~row ~col;
                incr degen;
                go ()
            | None -> (
                match blocking with
                | None ->
                    (* No pinned row intersects the ray either, so the
                       artificials stay at zero along it: genuinely
                       unbounded in the original problem. *)
                    `Unbounded
                | Some (ratio, row) ->
                    pivot t ~row ~col;
                    if Q.is_zero ratio then incr degen else degen := 0;
                    go ())))
  in
  go ()

type norm_constraint = { coefs : (Q.t * int) list; rel : Model.relation; rhs : Q.t }

(* Normalize to rhs >= 0, combining repeated variables. *)
let normalize_constraints model extra =
  let norm (e, rel, b) =
    let tbl = Hashtbl.create 8 in
    let order = ref [] in
    List.iter
      (fun (c, v) ->
        let v = (v : Model.var :> int) in
        match Hashtbl.find_opt tbl v with
        | Some c0 -> Hashtbl.replace tbl v (Q.add c0 c)
        | None ->
            Hashtbl.add tbl v c;
            order := v :: !order)
      (e : Model.linexpr);
    let coefs =
      List.rev_map (fun v -> (Hashtbl.find tbl v, v)) !order
      |> List.filter (fun (c, _) -> not (Q.is_zero c))
    in
    if Q.sign b < 0 then
      let coefs = List.map (fun (c, v) -> (Q.neg c, v)) coefs in
      let rel = match rel with Model.Le -> Model.Ge | Ge -> Le | Eq -> Eq in
      { coefs; rel; rhs = Q.neg b }
    else { coefs; rel; rhs = b }
  in
  List.map norm (Model.constraints model @ extra)

(* Triangular crash basis.

   An IPET model is a unit flow problem: one equality per block (rhs 0
   except the unit source row) over +-1 edge coefficients.  Such a system
   is almost permuted-triangular: starting from the virtual exit edge
   (which appears in a single row) the rows peel off one by one, each
   yielding a column that appears in exactly one not-yet-assigned row.
   Crashing along that order — assigning each peeled row its singleton
   +-1 column as basic and eliminating the column from every other row —
   produces a canonical basis whose basic solution already routes the
   unit flow, so phase 1 has nothing left to do and phase 2 starts from
   a genuine flow instead of an all-artificial vertex.

   The eliminations are crash/presolve row operations, not simplex
   iterations: there is no pricing and no ratio test, each touches only
   the sparse support of the peeled row, and none is counted by
   [pivots].  Rows the triangularization cannot reach (cyclic remainder)
   and rows whose basic value ends up negative fall back to an
   artificial; those with positive rhs are what phase 1 then minimizes. *)

let build_tableau model extra =
  let n = Model.num_vars model in
  let cons = normalize_constraints model extra in
  let m = List.length cons in
  let n_slack =
    List.length
      (List.filter (fun c -> c.rel = Model.Le || c.rel = Model.Ge) cons)
  in
  (* Every row may in the worst case fall back to an artificial (even a
     Le row, if crash eliminations drive its rhs negative); unused column
     indices are harmless because every structure below is keyed by
     explicit indices. *)
  let ncols = n + n_slack + m in
  let rows = Array.init m (fun _ -> Svec.create ()) in
  let rhs = Array.make m Q.zero in
  let basis = Array.make m (-1) in
  let is_art = Array.make ncols false in
  let next_slack = ref n in
  (* Raw rows with slack/surplus columns; a Le row crashes on its slack,
     a zero-rhs Ge row on its negated surplus.  Eq rows and positive-rhs
     Ge rows stay unassigned for the triangularization. *)
  List.iteri
    (fun i c ->
      List.iter (fun (coef, v) -> Svec.set rows.(i) v coef) c.coefs;
      rhs.(i) <- c.rhs;
      match c.rel with
      | Model.Le ->
          let s = !next_slack in
          incr next_slack;
          Svec.set rows.(i) s Q.one;
          basis.(i) <- s
      | Model.Ge ->
          let s = !next_slack in
          incr next_slack;
          Svec.set rows.(i) s Q.minus_one;
          if Q.is_zero c.rhs then begin
            Svec.scale rows.(i) Q.minus_one;
            basis.(i) <- s
          end
      | Model.Eq -> ())
    cons;
  (* Uncounted crash elimination: make row [i]'s basic column canonical
     (unit in its own row, absent elsewhere). *)
  let eliminate i =
    let r = rows.(i) in
    let v = basis.(i) in
    for k = 0 to m - 1 do
      if k <> i then begin
        let f = Svec.get rows.(k) v in
        if not (Q.is_zero f) then begin
          Svec.axpy rows.(k) (Q.neg f) r;
          rhs.(k) <- Q.sub rhs.(k) (Q.mul f rhs.(i))
        end
      end
    done
  in
  let sorted_entries r =
    let es = ref [] in
    Svec.iter (fun j q -> es := (j, q) :: !es) r;
    List.sort (fun (a, _) (b, _) -> compare a b) !es
  in
  (* Peel: repeatedly find an unassigned feasible row holding a unit
     column that no other unassigned row mentions (a -1 coefficient
     serves too when the rhs is zero, after negating the row).  Smallest
     row then smallest column keeps the construction deterministic. *)
  let occ = Array.make ncols 0 in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.fill occ 0 ncols 0;
    for i = 0 to m - 1 do
      if basis.(i) < 0 then Svec.iter (fun j _ -> occ.(j) <- occ.(j) + 1) rows.(i)
    done;
    let found = ref None in
    (try
       for i = 0 to m - 1 do
         if basis.(i) < 0 && Q.sign rhs.(i) >= 0 then
           let cand =
             List.find_opt
               (fun (j, q) ->
                 occ.(j) = 1
                 && (Q.equal q Q.one
                    || (Q.equal q Q.minus_one && Q.is_zero rhs.(i))))
               (sorted_entries rows.(i))
           in
           match cand with
           | Some (j, q) ->
               found := Some (i, j, q);
               raise Exit
           | None -> ()
       done
     with Exit -> ());
    match !found with
    | None -> ()
    | Some (i, j, q) ->
        if Q.equal q Q.minus_one then Svec.scale rows.(i) Q.minus_one;
        basis.(i) <- j;
        eliminate i;
        progress := true
  done;
  (* Fixup: a crashed row whose basic value went negative reverts to an
     artificial (its old basic column was eliminated everywhere else, so
     dropping it keeps the rest canonical); every still-unassigned row
     gets one too, rhs normalized to >= 0 first. *)
  let art_rows = ref [] in
  let next_art = ref (n + n_slack) in
  for i = 0 to m - 1 do
    if basis.(i) >= 0 && Q.sign rhs.(i) < 0 then begin
      Svec.scale rows.(i) Q.minus_one;
      rhs.(i) <- Q.neg rhs.(i);
      basis.(i) <- -1
    end;
    if basis.(i) < 0 then begin
      if Q.sign rhs.(i) < 0 then begin
        Svec.scale rows.(i) Q.minus_one;
        rhs.(i) <- Q.neg rhs.(i)
      end;
      Svec.set rows.(i) !next_art Q.one;
      basis.(i) <- !next_art;
      is_art.(!next_art) <- true;
      art_rows := i :: !art_rows;
      incr next_art
    end
  done;
  (rows, rhs, basis, ncols, is_art, List.rev !art_rows)

(* Phase-1 objective: maximize -(sum of artificials over [active] rows
   only).  An artificial on a zero-rhs row starts basic at value zero —
   the crash basis already satisfies that row — so including it in the
   objective would only buy a chain of degenerate pivots kicking
   zero-valued artificials out one by one.  Instead those stay basic,
   pinned by the guard in [iterate], and phase 1 spends pivots purely on
   routing the genuinely infeasible rows' values to zero.  Canonical
   reduced costs: c_B is -1 exactly on active rows, so z_j = -(sum over
   active rows of a_ij), plus 1 for each active row's own artificial;
   other basic columns appear in no active row and get z_j = 0. *)
let phase1_z rows rhs basis ncols active =
  let z = Array.make ncols Q.zero in
  let zval = ref Q.zero in
  List.iter
    (fun i ->
      Svec.iter (fun j v -> z.(j) <- Q.sub z.(j) v) rows.(i);
      zval := Q.sub !zval rhs.(i))
    active;
  List.iter (fun i -> z.(basis.(i)) <- Q.add z.(basis.(i)) Q.one) active;
  (z, !zval)

(* Phase-2 objective row from scratch: z_j = sum_i c_basis(i) * a_ij - c_j
   with the objective value sum_i c_basis(i) * rhs_i. *)
let phase2_z cost rows rhs basis ncols =
  let c = Array.make ncols Q.zero in
  Array.iteri (fun v coef -> c.(v) <- coef) cost;
  let z = Array.make ncols Q.zero in
  for j = 0 to ncols - 1 do
    z.(j) <- Q.neg c.(j)
  done;
  let zval = ref Q.zero in
  Array.iteri
    (fun i b ->
      let cb = c.(b) in
      if not (Q.is_zero cb) then begin
        Svec.iter (fun j v -> z.(j) <- Q.add z.(j) (Q.mul cb v)) rows.(i);
        zval := Q.add !zval (Q.mul cb rhs.(i))
      end)
    basis;
  (z, !zval)

type state = {
  nvars : int;
  cost : Q.t array; (* dense objective over model variables *)
  tab : tableau;
}

let solution_of (tab : tableau) nvars =
  let solution = Array.make nvars Q.zero in
  Array.iteri
    (fun i b -> if b < nvars then solution.(b) <- tab.rhs.(i))
    tab.basis;
  solution

let cost_of_model model =
  let n = Model.num_vars model in
  let cost = Array.make n Q.zero in
  List.iter
    (fun (coef, v) ->
      let v = (v : Model.var :> int) in
      cost.(v) <- Q.add cost.(v) coef)
    (Model.objective model);
  cost

let solve_state_uninstrumented model ~extra =
  let rows, rhs, basis, ncols, is_art, art_rows = build_tableau model extra in
  let n = Model.num_vars model in
  let cost = cost_of_model model in
  let finish tab =
    match iterate tab with
    | `Unbounded -> (Unbounded, None)
    | `Optimal ->
        ( Optimal (tab.zval, solution_of tab n),
          Some { nvars = n; cost; tab } )
  in
  (* Only rows whose artificial starts at a nonzero value make the crash
     basis infeasible; in an IPET model that is just the unit source row
     — every flow-conservation row has rhs 0.  Phase 1 therefore
     minimizes only those, and when there are none (all artificials
     basic at zero) it is skipped outright. *)
  let active = List.filter (fun i -> Q.sign rhs.(i) > 0) art_rows in
  if active = [] then begin
    let z, zval = phase2_z cost rows rhs basis ncols in
    finish { rows; rhs; basis; z; zval; ncols; blocked = is_art }
  end
  else begin
    let z1, zval1 = phase1_z rows rhs basis ncols active in
    let t1 = { rows; rhs; basis; z = z1; zval = zval1; ncols; blocked = is_art } in
    match iterate t1 with
    | `Unbounded ->
        (* Phase 1 is bounded above by 0 by construction. *)
        assert false
    | `Optimal ->
        if Q.sign t1.zval < 0 then (Infeasible, None)
        else begin
          (* Remaining basic artificials all sit at zero and stay pinned
             there through phase 2; they are only driven out if a warm
             start later needs the basis (see [unpin_artificials]). *)
          let z2, zval2 = phase2_z cost t1.rows t1.rhs t1.basis ncols in
          t1.z <- z2;
          t1.zval <- zval2;
          finish t1
        end
  end

(* Observability wrapper: a span per root solve plus the per-solve pivot
   histogram.  With no sink installed this is one atomic load on top of
   the solve. *)
let solve_state model ~extra =
  if not (Obs.enabled ()) then solve_state_uninstrumented model ~extra
  else begin
    let p0 = pivots () in
    let r =
      Obs.span ~cat:"lp"
        ~args:[ ("vars", Obs.Event.Int (Model.num_vars model)) ]
        "lp.simplex.solve"
        (fun () -> solve_state_uninstrumented model ~extra)
    in
    let dp = pivots () - p0 in
    Obs.add "lp.simplex.pivots" dp;
    Obs.observe "lp.simplex.pivots_per_solve" dp;
    r
  end

let solve_with model ~extra = fst (solve_state model ~extra)
let solve model = solve_with model ~extra:[]

(* ------------------------------------------------------------------ *)
(* Prepared solves: share the objective-independent prefix              *)
(* ------------------------------------------------------------------ *)

(* Everything [solve_state] does before the phase-2 objective row is
   installed — normalization, the sparse tableau, the triangular crash
   basis, and the phase-1 cleanup of infeasible artificial rows — depends
   only on the constraint set.  [prepare] runs that prefix once and
   snapshots the resulting tableau; [solve_prepared] replays from the
   snapshot with a fresh objective, reproducing the cold solve's pivot
   trajectory bit-exactly (same starting basis, same deterministic
   pricing), so re-solves under new objective coefficients cost only the
   phase-2 pivots. *)

type prepared =
  | Prepared of {
      p_nvars : int;
      p_rows : Svec.t array;
      p_rhs : Q.t array;
      p_basis : int array;
      p_ncols : int;
      p_blocked : bool array;
    }
  | Prepared_infeasible

let prepare_uninstrumented model ~extra =
  let rows, rhs, basis, ncols, is_art, art_rows = build_tableau model extra in
  let n = Model.num_vars model in
  let snapshot () =
    Prepared
      {
        p_nvars = n;
        p_rows = rows;
        p_rhs = rhs;
        p_basis = basis;
        p_ncols = ncols;
        p_blocked = is_art;
      }
  in
  let active = List.filter (fun i -> Q.sign rhs.(i) > 0) art_rows in
  if active = [] then snapshot ()
  else begin
    let z1, zval1 = phase1_z rows rhs basis ncols active in
    let t1 =
      { rows; rhs; basis; z = z1; zval = zval1; ncols; blocked = is_art }
    in
    match iterate t1 with
    | `Unbounded -> assert false (* phase 1 is bounded above by 0 *)
    | `Optimal -> if Q.sign t1.zval < 0 then Prepared_infeasible else snapshot ()
  end

let prepare model ~extra =
  if not (Obs.enabled ()) then prepare_uninstrumented model ~extra
  else
    count_pivots (fun () ->
        Obs.span ~cat:"lp"
          ~args:[ ("vars", Obs.Event.Int (Model.num_vars model)) ]
          "lp.simplex.prepare"
          (fun () -> prepare_uninstrumented model ~extra))

let solve_prepared_uninstrumented prepared model =
  match prepared with
  | Prepared_infeasible -> (Infeasible, None)
  | Prepared p ->
      let cost = cost_of_model model in
      let rows = Array.map Svec.copy p.p_rows in
      let rhs = Array.copy p.p_rhs in
      let basis = Array.copy p.p_basis in
      let z, zval = phase2_z cost rows rhs basis p.p_ncols in
      let tab =
        {
          rows;
          rhs;
          basis;
          z;
          zval;
          ncols = p.p_ncols;
          blocked = Array.copy p.p_blocked;
        }
      in
      (match iterate tab with
      | `Unbounded -> (Unbounded, None)
      | `Optimal ->
          ( Optimal (tab.zval, solution_of tab p.p_nvars),
            Some { nvars = p.p_nvars; cost; tab } ))

let solve_prepared prepared model =
  if not (Obs.enabled ()) then solve_prepared_uninstrumented prepared model
  else begin
    let p0 = pivots () in
    let r =
      Obs.span ~cat:"lp"
        ~args:[ ("vars", Obs.Event.Int (Model.num_vars model)) ]
        "lp.simplex.warm_solve"
        (fun () -> solve_prepared_uninstrumented prepared model)
    in
    let dp = pivots () - p0 in
    Obs.add "lp.simplex.pivots" dp;
    Obs.observe "lp.simplex.pivots_per_solve" dp;
    r
  end

(* ------------------------------------------------------------------ *)
(* Warm starts: dual simplex from a parent optimum                     *)
(* ------------------------------------------------------------------ *)

let copy_state (s : state) =
  {
    s with
    tab =
      {
        rows = Array.map Svec.copy s.tab.rows;
        rhs = Array.copy s.tab.rhs;
        basis = Array.copy s.tab.basis;
        z = Array.copy s.tab.z;
        zval = s.tab.zval;
        ncols = s.tab.ncols;
        blocked = Array.copy s.tab.blocked;
      };
  }

(* Dual simplex: the basis stays dual-feasible (z_j >= 0), primal
   infeasibilities (negative rhs) are pivoted away.  Leaving row = most
   negative rhs (smallest basis index on ties); entering column = dual
   ratio test min z_j / -a_rj over a_rj < 0, smallest index on ties.
   After [degeneracy_threshold] zero-progress steps the leaving choice
   falls back to the smallest basis index (dual Bland), which terminates
   from any basis.  No entering candidate means the row proves primal
   infeasibility. *)
let dual_iterate (t : tableau) =
  let m () = Array.length t.rows in
  let degen = ref 0 in
  let rec go () =
    let leaving =
      if !degen >= degeneracy_threshold then begin
        let best = ref None in
        for i = 0 to m () - 1 do
          if Q.sign t.rhs.(i) < 0 then
            match !best with
            | Some i' when t.basis.(i') <= t.basis.(i) -> ()
            | _ -> best := Some i
        done;
        !best
      end
      else begin
        let best = ref None in
        for i = 0 to m () - 1 do
          if Q.sign t.rhs.(i) < 0 then
            match !best with
            | None -> best := Some i
            | Some i' ->
                let c = Q.compare t.rhs.(i) t.rhs.(i') in
                if c < 0 || (c = 0 && t.basis.(i) < t.basis.(i')) then
                  best := Some i
        done;
        !best
      end
    in
    match leaving with
    | None -> `Optimal
    | Some row -> (
        let best = ref None in
        Svec.iter
          (fun j a ->
            if (not t.blocked.(j)) && Q.sign a < 0 then begin
              let ratio = Q.div t.z.(j) (Q.neg a) in
              match !best with
              | None -> best := Some (ratio, j)
              | Some (r, j') ->
                  let c = Q.compare ratio r in
                  if c < 0 || (c = 0 && j < j') then best := Some (ratio, j)
            end)
          t.rows.(row);
        match !best with
        | None -> `Infeasible
        | Some (ratio, col) ->
            pivot t ~row ~col;
            if Q.is_zero ratio then incr degen else degen := 0;
            go ())
  in
  go ()

(* The primal phases leave zero-valued artificials basic, pinned by the
   ratio-test guard.  The dual simplex has no such guard — a dual pivot
   could move a pinned artificial off zero and silently relax its
   equality — so before warm-starting from a state we drive its basic
   artificials out onto structural columns.  Every such pivot is
   degenerate (the row's rhs is zero): the solution point is untouched,
   only its basis representation changes, so re-deriving the reduced
   costs and re-running the primal iteration restores a dual-feasible
   optimum at the same objective.  A row with no structural column left
   is genuinely redundant and stays inert: no entering column ever
   intersects it.  Mutating the parent is safe (same solution, same
   objective) and means repeated branches from one node pay at most
   once. *)
let unpin_artificials (s : state) =
  let t = s.tab in
  let drove = ref false in
  Array.iteri
    (fun i b ->
      if t.blocked.(b) then begin
        let best = ref None in
        Svec.iter
          (fun j _ ->
            if not t.blocked.(j) then
              match !best with
              | Some j' when j' <= j -> ()
              | _ -> best := Some j)
          t.rows.(i);
        match !best with
        | Some col ->
            pivot t ~row:i ~col;
            drove := true
        | None -> ()
      end)
    t.basis;
  if !drove then begin
    let z, zval = phase2_z s.cost t.rows t.rhs t.basis t.ncols in
    t.z <- z;
    t.zval <- zval;
    match iterate t with
    | `Optimal -> ()
    | `Unbounded ->
        (* The objective is bounded by the known optimum at this vertex. *)
        assert false
  end

(* Append [terms <= bound] to a solved state and restore optimality with
   dual simplex.  The new row is expressed over the current basis by
   eliminating every basic variable it mentions; its fresh slack column
   becomes basic, so reduced costs are untouched and the parent's pivots
   are all reused. *)
let add_le_row parent terms bound =
  unpin_artificials parent;
  let s = copy_state parent in
  let t = s.tab in
  let slack = t.ncols in
  t.ncols <- t.ncols + 1;
  let z' = Array.make t.ncols Q.zero in
  Array.blit t.z 0 z' 0 (t.ncols - 1);
  t.z <- z';
  let blocked' = Array.make t.ncols false in
  Array.blit t.blocked 0 blocked' 0 (t.ncols - 1);
  t.blocked <- blocked';
  let row = Svec.create () in
  List.iter (fun (c, v) -> Svec.set row v (Q.add (Svec.get row v) c)) terms;
  let rhs = ref bound in
  (* Canonicalize against the current basis. *)
  Array.iteri
    (fun i b ->
      let f = Svec.get row b in
      if not (Q.is_zero f) then begin
        Svec.axpy row (Q.neg f) t.rows.(i);
        rhs := Q.sub !rhs (Q.mul f t.rhs.(i))
      end)
    t.basis;
  Svec.set row slack Q.one;
  let m = Array.length t.rows in
  let rows' = Array.make (m + 1) row in
  Array.blit t.rows 0 rows' 0 m;
  t.rows <- rows';
  let rhs' = Array.make (m + 1) !rhs in
  Array.blit t.rhs 0 rhs' 0 m;
  t.rhs <- rhs';
  let basis' = Array.make (m + 1) slack in
  Array.blit t.basis 0 basis' 0 m;
  t.basis <- basis';
  match dual_iterate t with
  | `Infeasible -> (Infeasible, None)
  | `Optimal -> (Optimal (t.zval, solution_of t s.nvars), Some s)

let branch parent ~var ~bound =
  count_pivots (fun () ->
      let v = (var : Model.var :> int) in
      match bound with
      | `Le k -> add_le_row parent [ (Q.one, v) ] (Q.of_int k)
      | `Ge k -> add_le_row parent [ (Q.minus_one, v) ] (Q.of_int (-k)))

(* General cut rows over model variables: the row-level primitive behind
   [branch], exposed for infeasible-path conflict cuts (sum of edge flows
   <= k).  Same warm-start contract: the parent's basis is reused, one
   dual-simplex run restores optimality. *)
let add_le parent ~terms ~bound =
  count_pivots (fun () ->
      add_le_row parent
        (List.map (fun (c, v) -> (c, (v : Model.var :> int))) terms)
        bound)

(* Incumbent cutoff: objective >= lower, i.e. -objective <= -lower. *)
let add_cutoff parent ~lower =
  let terms = ref [] in
  Array.iteri
    (fun v c -> if not (Q.is_zero c) then terms := (Q.neg c, v) :: !terms)
    parent.cost;
  count_pivots (fun () -> add_le_row parent (List.rev !terms) (Q.neg lower))
