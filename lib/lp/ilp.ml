type outcome =
  | Optimal of Q.t * int array
  | Unbounded
  | Infeasible

type result = { outcome : outcome; nodes : int }

(* Monotone per-domain node counter, same read-before/read-after contract
   as [Simplex.pivots]. *)
let nodes_key = Domain.DLS.new_key (fun () -> ref 0)
let nodes_explored () = !(Domain.DLS.get nodes_key)

let find_fractional solution =
  let n = Array.length solution in
  let rec go i =
    if i >= n then None
    else if Q.is_integer solution.(i) then go (i + 1)
    else Some i
  in
  go 0

(* The branch-and-bound tree size past which a solve fails. *)
let max_nodes = 100_000

(* Core branch-and-bound from a solved root relaxation: a replay of a
   prepared constraint snapshot ([Simplex.solve_prepared]), possibly
   extended with cut rows ([Simplex.add_le]). *)
let solve_result_from model root =
  let n = Model.num_vars model in
  let incumbent = ref None in
  let nodes = ref 0 in
  let count_node () =
    incr nodes;
    incr (Domain.DLS.get nodes_key);
    if !nodes > max_nodes then
      failwith "Ilp.solve: branch-and-bound node budget exhausted"
  in
  let better obj =
    match !incumbent with
    | None -> true
    | Some (best, _) -> Q.compare obj best > 0
  in
  (* Cutoff rows [objective >= incumbent + 1] are only sound when every
     improving solution has an integral objective, i.e. when all
     objective coefficients are integers (variables are integral). *)
  let integral_objective =
    List.for_all (fun (c, _) -> Q.is_integer c) (Model.objective model)
  in
  (* DFS over subproblems.  Each child re-optimizes its parent's solved
     basis through [Simplex.branch] (one dual-simplex run over one added
     row) instead of cold-starting a two-phase solve per node. *)
  let rec explore state obj solution =
    count_node ();
    if better obj then begin
      match find_fractional solution with
      | None -> incumbent := Some (obj, Array.map Q.to_int_exn solution)
      | Some i ->
          let v = Model.var_of_index model i in
          let x = solution.(i) in
          descend state ~var:v ~bound:(`Le (Q.floor x));
          (* The incumbent may have improved inside the first branch;
             tighten the basis with a cutoff row before the second so its
             dual simplex can prune non-improving regions directly. *)
          let state =
            if not integral_objective then Some state
            else
              match !incumbent with
              | None -> Some state
              | Some (best, _) -> (
                  match
                    Simplex.add_cutoff state ~lower:(Q.add best Q.one)
                  with
                  | _, Some s -> Some s
                  | Simplex.Infeasible, None -> None
                  | _, None -> Some state)
          in
          Option.iter
            (fun state -> descend state ~var:v ~bound:(`Ge (Q.ceil x)))
            state
    end
  and descend state ~var ~bound =
    match Simplex.branch state ~var ~bound with
    | Simplex.Optimal (obj, sol), Some child -> explore child obj sol
    | _, _ -> count_node () (* infeasible child: a node, but a leaf *)
  in
  match root with
  | Simplex.Unbounded, _ ->
      count_node ();
      { outcome = Unbounded; nodes = !nodes }
  | Simplex.Infeasible, _ ->
      count_node ();
      { outcome = Infeasible; nodes = !nodes }
  | Simplex.Optimal (obj, solution), Some state ->
      explore state obj solution;
      let outcome =
        match !incumbent with
        | Some (obj, sol) ->
            assert (Array.length sol = n);
            Optimal (obj, sol)
        | None -> Infeasible
      in
      { outcome; nodes = !nodes }
  | Simplex.Optimal _, None -> assert false

(* Observability wrapper: a span per branch-and-bound tree plus node
   counters and the per-solve node histogram. *)
let instrumented model f =
  if not (Obs.enabled ()) then f ()
  else begin
    let r =
      Obs.span ~cat:"lp"
        ~args:[ ("vars", Obs.Event.Int (Model.num_vars model)) ]
        "lp.ilp.solve" f
    in
    Obs.add "lp.ilp.nodes" r.nodes;
    Obs.observe "lp.ilp.nodes_per_solve" r.nodes;
    r
  end

let solve_result_prepared prepared model =
  instrumented model (fun () ->
      solve_result_from model (Simplex.solve_prepared prepared model))

let solve_result model =
  solve_result_prepared (Simplex.prepare model ~extra:[]) model

let solve_result_state model root =
  instrumented model (fun () -> solve_result_from model root)

let solve model = (solve_result model).outcome
