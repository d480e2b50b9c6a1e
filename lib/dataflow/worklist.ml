(* Round-based dirty-set fixpoint scheduling over a CFG.

   The classic chaotic-iteration sweep re-examines every block every
   round: it recomputes the block's input (a join over predecessor outs)
   and compares it against the stored one, even when no predecessor
   changed — on converging analyses most of those joins are pure waste.
   This engine keeps the sweep's reverse-postorder round structure but
   only examines *dirty* blocks: a block becomes dirty exactly when a
   predecessor's out-state changed after the block's last examination.

   Rounds mirror sweeps bit-for-bit: within a round, dirty blocks are
   processed in RPO order; when a block's out changes, successors later
   in RPO are marked dirty for the *current* round (a sweep would reach
   them afterwards with the new out in place) and successors at or before
   the current position for the *next* round (a sweep would only see the
   change on its next pass).  A skipped block's recomputed input would
   have compared equal, so the stored in/out sequences — and therefore
   every analysis result — are identical to the sweep's.  The [`Sweep]
   strategy forces the classic behavior for A/B measurement. *)

type strategy = [ `Worklist | `Sweep ]

let strategy_key : strategy ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref `Worklist)

let with_strategy s f =
  let r = Domain.DLS.get strategy_key in
  let old = !r in
  r := s;
  Fun.protect ~finally:(fun () -> r := old) f

(* Per-domain monotone counters, same contract as
   [Cache.Analysis.fixpoint_iterations]: a reader takes them before and
   after a piece of work and charges the difference.  The Obs wrapper
   below, the ledger and bench/perf.ml read them. *)
let pops_key = Domain.DLS.new_key (fun () -> ref 0)
let pops () = !(Domain.DLS.get pops_key)
let transfers_key = Domain.DLS.new_key (fun () -> ref 0)
let transfers () = !(Domain.DLS.get transfers_key)
let count_transfer () = incr (Domain.DLS.get transfers_key)

let run_uninstrumented g ?(on_round = fun () -> ()) ~process () =
  let n = Cfg.Graph.num_blocks g in
  let rpo = Cfg.Graph.reverse_postorder g in
  let pos = Array.make n 0 in
  List.iteri (fun i id -> pos.(id) <- i) rpo;
  let sweep = !(Domain.DLS.get strategy_key) = `Sweep in
  let dirty_now = Array.make n false in
  let dirty_next = Array.make n false in
  List.iter (fun id -> dirty_now.(id) <- true) rpo;
  let pop_counter = Domain.DLS.get pops_key in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    incr rounds;
    on_round ();
    let changed = ref false in
    let pending = ref false in
    List.iter
      (fun id ->
        if sweep || dirty_now.(id) then begin
          dirty_now.(id) <- false;
          incr pop_counter;
          match process ~round:!rounds id with
          | `Unchanged -> ()
          | `In_changed -> changed := true
          | `Out_changed ->
              changed := true;
              List.iter
                (fun (e : Cfg.Graph.edge) ->
                  if pos.(e.dst) > pos.(id) then dirty_now.(e.dst) <- true
                  else begin
                    dirty_next.(e.dst) <- true;
                    pending := true
                  end)
                (Cfg.Graph.succs g id)
        end)
      rpo;
    if sweep then continue_ := !changed
    else begin
      continue_ := !pending;
      if !pending then
        for i = 0 to n - 1 do
          dirty_now.(i) <- dirty_next.(i);
          dirty_next.(i) <- false
        done
    end
  done;
  !rounds

(* Observability wrapper: a [cat:"fixpoint"] span per fixpoint run
   (named by the analysis that asked for it) plus pops/transfers
   counters and a rounds histogram on the ambient sink.  One atomic
   load when tracing is off. *)
let run g ?(name = "fixpoint") ?on_round ~process () =
  if not (Obs.enabled ()) then run_uninstrumented g ?on_round ~process ()
  else begin
    let pop0 = pops () and tr0 = transfers () in
    let rounds =
      Obs.span ~cat:"fixpoint"
        ~args:[ ("blocks", Obs.Event.Int (Cfg.Graph.num_blocks g)) ]
        name
        (fun () -> run_uninstrumented g ?on_round ~process ())
    in
    Obs.add "dataflow.worklist.pops" (pops () - pop0);
    Obs.add "dataflow.worklist.transfers" (transfers () - tr0);
    Obs.observe "dataflow.worklist.rounds_per_fixpoint" rounds;
    rounds
  end

(* The common join/equal/transfer instantiation shared by the four cache
   fixpoints: ['a option] lattice with [None] as bottom, predecessor outs
   joined in edge-list order, the entry fact joined in front of the entry
   block's input. *)
let solve g ?name ~entry_fact ~join ~equal ~transfer ?(on_round = fun () -> ())
    () =
  let n = Cfg.Graph.num_blocks g in
  let ins = Array.make n None in
  let outs = Array.make n None in
  let process ~round:_ id =
    let input =
      let from_preds =
        List.fold_left
          (fun acc (e : Cfg.Graph.edge) ->
            match (acc, outs.(e.src)) with
            | None, x -> x
            | x, None -> x
            | Some a, Some b -> Some (join a b))
          None (Cfg.Graph.preds g id)
      in
      if id = g.Cfg.Graph.entry then
        match from_preds with
        | None -> Some entry_fact
        | Some x -> Some (join entry_fact x)
      else from_preds
    in
    match input with
    | None -> `Unchanged
    | Some input ->
        let stale =
          match ins.(id) with
          | None -> true
          | Some old -> not (equal old input)
        in
        if not stale then `Unchanged
        else begin
          ins.(id) <- Some input;
          count_transfer ();
          let out = transfer id input in
          let out_changed =
            match outs.(id) with
            | None -> true
            | Some old -> not (equal old out)
          in
          outs.(id) <- Some out;
          if out_changed then `Out_changed else `In_changed
        end
  in
  let (_ : int) = run g ?name ~on_round ~process () in
  (ins, outs)
