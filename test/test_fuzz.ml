(* Tests for the differential soundness fuzzer: generator determinism
   and totality, the QCheck bridge with a structural piece shrinker, and
   end-to-end mini campaigns through the oracle. *)

module G = Fuzz.Generator
module O = Fuzz.Oracle

(* ------------------------------------------------------------------ *)
(* QCheck arbitrary over piece lists                                   *)
(* ------------------------------------------------------------------ *)

let gen_space =
  QCheck.Gen.oneofl [ Isa.Instr.Data; Isa.Instr.Stack; Isa.Instr.Io ]

let gen_op =
  QCheck.Gen.(
    oneof
      [
        map (fun n -> G.Alu_burst n) (int_range 1 8);
        map2 (fun s off -> G.Load (s, off)) gen_space (int_range 0 600);
        map2 (fun s off -> G.Store (s, off)) gen_space (int_range 0 600);
        map2
          (fun s off -> G.Load_indexed (s, off))
          gen_space (int_range 0 600);
      ])

let gen_piece =
  QCheck.Gen.(
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map
                   (fun ops -> G.Straight ops)
                   (list_size (int_range 1 4) gen_op);
                 map3
                   (fun sel_off heavy light ->
                     G.Diamond { sel_off; heavy; light })
                   (int_range 0 40)
                   (list_size (int_range 1 3) gen_op)
                   (list_size (int_range 1 3) gen_op);
                 map (fun k -> G.Call k) (int_range 0 2);
                 map2
                   (fun off bound -> G.Io_poll { off; bound })
                   (int_range 0 63) (int_range 0 10);
               ]
           in
           if n <= 1 then leaf
           else
             frequency
               [
                 (3, leaf);
                 ( 1,
                   map2
                     (fun iters body -> G.Loop { iters; body })
                     (int_range 1 10)
                     (list_size (int_range 1 2) (self (n / 2))) );
               ]))

(* Structural shrinker: loops yield their body pieces (and shrink their
   trip counts), diamonds yield their arms as straight-line code, calls
   collapse to nothing.  [G.assemble] is total, so every shrink
   candidate is still a valid program. *)
let rec shrink_piece p =
  let open QCheck.Iter in
  match p with
  | G.Straight ops ->
      map (fun ops -> G.Straight ops) (QCheck.Shrink.list ops)
  | G.Loop { iters; body } ->
      of_list body
      <+> map (fun iters -> G.Loop { iters; body }) (QCheck.Shrink.int iters)
      <+> map
            (fun body -> G.Loop { iters; body })
            (QCheck.Shrink.list ~shrink:shrink_piece body)
  | G.Diamond { sel_off; heavy; light } ->
      of_list [ G.Straight heavy; G.Straight light ]
      <+> map
            (fun heavy -> G.Diamond { sel_off; heavy; light })
            (QCheck.Shrink.list heavy)
      <+> map
            (fun light -> G.Diamond { sel_off; heavy; light })
            (QCheck.Shrink.list light)
  | G.Call _ -> return (G.Straight [])
  | G.Io_poll { off; bound } ->
      map (fun bound -> G.Io_poll { off; bound }) (QCheck.Shrink.int bound)

let arb_pieces =
  QCheck.make
    ~print:(fun pieces -> (G.assemble pieces).G.source)
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_piece)
    (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) gen_piece)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_assemble_total =
  QCheck.Test.make ~name:"assemble is total over arbitrary pieces"
    ~count:200 arb_pieces (fun pieces ->
      let t = G.assemble pieces in
      Isa.Program.length t.G.program > 0)

let prop_solo_sandwich =
  QCheck.Test.make
    ~name:"BCET <= observed <= WCET on every solo shape" ~count:25
    arb_pieces (fun pieces ->
      let t = G.assemble ~name:"qcheck" pieces in
      let r = O.check_solo t in
      r.O.violations = [] && r.O.errors = [] && r.O.checks <> [])

let merge (rs : O.report list) =
  {
    O.checks = List.concat_map (fun (r : O.report) -> r.O.checks) rs;
    violations = List.concat_map (fun (r : O.report) -> r.O.violations) rs;
    errors = List.concat_map (fun (r : O.report) -> r.O.errors) rs;
  }

(* A solo check's bound side against the fresh per-call analyses
   ([Core.Wcet.analyze] and [Core.Bcet.analyze] each build their own
   context) on the platform of the check's shape. *)
let solo_check_is_fresh (t : G.t) (c : O.check) =
  let platform = List.assoc c.O.shape (O.solo_shapes ()) in
  let w = Core.Wcet.analyze ~annot:t.G.annot platform t.G.program
  and b = Core.Bcet.analyze ~annot:t.G.annot platform t.G.program in
  let root_vec =
    match List.rev w.Core.Wcet.procs with
    | (_, pr) :: _ -> pr.Core.Wcet.wcet_vec
    | [] -> Pipeline.Cost.Vec.zero
  in
  c.O.bcet = b.Core.Bcet.bcet
  && c.O.wcet = w.Core.Wcet.wcet
  && c.O.unrefined = w.Core.Wcet.unrefined_wcet
  && c.O.a_vec = root_vec

(* The differential oracle for the shared contexts: every wcet, bcet,
   attribution vector, check row, violation and error must be
   structurally identical to a reference that shares nothing.  [report]
   is pure data (ints, strings, cost vectors), so polymorphic equality
   IS bit-identity here.  A group checked over every mode on one
   context pack must equal the merge of one check per mode, each
   building its own contexts; each solo check must equal the fresh
   analyses of its shape.  The shared-facts variants then run with one
   lazy facts value per task shared by the task's solo check and the
   group check, as [run_campaign] does. *)
let prop_engines_bit_identical =
  QCheck.Test.make
    ~name:"context engine bit-identical to fresh (8 modes + solo shapes)"
    ~count:8
    (QCheck.pair arb_pieces arb_pieces)
    (fun (pa, pb) ->
      let ta = G.assemble ~name:"qcheck-a" pa
      and tb = G.assemble ~name:"qcheck-b" pb in
      let group = [| ta; tb |] in
      let shared_group = O.check_group ~modes:O.all_modes group
      and solo = O.check_solo ta in
      let facts =
        Array.map
          (fun (t : G.t) ->
            lazy (Core.Context.facts ~annot:t.G.annot t.G.program))
          group
      in
      shared_group
      = merge
          (List.map (fun m -> O.check_group ~modes:[ m ] group) O.all_modes)
      && List.length solo.O.checks = List.length (O.solo_shapes ())
      && List.for_all (solo_check_is_fresh ta) solo.O.checks
      && O.check_solo ~facts:facts.(0) ta = solo
      && O.check_group ~modes:O.all_modes ~facts group = shared_group)

(* ------------------------------------------------------------------ *)
(* Generator determinism                                               *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic () =
  for index = 0 to 9 do
    let a = G.generate ~seed:123 ~index () in
    let b = G.generate ~seed:123 ~index () in
    Alcotest.(check string) "same source" a.G.source b.G.source
  done;
  let a = G.generate ~seed:1 ~index:0 () in
  let b = G.generate ~seed:2 ~index:0 () in
  Alcotest.(check bool) "different seeds differ" true (a.G.source <> b.G.source)

let test_generate_names () =
  let g = G.generate ~seed:7 ~index:3 () in
  Alcotest.(check string) "campaign-coded name" "fuzz-7-3" g.G.name

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)
(* ------------------------------------------------------------------ *)

let test_campaign_clean () =
  let c = O.run_campaign ~seed:7 ~count:12 ~cores:3 () in
  let r = c.O.report in
  Alcotest.(check int) "violations" 0 (List.length r.O.violations);
  Alcotest.(check int) "errors" 0 (List.length r.O.errors);
  List.iter
    (fun (s : O.mode_stats) ->
      Alcotest.(check bool)
        (O.mode_name s.O.s_mode ^ " produced checks")
        true (s.O.s_checks > 0))
    c.O.stats

let test_campaign_worker_independent () =
  let run workers =
    O.csv_of_report (O.run_campaign ~seed:5 ~count:8 ~workers ()).O.report
  in
  Alcotest.(check string) "1 worker = 4 workers" (run 1) (run 4)

(* The campaign shares each task's program facts between its solo and
   group checks, and each group's contexts between its modes; a
   campaign per mode shares only within that mode.  Both hold the same
   checks. *)
let test_campaign_engines_identical () =
  List.iter
    (fun seed ->
      let run modes =
        (O.run_campaign ~modes ~seed ~count:8 ~cores:2 ~workers:1 ()).O.report
      in
      let all = run O.all_modes in
      List.iter
        (fun m ->
          let one = run [ m ] in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d, %s: all-modes checks = per-mode checks"
               seed (O.mode_name m))
            true
            (List.filter (fun (c : O.check) -> c.O.mode = m) all.O.checks
             = one.O.checks
            && one.O.violations = [] && one.O.errors = []))
        O.all_modes;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: no violations or errors" seed)
        true
        (all.O.violations = [] && all.O.errors = []))
    [ 11; 12 ]

(* A task whose front end fails is an "analysis failed" violation of
   every contended mode, carrying the group's source, not an exception
   out of the check that would lose its pool job's other reports. *)
let test_group_front_end_failure () =
  (* an I/O-polling loop with no annotation has no inferable bound *)
  let source =
    "main:\nspin:\n  ld.io r1, 0(r0)\n  bne r1, r0, spin\n  halt\n"
  in
  let healthy = G.generate ~seed:3 ~index:0 () in
  let spin =
    {
      G.name = "spin";
      pieces = [];
      source;
      program = Isa.Asm.parse ~name:"spin" source;
      annot = Dataflow.Annot.empty;
      data_init = [];
    }
  in
  let r = O.check_group ~modes:O.all_modes [| spin; healthy |] in
  Alcotest.(check (list string))
    "one violation per contended mode"
    (List.map O.mode_name (List.filter (( <> ) O.Solo) O.all_modes))
    (List.map (fun (v : O.violation) -> O.mode_name v.O.v_mode)
       r.O.violations);
  List.iter
    (fun (v : O.violation) ->
      Alcotest.(check bool)
        (O.mode_name v.O.v_mode ^ ": analysis failed")
        true
        (Astring.String.is_prefix ~affix:"analysis failed: " v.O.reason
        && v.O.v_task = "spin+" ^ healthy.G.name
        && v.O.source = source))
    r.O.violations;
  Alcotest.(check int) "no checks" 0 (List.length r.O.checks)

let test_campaign_rejects_bad_inputs () =
  let raises f =
    match f () with
    | (_ : O.campaign) -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "count 0" true
    (raises (fun () -> O.run_campaign ~seed:1 ~count:0 ()));
  Alcotest.(check bool) "cores 5" true
    (raises (fun () -> O.run_campaign ~seed:1 ~count:4 ~cores:5 ()))

(* Exact work counts of one fixed campaign: simplex pivots, ILP nodes,
   worklist pops, transfers and cache fixpoint iterations.  With
   [~workers:1] the calling domain runs every job, so its per-domain
   counters see the whole campaign.  A change that moves a count on
   purpose updates it here, with the reason in CHANGES.md. *)
let test_campaign_work_counts () =
  let charged run =
    let read () =
      [
        Lp.Simplex.pivots ();
        Lp.Ilp.nodes_explored ();
        Dataflow.Worklist.pops ();
        Dataflow.Worklist.transfers ();
        Cache.Analysis.fixpoint_iterations ();
      ]
    in
    let before = read () in
    ignore (run () : O.campaign);
    List.map2 ( - ) (read ()) before
  in
  Alcotest.(check (list int))
    "seed 7: pivots, nodes, pops, transfers, cache iterations"
    [ 323; 180; 6158; 5886; 673 ]
    (charged (fun () ->
         O.run_campaign ~seed:7 ~count:8 ~cores:2 ~workers:1 ()));
  Alcotest.(check (list int))
    "seed 7 refined: pivots, nodes, pops, transfers, cache iterations"
    [ 522; 288; 6158; 5886; 673 ]
    (charged (fun () ->
         O.run_campaign ~refine:Refine.default ~seed:7 ~count:8 ~cores:2
           ~workers:1 ()))

let test_csv_shape () =
  let c = O.run_campaign ~seed:3 ~count:2 ~modes:[ O.Joint ] () in
  let csv = O.csv_of_report c.O.report in
  match String.split_on_char '\n' (String.trim csv) with
  | header :: rows ->
      Alcotest.(check string)
        "header"
        "mode,shape,task,core,bcet,observed,wcet,ratio,dominant_gap,unrefined"
        header;
      Alcotest.(check int) "one row per check"
        (List.length c.O.report.O.checks)
        (List.length rows)
  | [] -> Alcotest.fail "empty csv"

let () =
  Alcotest.run "fuzz"
    [
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generate_deterministic;
          Alcotest.test_case "names" `Quick test_generate_names;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_assemble_total;
            prop_solo_sandwich;
            prop_engines_bit_identical;
          ] );
      ( "campaign",
        [
          Alcotest.test_case "clean on healthy analyses" `Quick
            test_campaign_clean;
          Alcotest.test_case "worker-count independent" `Quick
            test_campaign_worker_independent;
          Alcotest.test_case "context engine equals fresh" `Quick
            test_campaign_engines_identical;
          Alcotest.test_case "rejects bad inputs" `Quick
            test_campaign_rejects_bad_inputs;
          Alcotest.test_case "front-end failure fails each mode" `Quick
            test_group_front_end_failure;
          Alcotest.test_case "csv shape" `Quick test_csv_shape;
          Alcotest.test_case "work counts pinned" `Quick
            test_campaign_work_counts;
        ] );
    ]
