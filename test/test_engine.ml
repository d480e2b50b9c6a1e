(* Tests for the parallel analysis engine: the LRU result cache, the
   domain worker pool, structural fingerprints, the memoizing analysis
   front-end, and phase telemetry.  The load-bearing property is at the
   bottom: N-worker parallel analysis of the full workload suite is
   outcome-identical to the sequential path, memoized or not. *)

module B = Workloads.Bench_programs

let l2_default = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16

(* ------------------------------------------------------------------ *)
(* LRU: unit behaviour                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_basic () =
  let c = Engine.Lru.create ~capacity:3 () in
  Alcotest.(check (option int)) "miss on empty" None (Engine.Lru.find c "a");
  Engine.Lru.put c "a" 1;
  Engine.Lru.put c "b" 2;
  Alcotest.(check (option int)) "hit after put" (Some 1) (Engine.Lru.find c "a");
  Alcotest.(check int) "length" 2 (Engine.Lru.length c);
  Engine.Lru.put c "a" 10;
  Alcotest.(check (option int)) "replace" (Some 10) (Engine.Lru.find c "a");
  Alcotest.(check int) "replace keeps length" 2 (Engine.Lru.length c)

let test_lru_eviction_order () =
  let c = Engine.Lru.create ~capacity:3 () in
  Engine.Lru.put c "a" 1;
  Engine.Lru.put c "b" 2;
  Engine.Lru.put c "c" 3;
  (* Touch [a]: now [b] is least recent. *)
  ignore (Engine.Lru.find c "a");
  Engine.Lru.put c "d" 4;
  Alcotest.(check bool) "b evicted" false (Engine.Lru.mem c "b");
  Alcotest.(check bool) "a survives (recently used)" true (Engine.Lru.mem c "a");
  Alcotest.(check bool) "c survives" true (Engine.Lru.mem c "c");
  Alcotest.(check bool) "d present" true (Engine.Lru.mem c "d");
  let s = Engine.Lru.stats c in
  Alcotest.(check int) "one eviction" 1 s.Engine.Lru.evictions;
  Alcotest.(check int) "four insertions" 4 s.Engine.Lru.insertions

let test_lru_capacity_one_and_invalid () =
  let c = Engine.Lru.create ~capacity:1 () in
  Engine.Lru.put c 1 "x";
  Engine.Lru.put c 2 "y";
  Alcotest.(check int) "capacity 1 holds 1" 1 (Engine.Lru.length c);
  Alcotest.(check (option string)) "newest wins" (Some "y")
    (Engine.Lru.find c 2);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Lru.create: capacity must be >= 1") (fun () ->
      ignore (Engine.Lru.create ~capacity:0 ()))

(* ------------------------------------------------------------------ *)
(* LRU: model-based QCheck properties                                  *)
(* ------------------------------------------------------------------ *)

(* Ops over a small key space: [Some v] = put, [None] = find.  The
   reference model is an assoc list kept in most-recent-first order. *)
let arb_ops =
  QCheck.(list (pair (int_bound 9) (option (int_bound 99))))

let model_find k m =
  match List.assoc_opt k m with
  | Some v -> (Some v, (k, v) :: List.remove_assoc k m)
  | None -> (None, m)

let model_put cap k v m =
  if List.mem_assoc k m then (k, v) :: List.remove_assoc k m
  else
    let m =
      if List.length m >= cap then
        match List.rev m with
        | (lru, _) :: _ -> List.remove_assoc lru m
        | [] -> m
      else m
    in
    (k, v) :: m

let run_ops cap ops =
  let c = Engine.Lru.create ~capacity:cap () in
  let agree = ref true in
  let model =
    List.fold_left
      (fun m (k, op) ->
        match op with
        | Some v ->
            Engine.Lru.put c k v;
            model_put cap k v m
        | None ->
            let expected, m = model_find k m in
            if Engine.Lru.find c k <> expected then agree := false;
            m)
      [] ops
  in
  (c, model, !agree)

let prop_lru_matches_model =
  QCheck.Test.make ~name:"LRU agrees with reference model" ~count:300
    QCheck.(pair (int_range 1 5) arb_ops)
    (fun (cap, ops) ->
      let c, model, agree = run_ops cap ops in
      agree
      && Engine.Lru.length c = List.length model
      && List.for_all (fun (k, v) -> Engine.Lru.find c k = Some v) model)

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~name:"LRU never exceeds capacity" ~count:300
    QCheck.(pair (int_range 1 4) arb_ops)
    (fun (cap, ops) ->
      let c, _, _ = run_ops cap ops in
      let s = Engine.Lru.stats c in
      Engine.Lru.length c <= cap
      && s.Engine.Lru.size = Engine.Lru.length c
      && s.Engine.Lru.size = s.Engine.Lru.insertions - s.Engine.Lru.evictions)

let prop_lru_hit_after_put =
  QCheck.Test.make ~name:"put k v; find k = Some v" ~count:300
    QCheck.(triple (int_range 1 5) arb_ops (pair (int_bound 9) (int_bound 99)))
    (fun (cap, ops, (k, v)) ->
      let c, _, _ = run_ops cap ops in
      Engine.Lru.put c k v;
      Engine.Lru.find c k = Some v)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)
(* ------------------------------------------------------------------ *)

let outcome_int =
  Alcotest.testable
    (fun ppf (o : int Engine.Pool.outcome) ->
      match o with
      | Engine.Pool.Done v -> Format.fprintf ppf "Done %d" v
      | Engine.Pool.Failed { label; error } ->
          Format.fprintf ppf "Failed(%s: %s)" label error
      | Engine.Pool.Timed_out { label; _ } ->
          Format.fprintf ppf "Timed_out(%s)" label)
    (fun a b ->
      match (a, b) with
      | Engine.Pool.Done x, Engine.Pool.Done y -> x = y
      | Engine.Pool.Failed a, Engine.Pool.Failed b -> a.label = b.label
      | Engine.Pool.Timed_out a, Engine.Pool.Timed_out b -> a.label = b.label
      | _ -> false)

let test_pool_deterministic_order () =
  (* Uneven job durations: results must still come back in job order,
     identically for 1 worker (inline) and 4 workers (domains). *)
  let jobs () =
    List.init 40 (fun i ->
        Engine.Pool.job ~label:(string_of_int i) (fun _ ->
            let acc = ref 0 in
            for j = 0 to (i mod 7) * 1000 do
              acc := (!acc + j) mod 9973
            done;
            (i * i) + (!acc * 0)))
  in
  let seq = Engine.Pool.run ~workers:1 (jobs ()) in
  let par = Engine.Pool.run ~workers:4 (jobs ()) in
  Alcotest.(check (list outcome_int)) "1 worker = 4 workers" seq par;
  Alcotest.(check (list outcome_int))
    "job order preserved"
    (List.init 40 (fun i -> Engine.Pool.Done (i * i)))
    par

let test_pool_exception_isolation () =
  let jobs =
    [
      Engine.Pool.job ~label:"ok1" (fun _ -> 1);
      Engine.Pool.job ~label:"boom" (fun _ -> failwith "exploded");
      Engine.Pool.job ~label:"ok2" (fun _ -> 2);
    ]
  in
  match Engine.Pool.run ~workers:4 jobs with
  | [ Engine.Pool.Done 1; Engine.Pool.Failed { label; error }; Engine.Pool.Done 2 ]
    ->
      Alcotest.(check string) "label" "boom" label;
      Alcotest.(check bool) "error text" true
        (Astring.String.is_infix ~affix:"exploded" error)
  | _ -> Alcotest.fail "crash killed the pool or reordered results"

let test_pool_timeout () =
  let spin ctx =
    while true do
      Engine.Pool.check ctx
    done
  in
  let jobs =
    [
      Engine.Pool.job ~label:"spinner" (fun ctx -> spin ctx; 0);
      Engine.Pool.job ~label:"quick" (fun _ -> 7);
    ]
  in
  (match Engine.Pool.run ~workers:2 ~timeout_ns:2_000_000L jobs with
  | [ Engine.Pool.Timed_out { label; after_ns }; Engine.Pool.Done 7 ] ->
      Alcotest.(check string) "label" "spinner" label;
      Alcotest.(check bool) "deadline respected" true (after_ns >= 2_000_000L)
  | _ -> Alcotest.fail "expected [Timed_out; Done 7]");
  (* Jobs that finish within the budget are untouched by it. *)
  match
    Engine.Pool.run ~workers:1 ~timeout_ns:1_000_000_000L
      [ Engine.Pool.job (fun ctx -> Engine.Pool.check ctx; 42) ]
  with
  | [ Engine.Pool.Done 42 ] -> ()
  | _ -> Alcotest.fail "in-budget job should complete"

let test_pool_caller_is_worker_0 () =
  (* Each job records its domain, then waits until both jobs have
     started, so no domain can run both.  Two workers are the caller and
     one spawned domain: the caller must run one of the jobs. *)
  let started = Atomic.make 0 in
  let deadline = Int64.add (Engine.Telemetry.now_ns ()) 5_000_000_000L in
  let job =
    Engine.Pool.job (fun _ ->
        let self = (Domain.self () :> int) in
        Atomic.incr started;
        while
          Atomic.get started < 2
          && Int64.compare (Engine.Telemetry.now_ns ()) deadline < 0
        do
          Domain.cpu_relax ()
        done;
        if Atomic.get started < 2 then None else Some self)
  in
  let caller = (Domain.self () :> int) in
  match Engine.Pool.run ~workers:2 [ job; job ] with
  | [ Engine.Pool.Done (Some a); Engine.Pool.Done (Some b) ] ->
      Alcotest.(check bool) "two domains" true (a <> b);
      Alcotest.(check bool) "caller ran a job" true (a = caller || b = caller)
  | _ -> Alcotest.fail "the two jobs did not run side by side within 5 s"

(* ------------------------------------------------------------------ *)
(* Fingerprints                                                        *)
(* ------------------------------------------------------------------ *)

let test_fingerprint_injective_encoding () =
  Alcotest.(check bool) "ab|c <> a|bc" false
    (Engine.Fingerprint.of_strings [ "ab"; "c" ]
    = Engine.Fingerprint.of_strings [ "a"; "bc" ]);
  Alcotest.(check bool) "[] <> [\"\"]" false
    (Engine.Fingerprint.of_strings []
    = Engine.Fingerprint.of_strings [ "" ]);
  Alcotest.(check string) "deterministic"
    (Engine.Fingerprint.of_strings [ "x"; "y" ])
    (Engine.Fingerprint.of_strings [ "x"; "y" ])

let test_platform_fingerprint_modes () =
  let pure p =
    match Core.Platform.fingerprint p with
    | Some (`Pure s) -> s
    | Some (`Needs_salt _) -> Alcotest.fail "expected Pure, got Needs_salt"
    | None -> Alcotest.fail "expected Pure, got None"
  in
  let base = pure (Core.Platform.single_core ()) in
  let with_l2 = pure (Core.Platform.single_core ~l2:l2_default ()) in
  Alcotest.(check bool) "l2 changes the fingerprint" false (base = with_l2);
  (* Shared L2 carries a bypass closure: cacheable only with a salt. *)
  (match
     Core.Platform.fingerprint
       {
         (Core.Platform.single_core ()) with
         Core.Platform.l2 =
           Core.Platform.Shared_l2
             {
               config = l2_default;
               conflicts = Cache.Shared.no_conflicts l2_default;
               bypass = (fun _ -> false);
             };
       }
   with
  | Some (`Needs_salt _) -> ()
  | _ -> Alcotest.fail "shared L2 must demand a salt");
  (* FCFS admits no per-core bound: nothing to fingerprint. *)
  match
    Core.Platform.fingerprint
      {
        (Core.Platform.single_core ()) with
        Core.Platform.arbiter = Interconnect.Arbiter.Fcfs { cores = 2 };
      }
  with
  | None -> ()
  | Some _ -> Alcotest.fail "FCFS platform must be uncacheable"

(* ------------------------------------------------------------------ *)
(* Memo                                                                *)
(* ------------------------------------------------------------------ *)

let check_wcet_equal name (a : Core.Wcet.t) (b : Core.Wcet.t) =
  Alcotest.(check int) (name ^ " wcet") a.Core.Wcet.wcet b.Core.Wcet.wcet;
  Alcotest.(check (list (pair string int)))
    (name ^ " per-proc wcets")
    (List.map (fun (n, (p : Core.Wcet.proc_result)) -> (n, p.Core.Wcet.wcet))
       a.Core.Wcet.procs)
    (List.map (fun (n, (p : Core.Wcet.proc_result)) -> (n, p.Core.Wcet.wcet))
       b.Core.Wcet.procs)

let test_memo_identity_and_hits () =
  let memo = Core.Memo.create ~capacity:64 () in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  List.iter
    (fun (b : B.t) ->
      let direct = Core.Wcet.analyze ~annot:b.B.annot platform b.B.program in
      let m1 = Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program in
      check_wcet_equal (b.B.name ^ " miss") direct m1;
      let hits0 = (Core.Memo.stats memo).Engine.Lru.hits in
      let m2 = Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program in
      check_wcet_equal (b.B.name ^ " hit") direct m2;
      Alcotest.(check int)
        (b.B.name ^ " second call hits")
        (hits0 + 1)
        (Core.Memo.stats memo).Engine.Lru.hits)
    (B.suite ())

let test_memo_bcet_and_discrimination () =
  let memo = Core.Memo.create ~capacity:64 () in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let b = B.crc ~n:8 in
  (* WCET and BCET of the same point must not collide in the cache. *)
  let w = Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program in
  let bc = Core.Memo.bcet memo ~annot:b.B.annot platform b.B.program in
  let direct = Core.Bcet.analyze ~annot:b.B.annot platform b.B.program in
  Alcotest.(check int) "bcet = direct" direct.Core.Bcet.bcet bc.Core.Bcet.bcet;
  Alcotest.(check bool) "bcet <= wcet" true
    (bc.Core.Bcet.bcet <= w.Core.Wcet.wcet);
  let bc2 = Core.Memo.bcet memo ~annot:b.B.annot platform b.B.program in
  Alcotest.(check int) "bcet cached" bc.Core.Bcet.bcet bc2.Core.Bcet.bcet

let test_memo_distinguishes_inputs () =
  let memo = Core.Memo.create ~capacity:64 () in
  let b = B.assoc_stress ~ways:4 ~reps:12 in
  let p1 = Core.Platform.single_core () in
  let p2 = Core.Platform.single_core ~l2:l2_default () in
  let w1 = Core.Memo.wcet memo ~annot:b.B.annot p1 b.B.program in
  let w2 = Core.Memo.wcet memo ~annot:b.B.annot p2 b.B.program in
  check_wcet_equal "platform discriminates"
    (Core.Wcet.analyze ~annot:b.B.annot p2 b.B.program)
    w2;
  Alcotest.(check bool) "different platforms, different entries" true
    ((Core.Memo.stats memo).Engine.Lru.insertions >= 2);
  ignore w1

let wcets_testable = Alcotest.(array (option int))

let test_memo_multicore_salts () =
  (* Every Multicore mode must produce identical WCET vectors with and
     without the memo — including the closure-bearing (salted) L2 modes —
     and again when fully served from the cache. *)
  let tasks = [| B.crc ~n:4; B.vector_sum ~n:16 |] in
  let sys =
    Core.Multicore.default_system ~cores:2
      ~tasks:(Array.map (fun (b : B.t) -> Some (b.B.program, b.B.annot)) tasks)
  in
  let memo = Core.Memo.create ~capacity:128 () in
  let modes =
    [
      ("oblivious", fun memo -> Core.Multicore.analyze_oblivious ?memo sys);
      ("joint", fun memo -> Core.Multicore.analyze_joint ?memo sys ());
      ( "joint+bypass",
        fun memo -> Core.Multicore.analyze_joint ?memo sys ~bypass:true () );
      ( "partitioned",
        fun memo ->
          Core.Multicore.analyze_partitioned ?memo sys
            ~scheme:Cache.Partition.Bankization );
      ("locked", fun memo -> Core.Multicore.analyze_locked ?memo sys);
      ( "locked-dyn",
        fun memo -> Core.Multicore.analyze_locked_dynamic ?memo sys );
    ]
  in
  List.iter
    (fun (name, analyze) ->
      let direct = Core.Multicore.wcets (analyze None) in
      let memoized = Core.Multicore.wcets (analyze (Some memo)) in
      let cached = Core.Multicore.wcets (analyze (Some memo)) in
      Alcotest.check wcets_testable (name ^ ": memo = direct") direct memoized;
      Alcotest.check wcets_testable (name ^ ": cached = direct") direct cached)
    modes;
  Alcotest.(check bool) "the salted modes did hit the cache" true
    ((Core.Memo.stats memo).Engine.Lru.hits > 0)

(* ------------------------------------------------------------------ *)
(* Parallel == sequential over the full workload suite                 *)
(* ------------------------------------------------------------------ *)

let suite_jobs () =
  let platforms =
    [
      ("bare", Core.Platform.single_core ());
      ("l2", Core.Platform.single_core ~l2:l2_default ());
    ]
  in
  List.concat_map
    (fun (pname, platform) ->
      List.map
        (fun (b : B.t) ->
          Engine.Pool.job
            ~label:(b.B.name ^ "@" ^ pname)
            (fun _ ->
              (Core.Wcet.analyze ~annot:b.B.annot platform b.B.program)
                .Core.Wcet.wcet))
        (B.suite ()))
    platforms

let test_parallel_equals_sequential () =
  let seq = Engine.Pool.run ~workers:1 (suite_jobs ()) in
  let par = Engine.Pool.run ~workers:4 (suite_jobs ()) in
  Alcotest.(check (list outcome_int)) "full suite: 1 = 4 workers" seq par

let test_parallel_memoized_equals_sequential_direct () =
  (* Workers sharing one memo must agree with the raw sequential path:
     cache hits may replace analyses arbitrarily, results may not move. *)
  let memo = Core.Memo.create ~capacity:256 () in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let memo_jobs =
    List.concat_map
      (fun (b : B.t) ->
        List.init 2 (fun _ ->
            Engine.Pool.job ~label:b.B.name (fun _ ->
                (Core.Memo.wcet memo ~annot:b.B.annot platform b.B.program)
                  .Core.Wcet.wcet)))
      (B.suite ())
  in
  let expected =
    List.concat_map
      (fun (b : B.t) ->
        List.init 2 (fun _ ->
            Engine.Pool.Done
              (Core.Wcet.analyze ~annot:b.B.annot platform b.B.program)
                .Core.Wcet.wcet))
      (B.suite ())
  in
  let par = Engine.Pool.run ~workers:4 memo_jobs in
  Alcotest.(check (list outcome_int)) "memoized parallel = direct" expected par

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_phases_and_counters () =
  let t = Engine.Telemetry.create () in
  let b = B.crc ~n:8 in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let _ = Core.Wcet.analyze ~annot:b.B.annot ~telemetry:t platform b.B.program in
  let phase_names =
    List.map (fun (p : Engine.Telemetry.phase) -> p.Engine.Telemetry.phase)
      (Engine.Telemetry.phases t)
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) ("phase " ^ expected) true
        (List.mem expected phase_names))
    [ "cfg-build"; "value-analysis"; "cache-analysis"; "ipet-solve" ];
  let counter name =
    match List.assoc_opt name (Engine.Telemetry.counters t) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check bool) "simplex pivots counted" true
    (counter "simplex-pivots" > 0);
  Alcotest.(check bool) "cache fixpoint iterations counted" true
    (counter "cache-fixpoint-iters" > 0);
  Alcotest.(check bool) "procedures counted" true (counter "procedures" > 0);
  Alcotest.(check bool) "time accumulated" true
    (Engine.Telemetry.total_ns t > 0L);
  Alcotest.(check bool) "render non-empty" true
    (Engine.Telemetry.render t <> "");
  (* CSV: header + one row per phase + one per counter. *)
  let csv_lines =
    String.split_on_char '\n' (String.trim (Engine.Telemetry.to_csv t))
  in
  Alcotest.(check int) "csv row count"
    (1
    + List.length (Engine.Telemetry.phases t)
    + List.length (Engine.Telemetry.counters t))
    (List.length csv_lines)

let test_telemetry_span_on_exception () =
  let t = Engine.Telemetry.create () in
  (try Engine.Telemetry.span t "fails" (fun () -> failwith "x")
   with Failure _ -> ());
  match Engine.Telemetry.phases t with
  | [ { Engine.Telemetry.phase = "fails"; calls = 1; _ } ] -> ()
  | _ -> Alcotest.fail "span must record the phase even when f raises"

let test_telemetry_unmetered_analysis_unchanged () =
  (* ?telemetry must be a pure observer. *)
  let b = B.assoc_stress ~ways:4 ~reps:12 in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  let t = Engine.Telemetry.create () in
  check_wcet_equal "telemetry observer"
    (Core.Wcet.analyze ~annot:b.B.annot platform b.B.program)
    (Core.Wcet.analyze ~annot:b.B.annot ~telemetry:t platform b.B.program)

let test_telemetry_totals_equal_span_sums () =
  (* The shim reads each phase's clock once and feeds the same
     timestamps to both the emitted Begin/End events and its aggregate,
     so the reported totals must equal the span-derived sums exactly. *)
  let sink = Obs.Sink.create () in
  let t = Engine.Telemetry.create () in
  let b = B.crc ~n:8 in
  let platform = Core.Platform.single_core ~l2:l2_default () in
  Obs.with_sink sink (fun () ->
      ignore
        (Core.Wcet.analyze ~annot:b.B.annot ~telemetry:t platform b.B.program));
  let sums = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      let stack = ref [] in
      List.iter
        (fun (e : Obs.Event.t) ->
          match e.Obs.Event.kind with
          | Obs.Event.Begin { name; cat; _ } ->
              stack := (name, cat, e.Obs.Event.ts) :: !stack
          | Obs.Event.End -> (
              match !stack with
              | (name, cat, t0) :: rest ->
                  stack := rest;
                  if cat = "phase" then begin
                    let d = Int64.to_int (Int64.sub e.Obs.Event.ts t0) in
                    let total, calls =
                      Option.value ~default:(0, 0) (Hashtbl.find_opt sums name)
                    in
                    Hashtbl.replace sums name (total + d, calls + 1)
                  end
              | [] -> ())
          | Obs.Event.Instant _ | Obs.Event.Counter _ -> ())
        (Obs.Sink.events tr))
    (Obs.Sink.tracks sink);
  let phases = Engine.Telemetry.phases t in
  Alcotest.(check bool) "phases recorded" true (phases <> []);
  List.iter
    (fun (p : Engine.Telemetry.phase) ->
      match Hashtbl.find_opt sums p.Engine.Telemetry.phase with
      | None ->
          Alcotest.fail ("phase missing from trace: " ^ p.Engine.Telemetry.phase)
      | Some (total, calls) ->
          Alcotest.(check int)
            (p.Engine.Telemetry.phase ^ " calls")
            calls p.Engine.Telemetry.calls;
          Alcotest.(check int64)
            (p.Engine.Telemetry.phase ^ " total")
            (Int64.of_int total) p.Engine.Telemetry.total_ns)
    phases

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine"
    [
      ( "lru",
        [
          Alcotest.test_case "basic put/find/replace" `Quick test_lru_basic;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "capacity edge cases" `Quick
            test_lru_capacity_one_and_invalid;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [
              prop_lru_matches_model;
              prop_lru_never_exceeds_capacity;
              prop_lru_hit_after_put;
            ] );
      ( "pool",
        [
          Alcotest.test_case "deterministic order, 1 = 4 workers" `Quick
            test_pool_deterministic_order;
          Alcotest.test_case "exception isolation" `Quick
            test_pool_exception_isolation;
          Alcotest.test_case "cooperative timeout" `Quick test_pool_timeout;
          Alcotest.test_case "caller is worker 0" `Quick
            test_pool_caller_is_worker_0;
        ] );
      ( "fingerprint",
        [
          Alcotest.test_case "injective encoding" `Quick
            test_fingerprint_injective_encoding;
          Alcotest.test_case "platform modes" `Quick
            test_platform_fingerprint_modes;
        ] );
      ( "memo",
        [
          Alcotest.test_case "identity + hit counting (full suite)" `Quick
            test_memo_identity_and_hits;
          Alcotest.test_case "bcet memoized, wcet/bcet discriminated" `Quick
            test_memo_bcet_and_discrimination;
          Alcotest.test_case "distinguishes platforms" `Quick
            test_memo_distinguishes_inputs;
          Alcotest.test_case "multicore modes with salts" `Quick
            test_memo_multicore_salts;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "suite: parallel = sequential" `Quick
            test_parallel_equals_sequential;
          Alcotest.test_case "suite: memoized parallel = direct" `Quick
            test_parallel_memoized_equals_sequential_direct;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "phases and counters" `Quick
            test_telemetry_phases_and_counters;
          Alcotest.test_case "span survives exceptions" `Quick
            test_telemetry_span_on_exception;
          Alcotest.test_case "pure observer" `Quick
            test_telemetry_unmetered_analysis_unchanged;
          Alcotest.test_case "shim totals equal span sums" `Quick
            test_telemetry_totals_equal_span_sums;
        ] );
    ]
