(* Edge cases for the shared result cache (Core.Memo): salt
   discrimination between L2 locking/bypass flavours, stats under
   concurrent cache hits, and the guarantee that a poisoned (raising)
   analysis is never cached. *)

let parse src = Isa.Asm.parse ~name:"m" src

let task_src =
  "main:\n\
  \  li r1, 24\n\
   loop:\n\
  \  subi r1, r1, 1\n\
  \  ld.d r2, 0(r1)\n\
  \  bne r1, r0, loop\n\
  \  halt\n"

let mk_system cores =
  let task = parse task_src in
  Core.Multicore.default_system ~cores
    ~tasks:(Array.init cores (fun _ -> Some (task, Dataflow.Annot.empty)))

let check_wcets label expected actual =
  Alcotest.(check (array (option int)))
    label
    (Core.Multicore.wcets expected)
    (Core.Multicore.wcets actual)

(* Static and dynamic locking run different analyses over the same
   (program, platform fingerprint) points; only the salt tells their
   cache entries apart.  A salt collision would hand one flavour the
   other's cached results, so memoized runs must stay bit-identical to
   direct ones even when both flavours share one memo. *)
let test_salt_distinguishes_locking_flavours () =
  let sys = mk_system 2 in
  let memo = Core.Memo.create () in
  let static_memoized = Core.Multicore.analyze_locked ~memo sys in
  let dynamic_memoized = Core.Multicore.analyze_locked_dynamic ~memo sys in
  check_wcets "static memoized = direct"
    (Core.Multicore.analyze_locked sys)
    static_memoized;
  check_wcets "dynamic memoized = direct"
    (Core.Multicore.analyze_locked_dynamic sys)
    dynamic_memoized;
  let st = Core.Memo.stats memo in
  Alcotest.(check bool) "cache exercised" true (st.Engine.Lru.insertions > 0)

let test_salt_distinguishes_bypass () =
  let sys = mk_system 2 in
  let memo = Core.Memo.create () in
  let plain_memoized = Core.Multicore.analyze_joint ~memo sys () in
  let bypass_memoized = Core.Multicore.analyze_joint ~memo sys ~bypass:true () in
  check_wcets "joint memoized = direct"
    (Core.Multicore.analyze_joint sys ())
    plain_memoized;
  check_wcets "bypassed memoized = direct"
    (Core.Multicore.analyze_joint sys ~bypass:true ())
    bypass_memoized

(* One warm-up insertion, then 16 concurrent lookups from pool workers:
   every job sees exactly one local hit, the shared counters add up, and
   nothing is re-inserted. *)
let test_stats_survive_concurrent_hits () =
  let program = parse task_src in
  let platform = Core.Platform.single_core () in
  let memo = Core.Memo.create () in
  let warm = Core.Memo.wcet memo platform program in
  let jobs =
    List.init 16 (fun i ->
        Engine.Pool.job
          ~label:(Printf.sprintf "hit-%d" i)
          (fun _ctx ->
            let h0, l0 = Core.Memo.local_stats () in
            let w = Core.Memo.wcet memo platform program in
            let h1, l1 = Core.Memo.local_stats () in
            (w.Core.Wcet.wcet, h1 - h0, l1 - l0)))
  in
  let outcomes = Engine.Pool.run ~workers:4 jobs in
  List.iter
    (function
      | Engine.Pool.Done (w, h, l) ->
          Alcotest.(check int) "same wcet" warm.Core.Wcet.wcet w;
          Alcotest.(check int) "one local hit" 1 h;
          Alcotest.(check int) "one local lookup" 1 l
      | Engine.Pool.Failed { error; _ } -> Alcotest.fail error
      | Engine.Pool.Timed_out _ -> Alcotest.fail "unexpected timeout")
    outcomes;
  let st = Core.Memo.stats memo in
  Alcotest.(check bool) "shared hits cover all jobs" true
    (st.Engine.Lru.hits >= 16);
  Alcotest.(check int) "single insertion" 1 st.Engine.Lru.insertions

(* An analysis that raises must never leave a cache entry behind: the
   exception propagates on every call and later healthy analyses on the
   same memo still cache normally. *)
let test_poisoned_analysis_never_cached () =
  (* an I/O-polling loop with no annotation has no inferable bound *)
  let poisoned =
    parse "main:\nspin:\n  ld.io r1, 0(r0)\n  bne r1, r0, spin\n  halt\n"
  in
  let memo = Core.Memo.create () in
  let platform = Core.Platform.single_core () in
  let expect_raise label =
    match Core.Memo.wcet memo platform poisoned with
    | (_ : Core.Wcet.t) -> Alcotest.fail (label ^ ": expected Not_analysable")
    | exception Core.Wcet.Not_analysable _ -> ()
  in
  expect_raise "first call";
  expect_raise "second call";
  let st = Core.Memo.stats memo in
  Alcotest.(check int) "no insertions" 0 st.Engine.Lru.insertions;
  Alcotest.(check int) "no hits" 0 st.Engine.Lru.hits;
  let healthy = parse task_src in
  let a = Core.Memo.wcet memo platform healthy in
  let b = Core.Memo.wcet memo platform healthy in
  Alcotest.(check int) "healthy result stable" a.Core.Wcet.wcet b.Core.Wcet.wcet;
  let st = Core.Memo.stats memo in
  Alcotest.(check int) "healthy result cached once" 1 st.Engine.Lru.insertions;
  Alcotest.(check bool) "healthy second call hits" true (st.Engine.Lru.hits >= 1)

(* Program fingerprints are remembered per domain by physical identity
   (the last few programs).  Evicted programs must re-render to the same
   digest, equal programs built apart must share it, and a program
   differing in one instruction must not. *)
let counted n =
  parse
    (Printf.sprintf
       "main:\n\
       \  li r1, %d\n\
        loop:\n\
       \  subi r1, r1, 1\n\
       \  bne r1, r0, loop\n\
       \  halt\n"
       (n + 1))

let solo_key program =
  Core.Memo.key ~kind:"wcet" ~annot:Dataflow.Annot.empty ~salt:None
    (Core.Platform.single_core ()) program

let test_fingerprint_table_round_robin () =
  let programs = Array.init 10 counted in
  let first = Array.map solo_key programs in
  Alcotest.(check int) "ten distinct keys" 10
    (List.length (List.sort_uniq compare (Array.to_list first)));
  for _round = 1 to 2 do
    Array.iteri
      (fun i p ->
        Alcotest.(check (option string))
          (Printf.sprintf "program %d keeps its key" i)
          first.(i) (solo_key p))
      programs
  done

let test_fingerprint_by_value () =
  let a = parse task_src and b = parse task_src in
  Alcotest.(check bool) "built apart" false (a == b);
  Alcotest.(check string) "equal programs, equal fingerprints"
    (Core.Memo.program_fingerprint a)
    (Core.Memo.program_fingerprint b);
  Alcotest.(check (option string)) "equal programs, equal keys"
    (solo_key a) (solo_key b);
  Alcotest.(check bool) "one instruction apart, different keys" false
    (solo_key (counted 3) = solo_key (counted 4))

(* Store keys are persisted: an existing store stays warm only while
   they are byte-identical.  One key per keying path, pinned. *)
let test_catalog_store_key_pinned () =
  let b = Option.get (Workloads.Bench_programs.by_name "crc") in
  let key mode =
    Server_lib.Modes.store_key ~mode ~cores:2 ~kind:Server_lib.Modes.Wcet
      b.Workloads.Bench_programs.annot b.Workloads.Bench_programs.program
  in
  for _pass = 1 to 2 do
    Alcotest.(check string) "crc solo key" "cacaf035c54405e183584ca1587cf752"
      (key Core.Mode.Solo);
    Alcotest.(check string) "crc joint key"
      "51638d97ba86b64ea22e5ffbcfcf2ed6" (key Core.Mode.Joint)
  done

let () =
  Alcotest.run "memo"
    [
      ( "salting",
        [
          Alcotest.test_case "locking flavours" `Quick
            test_salt_distinguishes_locking_flavours;
          Alcotest.test_case "bypass vs plain joint" `Quick
            test_salt_distinguishes_bypass;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "stats survive concurrent hits" `Quick
            test_stats_survive_concurrent_hits;
        ] );
      ( "poisoning",
        [
          Alcotest.test_case "raising analysis never cached" `Quick
            test_poisoned_analysis_never_cached;
        ] );
      ( "fingerprints",
        [
          Alcotest.test_case "keys survive table eviction" `Quick
            test_fingerprint_table_round_robin;
          Alcotest.test_case "keys follow the program, not its identity"
            `Quick test_fingerprint_by_value;
          Alcotest.test_case "catalog store key pinned" `Quick
            test_catalog_store_key_pinned;
        ] );
    ]
