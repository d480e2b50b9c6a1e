(* Tests for the cycle-level simulator: exact single-core timing, bus
   arbitration bounds, interference monotonicity, SMT isolation. *)

let lat = Pipeline.Latencies.default

let small_l1 = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:4
let line16_l1 = Cache.Config.make ~sets:4 ~assoc:2 ~line_size:16
let l2_cfg = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16

let base_config ?(l2 = Sim.Machine.No_l2) ?(arbiter = Interconnect.Arbiter.Private)
    ?(l1i = line16_l1) () =
  {
    Sim.Machine.latencies = lat;
    l1i;
    l1d = line16_l1;
    l2;
    arbiter;
    refresh = Interconnect.Arbiter.Burst;
    i_path = Sim.Machine.Conventional;
  }

let parse src = Isa.Asm.parse ~name:"t" src

let test_exact_cycles_straightline () =
  (* nop; halt with 16B lines: both instrs on line 0.
     nop: fetch miss = 1 (l1) + 50 (mem, no L2) , exec 1;
     halt: fetch hit 1, exec 1.  Total 54. *)
  let p = parse "main:\n  nop\n  halt\n" in
  let r = Sim.Machine.run_single (base_config ()) p () in
  Alcotest.(check bool) "halted" true r.Sim.Machine.halted;
  Alcotest.(check int) "cycles" 54 r.Sim.Machine.cycles;
  Alcotest.(check int) "instructions" 2 r.Sim.Machine.instructions;
  Alcotest.(check int) "one i-miss" 1 r.Sim.Machine.l1i_misses;
  Alcotest.(check int) "one i-hit" 1 r.Sim.Machine.l1i_hits

(* An out-of-range data index faults as the semantics would, in both
   interpreters, alone and on a contended machine (where the block
   interpreter probes a micro-op before planning it): a negative index
   must never reach the L1D model's set index. *)
let test_negative_data_address_faults () =
  (* 64 sets: the address's line maps to a negative set index *)
  let l1d = Cache.Config.make ~sets:64 ~assoc:2 ~line_size:16 in
  let alone = { (base_config ()) with Sim.Machine.l1d } in
  let contended =
    {
      (base_config ~l2:(Sim.Machine.Shared_l2 l2_cfg)
         ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 2 })
         ())
      with
      Sim.Machine.l1d;
    }
  in
  List.iter
    (fun (op, access) ->
      let p =
        parse
          (Printf.sprintf "main:\n  li r1, -300000\n  %s r2, 0(r1)\n  halt\n"
             op)
      in
      let fault =
        Isa.Exec.Fault (Printf.sprintf "%s d[-300000] out of range" access)
      in
      List.iter
        (fun (interp, name) ->
          Alcotest.check_raises (op ^ " alone, " ^ name) fault (fun () ->
              ignore (Sim.Machine.run_single ~interp alone p ()));
          Alcotest.check_raises (op ^ " contended, " ^ name) fault (fun () ->
              ignore
                (Sim.Machine.run ~interp contended
                   ~cores:[| Sim.Machine.task p; Sim.Machine.task p |]
                   ())))
        [ (`Block, "block"); (`Reference, "reference") ])
    [ ("ld.d", "load"); ("st.d", "store") ]

let test_exact_cycles_with_l2 () =
  (* Same program with an L2: the miss costs l2_hit + mem = 60. *)
  let p = parse "main:\n  nop\n  halt\n" in
  let r =
    Sim.Machine.run_single (base_config ~l2:(Sim.Machine.Shared_l2 l2_cfg) ()) p ()
  in
  Alcotest.(check int) "cycles" 64 r.Sim.Machine.cycles

let test_l2_hit_on_refetch () =
  (* Thrash L1 (2 sets, 1 way, line 4) with a loop: L2 keeps the lines. *)
  let src =
    "main:\n  li r1, 4\nloop:\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\n"
  in
  let p = parse src in
  let no_l2 =
    Sim.Machine.run_single (base_config ~l1i:small_l1 ()) p ()
  in
  let with_l2 =
    Sim.Machine.run_single
      (base_config ~l1i:small_l1 ~l2:(Sim.Machine.Shared_l2 l2_cfg) ())
      p ()
  in
  Alcotest.(check bool) "L2 helps thrashing code" true
    (with_l2.Sim.Machine.cycles < no_l2.Sim.Machine.cycles)

let test_sim_matches_exec_semantics () =
  let src =
    "main:\n  li r1, 10\n  li r2, 0\nloop:\n  add r2, r2, r1\n  subi r1, r1, 1\n  bne r1, r0, loop\n  halt\n"
  in
  let p = parse src in
  let r = Sim.Machine.run_single (base_config ()) p () in
  (match r.Sim.Machine.final_state with
  | Some st -> Alcotest.(check int) "r2 = 55" 55 st.Isa.Exec.regs.(2)
  | None -> Alcotest.fail "no final state");
  let ref_state = Isa.Exec.init p in
  let steps = Isa.Exec.run p ref_state in
  Alcotest.(check int) "instruction count matches reference" steps
    r.Sim.Machine.instructions

let test_determinism () =
  let p = parse "main:\n  li r1, 5\nl:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n" in
  let r1 = Sim.Machine.run_single (base_config ()) p () in
  let r2 = Sim.Machine.run_single (base_config ()) p () in
  Alcotest.(check int) "deterministic" r1.Sim.Machine.cycles r2.Sim.Machine.cycles

let test_input_injection () =
  let p = parse "main:\n  ld.d r1, 0(r0)\n  addi r2, r1, 1\n  halt\n" in
  let cfg = base_config ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 1 }) () in
  let setup = { (Sim.Machine.task p) with Sim.Machine.init_data = [ (0, 41) ] } in
  let r = (Sim.Machine.run cfg ~cores:[| setup |] ()).(0) in
  match r.Sim.Machine.final_state with
  | Some st -> Alcotest.(check int) "r2 = 42" 42 st.Isa.Exec.regs.(2)
  | None -> Alcotest.fail "no final state"

(* Memory-bound task: loads marching through data memory. *)
let memory_bound_src n =
  Printf.sprintf
    {|
main:
  li r1, %d
loop:
  subi r1, r1, 1
  sll r2, r1, r0
  ld.d r3, 0(r1)
  bne r1, r0, loop
  halt
|}
    n

let max_tx_latency cfg =
  let l = cfg.Sim.Machine.latencies in
  let mem_path =
    match cfg.Sim.Machine.l2 with
    | Sim.Machine.No_l2 -> l.Pipeline.Latencies.mem
    | Sim.Machine.Shared_l2 _ | Sim.Machine.Private_l2 _ ->
        l.Pipeline.Latencies.l2_hit + l.Pipeline.Latencies.mem
  in
  max mem_path l.Pipeline.Latencies.io

let test_rr_bus_wait_within_bound () =
  let cores = 4 in
  let arbiter = Interconnect.Arbiter.Round_robin { cores } in
  let cfg = base_config ~l1i:small_l1 ~arbiter () in
  let tasks =
    Array.init cores (fun _ -> Sim.Machine.task (parse (memory_bound_src 30)))
  in
  let results = Sim.Machine.run cfg ~cores:tasks () in
  let lmax = max_tx_latency cfg in
  Array.iteri
    (fun i r ->
      let bound =
        Interconnect.Arbiter.worst_wait arbiter ~core:i ~own_latency:lmax
          ~max_latency:lmax
      in
      Alcotest.(check bool)
        (Printf.sprintf "core %d wait %d <= bound %d" i
           r.Sim.Machine.max_bus_wait bound)
        true
        (r.Sim.Machine.max_bus_wait <= bound))
    results

let test_tdma_bus_wait_within_bound () =
  let cores = 4 in
  let cfg0 = base_config ~l1i:small_l1 () in
  let lmax = max_tx_latency cfg0 in
  let arbiter = Interconnect.Arbiter.Tdma { cores; slot = lmax } in
  let cfg = { cfg0 with Sim.Machine.arbiter } in
  let tasks =
    Array.init cores (fun _ -> Sim.Machine.task (parse (memory_bound_src 20)))
  in
  let results = Sim.Machine.run cfg ~cores:tasks () in
  Array.iteri
    (fun i r ->
      let bound =
        Interconnect.Arbiter.worst_wait arbiter ~core:i ~own_latency:lmax
          ~max_latency:lmax
      in
      Alcotest.(check bool)
        (Printf.sprintf "core %d wait %d <= bound %d" i
           r.Sim.Machine.max_bus_wait bound)
        true
        (r.Sim.Machine.max_bus_wait <= bound))
    results

let test_interference_slows_down () =
  (* A task alone vs. with three bus-hungry co-runners. *)
  let cores = 4 in
  let arbiter = Interconnect.Arbiter.Round_robin { cores } in
  let cfg = base_config ~l1i:small_l1 ~arbiter () in
  let victim = parse (memory_bound_src 20) in
  let alone =
    Sim.Machine.run cfg
      ~cores:
        (Array.init cores (fun i ->
             if i = 0 then Sim.Machine.task victim else Sim.Machine.idle))
      ()
  in
  let contended =
    Sim.Machine.run cfg
      ~cores:
        (Array.init cores (fun i ->
             if i = 0 then Sim.Machine.task victim
             else Sim.Machine.task (parse (memory_bound_src 40))))
      ()
  in
  Alcotest.(check bool) "contention slows the victim" true
    (contended.(0).Sim.Machine.cycles > alone.(0).Sim.Machine.cycles)

let test_shared_l2_interference () =
  (* Two tasks hammering the same data lines vs. disjoint: with a shared
     L2 the disjoint case can evict, the same-lines case helps; here we
     just check the shared-L2 machine runs and interference exists
     relative to private slices. *)
  let cores = 2 in
  let arbiter = Interconnect.Arbiter.Round_robin { cores } in
  let tiny_l2 = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:16 in
  let shared =
    base_config ~l1i:small_l1 ~l2:(Sim.Machine.Shared_l2 tiny_l2) ~arbiter ()
  in
  let private_ =
    base_config ~l1i:small_l1
      ~l2:(Sim.Machine.Private_l2 [| tiny_l2; tiny_l2 |])
      ~arbiter ()
  in
  let tasks =
    [| Sim.Machine.task (parse (memory_bound_src 30));
       Sim.Machine.task (parse (memory_bound_src 30)) |]
  in
  let rs = Sim.Machine.run shared ~cores:tasks () in
  let rp = Sim.Machine.run private_ ~cores:tasks () in
  Alcotest.(check bool) "all halted" true
    (Array.for_all (fun r -> r.Sim.Machine.halted) rs
    && Array.for_all (fun r -> r.Sim.Machine.halted) rp)

let test_locked_l2_lines () =
  let p = parse "main:\n  ld.d r1, 0(r0)\n  halt\n" in
  let tiny_l2 = Cache.Config.make ~sets:2 ~assoc:1 ~line_size:16 in
  let cfg =
    base_config ~l1i:small_l1 ~l2:(Sim.Machine.Shared_l2 tiny_l2)
      ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 1 })
      ()
  in
  let data_line =
    Cache.Config.line_of_addr tiny_l2 (Isa.Layout.byte_addr Isa.Instr.Data 0)
  in
  let unlocked = (Sim.Machine.run cfg ~cores:[| Sim.Machine.task p |] ()).(0) in
  let locked_setup =
    { (Sim.Machine.task p) with Sim.Machine.locked_l2_lines = [ data_line ] }
  in
  let locked = (Sim.Machine.run cfg ~cores:[| locked_setup |] ()).(0) in
  Alcotest.(check bool) "locking the data line saves cycles" true
    (locked.Sim.Machine.cycles < unlocked.Sim.Machine.cycles)

let test_refresh_adds_latency () =
  let p = parse (memory_bound_src 10) in
  let no_refresh = Sim.Machine.run_single (base_config ()) p () in
  let with_refresh =
    Sim.Machine.run_single
      {
        (base_config ()) with
        Sim.Machine.refresh =
          Interconnect.Arbiter.Distributed { interval = 64; duration = 12 };
      }
      p ()
  in
  Alcotest.(check bool) "refresh costs cycles" true
    (with_refresh.Sim.Machine.cycles > no_refresh.Sim.Machine.cycles)

(* ------------------------------------------------------------------ *)
(* Direct bus-arbitration semantics                                   *)
(* ------------------------------------------------------------------ *)

let drain bus core =
  let rec go guard =
    if guard = 0 then Alcotest.fail "bus never completed"
    else if Sim.Bus.pending bus ~core then begin
      Sim.Bus.step bus;
      go (guard - 1)
    end
  in
  go 10_000

let test_bus_private_immediate () =
  let bus = Sim.Bus.create Interconnect.Arbiter.Private in
  Sim.Bus.request bus ~core:0 ~latency:5;
  drain bus 0;
  Alcotest.(check int) "service = latency" 5 (Sim.Bus.now bus);
  Alcotest.(check int) "no wait" 0 (Sim.Bus.max_wait bus ~core:0)

let test_bus_rr_order () =
  let bus = Sim.Bus.create (Interconnect.Arbiter.Round_robin { cores = 3 }) in
  (* All three request simultaneously; grant order follows the round. *)
  Sim.Bus.request bus ~core:2 ~latency:4;
  Sim.Bus.request bus ~core:0 ~latency:4;
  Sim.Bus.request bus ~core:1 ~latency:4;
  let completion core =
    let rec go guard =
      if guard = 0 then Alcotest.fail "no completion"
      else if Sim.Bus.pending bus ~core then begin
        Sim.Bus.step bus;
        go (guard - 1)
      end
      else Sim.Bus.now bus
    in
    go 1000
  in
  let c0 = completion 0 in
  let c1 = completion 1 in
  let c2 = completion 2 in
  Alcotest.(check int) "core0 first" 4 c0;
  Alcotest.(check int) "core1 second" 8 c1;
  Alcotest.(check int) "core2 third" 12 c2;
  Alcotest.(check int) "core2 waited two services" 8
    (Sim.Bus.max_wait bus ~core:2)

let test_bus_double_request_rejected () =
  let bus = Sim.Bus.create Interconnect.Arbiter.Private in
  Sim.Bus.request bus ~core:0 ~latency:5;
  Alcotest.check_raises "outstanding"
    (Invalid_argument "Bus.request: outstanding request") (fun () ->
      Sim.Bus.request bus ~core:0 ~latency:5)

let test_bus_tdma_waits_for_slot () =
  let bus = Sim.Bus.create (Interconnect.Arbiter.Tdma { cores = 2; slot = 10 }) in
  (* Core 1's slot is [10,20): a request at t=0 must wait. *)
  Sim.Bus.request bus ~core:1 ~latency:10;
  drain bus 1;
  Alcotest.(check int) "served in own slot" 20 (Sim.Bus.now bus);
  Alcotest.(check int) "waited for slot start" 10
    (Sim.Bus.max_wait bus ~core:1);
  (* And a transaction that no longer fits the current slot defers. *)
  let bus2 = Sim.Bus.create (Interconnect.Arbiter.Tdma { cores = 2; slot = 10 }) in
  (* Burn 5 cycles: now inside core 0's slot with only 5 left. *)
  for _ = 1 to 5 do Sim.Bus.step bus2 done;
  Sim.Bus.request bus2 ~core:0 ~latency:8;
  drain bus2 0;
  (* Must wait for the next period's slot: starts at 20, ends at 28. *)
  Alcotest.(check int) "deferred to next slot" 28 (Sim.Bus.now bus2)

let test_bus_fcfs_arrival_order () =
  let bus = Sim.Bus.create (Interconnect.Arbiter.Fcfs { cores = 3 }) in
  Sim.Bus.request bus ~core:2 ~latency:3;
  Sim.Bus.step bus;
  Sim.Bus.request bus ~core:0 ~latency:3;
  let rec until_core0_done guard =
    if guard = 0 then Alcotest.fail "no completion"
    else if Sim.Bus.pending bus ~core:0 then begin
      Sim.Bus.step bus;
      until_core0_done (guard - 1)
    end
  in
  until_core0_done 100;
  (* core2 went first (earlier arrival), core0 right after: 3 + 3. *)
  Alcotest.(check int) "fcfs order" 6 (Sim.Bus.now bus)

let test_bus_weighted_round_share () =
  let arb = Interconnect.Arbiter.Weighted { weights = [| 2; 1 |] } in
  let bus = Sim.Bus.create arb in
  (* Saturate both cores repeatedly and count grants over a window. *)
  let grants = [| 0; 0 |] in
  let rec run n =
    if n > 0 then begin
      for core = 0 to 1 do
        if not (Sim.Bus.pending bus ~core) then begin
          (match
             Sim.Bus.request bus ~core ~latency:2
           with
          | () -> ()
          | exception Invalid_argument _ -> ());
          grants.(core) <- grants.(core) + 1
        end
      done;
      Sim.Bus.step bus;
      run (n - 1)
    end
  in
  run 300;
  (* Requests counted = completions + pending; heavy core should get
     about twice the light core's service. *)
  Alcotest.(check bool)
    (Printf.sprintf "weighted share (%d vs %d)" grants.(0) grants.(1))
    true
    (grants.(0) > grants.(1) && grants.(0) < 3 * grants.(1))

(* ------------------------------------------------------------------ *)
(* SMT models                                                         *)
(* ------------------------------------------------------------------ *)

let test_pret_runs () =
  let p = parse "main:\n  li r1, 3\nl:\n  subi r1, r1, 1\n  bne r1, r0, l\n  halt\n" in
  let r = Sim.Smt.run_pret lat ~threads:[| Some p; Some p |] () in
  Alcotest.(check bool) "both halt" true
    (Array.for_all (fun x -> x) r.Sim.Smt.halted);
  Alcotest.(check int) "same instruction count"
    r.Sim.Smt.thread_instructions.(0)
    r.Sim.Smt.thread_instructions.(1)

let test_pret_isolation () =
  (* Thread 0's completion time is independent of co-threads. *)
  let victim = parse "main:\n  li r1, 8\nl:\n  subi r1, r1, 1\n  ld.d r2, 0(r1)\n  bne r1, r0, l\n  halt\n" in
  let heavy = parse (memory_bound_src 50) in
  let alone = Sim.Smt.run_pret lat ~threads:[| Some victim; None; None; None |] () in
  let crowded =
    Sim.Smt.run_pret lat
      ~threads:[| Some victim; Some heavy; Some heavy; Some heavy |]
      ()
  in
  Alcotest.(check int) "PRET thread time unchanged by co-threads"
    alone.Sim.Smt.thread_cycles.(0)
    crowded.Sim.Smt.thread_cycles.(0)

let test_carcore_isolation () =
  let hrt = parse (memory_bound_src 20) in
  let nrt = parse (memory_bound_src 50) in
  let cfg = base_config ~l1i:small_l1 () in
  let alone = Sim.Machine.run_single cfg hrt () in
  let r = Sim.Smt.run_carcore cfg ~hrt ~nrts:[| nrt; nrt |] () in
  Alcotest.(check int) "HRT timing identical to running alone"
    alone.Sim.Machine.cycles r.Sim.Smt.hrt.Sim.Machine.cycles;
  Alcotest.(check bool) "NRTs make progress in the slack" true
    (Array.exists (fun n -> n > 0) r.Sim.Smt.nrt_instructions)

(* Property: on random straight-line programs, the simulator's cycle count
   equals the sum of per-instruction costs (compositional timing). *)
let prop_straightline_cost_sum =
  let arb =
    QCheck.make
      ~print:(fun l -> String.concat ";" (List.map string_of_int l))
      QCheck.Gen.(list_size (int_range 1 20) (int_range 0 3))
  in
  QCheck.Test.make ~name:"straightline cycles = sum of instruction costs"
    ~count:100 arb (fun choices ->
      let body =
        String.concat ""
          (List.map
             (fun c ->
               match c with
               | 0 -> "  addi r1, r1, 1\n"
               | 1 -> "  mul r2, r1, r1\n"
               | 2 -> "  st.s r1, 0(r0)\n"
               | _ -> "  nop\n")
             choices)
      in
      let p = parse ("main:\n" ^ body ^ "  halt\n") in
      let cfg = base_config () in
      let r = Sim.Machine.run_single cfg p () in
      (* Recompute expected cost: fetch (line hit/miss via concrete l1i
         replay) + exec + data. *)
      let l1i = Cache.Concrete.create cfg.Sim.Machine.l1i in
      let l1d = Cache.Concrete.create cfg.Sim.Machine.l1d in
      let expected = ref 0 in
      Array.iteri
        (fun i ins ->
          let fetch_addr = Isa.Program.addr_of_index p i in
          (match Cache.Concrete.access l1i fetch_addr with
          | `Hit -> expected := !expected + lat.Pipeline.Latencies.l1_hit
          | `Miss ->
              expected :=
                !expected + lat.Pipeline.Latencies.l1_hit
                + lat.Pipeline.Latencies.mem);
          expected := !expected + Pipeline.Latencies.exec_cost lat ins;
          match ins with
          | Isa.Instr.Store (Isa.Instr.Stack, _, _, off) -> (
              let addr = Isa.Layout.byte_addr Isa.Instr.Stack off in
              match Cache.Concrete.access l1d addr with
              | `Hit -> expected := !expected + lat.Pipeline.Latencies.l1_hit
              | `Miss ->
                  expected :=
                    !expected + lat.Pipeline.Latencies.l1_hit
                    + lat.Pipeline.Latencies.mem)
          | _ -> ())
        p.Isa.Program.code;
      r.Sim.Machine.cycles = !expected)

(* ------------------------------------------------------------------ *)
(* Bus arbitration edge cases                                          *)
(* ------------------------------------------------------------------ *)

let test_bus_zero_latency_rejected () =
  let bus = Sim.Bus.create Interconnect.Arbiter.Private in
  Alcotest.check_raises "zero latency"
    (Invalid_argument "Bus.request: latency <= 0") (fun () ->
      Sim.Bus.request bus ~core:0 ~latency:0);
  Alcotest.check_raises "negative latency"
    (Invalid_argument "Bus.request: latency <= 0") (fun () ->
      Sim.Bus.request bus ~core:0 ~latency:(-3))

let test_bus_skip_preconditions () =
  let bus = Sim.Bus.create (Interconnect.Arbiter.Round_robin { cores = 2 }) in
  Alcotest.check_raises "k <= 0" (Invalid_argument "Bus.skip: k <= 0")
    (fun () -> Sim.Bus.skip bus 0);
  Sim.Bus.request bus ~core:1 ~latency:5;
  (* Idle bus with a pending request: a skip would jump over the
     arbitration decision. *)
  Alcotest.check_raises "idle with pending"
    (Invalid_argument "Bus.skip: pending request") (fun () ->
      Sim.Bus.skip bus 3);
  Sim.Bus.step bus;
  (* Service started last cycle, 4 cycles remain. *)
  Alcotest.check_raises "past end of service"
    (Invalid_argument "Bus.skip: past end of service") (fun () ->
      Sim.Bus.skip bus 10)

let test_bus_skip_matches_step () =
  (* A skip over an in-flight service must leave the bus in the same
     state as the equivalent number of single steps, co-runner wait
     accounting included. *)
  let mk () =
    let bus =
      Sim.Bus.create (Interconnect.Arbiter.Round_robin { cores = 2 })
    in
    Sim.Bus.request bus ~core:0 ~latency:7;
    Sim.Bus.request bus ~core:1 ~latency:3;
    Sim.Bus.step bus;
    (* core 0 granted, 6 cycles of service remain *)
    bus
  in
  let stepped = mk () and skipped = mk () in
  for _ = 1 to 6 do
    Sim.Bus.step stepped
  done;
  Sim.Bus.skip skipped 6;
  Alcotest.(check int) "same clock" (Sim.Bus.now stepped)
    (Sim.Bus.now skipped);
  Alcotest.(check bool) "same in-service state" true
    (Sim.Bus.in_service stepped = Sim.Bus.in_service skipped);
  List.iter
    (fun core ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d same pending" core)
        (Sim.Bus.pending stepped ~core)
        (Sim.Bus.pending skipped ~core);
      Alcotest.(check int)
        (Printf.sprintf "core %d same wait cycles" core)
        (Sim.Bus.wait_cycles stepped ~core)
        (Sim.Bus.wait_cycles skipped ~core);
      Alcotest.(check int)
        (Printf.sprintf "core %d same service cycles" core)
        (Sim.Bus.service_cycles stepped ~core)
        (Sim.Bus.service_cycles skipped ~core))
    [ 0; 1 ]

let test_bus_tdma_exact_fit () =
  (* A transaction of exactly the slot length is granted at the slot
     boundary; one a single cycle longer can never fit and starves
     (the documented TDMA discipline: no slot straddling). *)
  let mk () = Sim.Bus.create (Interconnect.Arbiter.Tdma { cores = 2; slot = 4 }) in
  let bus = mk () in
  Sim.Bus.request bus ~core:0 ~latency:4;
  drain bus 0;
  Alcotest.(check int) "exact fit served in its first slot" 4 (Sim.Bus.now bus);
  Alcotest.(check int) "no wait at the boundary" 0 (Sim.Bus.max_wait bus ~core:0);
  let bus = mk () in
  Sim.Bus.request bus ~core:0 ~latency:5;
  for _ = 1 to 200 do
    Sim.Bus.step bus
  done;
  Alcotest.(check bool) "oversized transaction is never granted" true
    (Sim.Bus.pending bus ~core:0);
  Alcotest.(check bool) "bus stays idle" true (Sim.Bus.in_service bus = None)

let test_bus_fcfs_requeue_goes_to_back () =
  (* A core that completes and immediately re-requests queues behind a
     co-runner whose request arrived earlier. *)
  let bus = Sim.Bus.create (Interconnect.Arbiter.Fcfs { cores = 2 }) in
  Sim.Bus.request bus ~core:0 ~latency:2;
  Sim.Bus.request bus ~core:1 ~latency:3;
  drain bus 0;
  Alcotest.(check int) "first arrival served first" 2 (Sim.Bus.now bus);
  Sim.Bus.request bus ~core:0 ~latency:2;
  drain bus 0;
  (* core 1 (3 cycles) goes before core 0's re-request (2 cycles). *)
  Alcotest.(check int) "re-request waits behind the earlier arrival" 7
    (Sim.Bus.now bus);
  Alcotest.(check int) "core 0's second wait = core 1's service" 3
    (Sim.Bus.max_wait bus ~core:0)

let test_refresh_boundary_simultaneous_requests () =
  (* Both cores issue misses in the same cycles while a short-period
     distributed refresh keeps toggling the DRAM surcharge: the refresh
     windows and round-robin arbitration must compose identically in the
     block and reference interpreters. *)
  let cfg =
    {
      (base_config ~l1i:small_l1
         ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 2 })
         ())
      with
      Sim.Machine.refresh =
        Interconnect.Arbiter.Distributed { interval = 8; duration = 5 };
    }
  in
  let p = parse (memory_bound_src 12) in
  let cores = [| Sim.Machine.task p; Sim.Machine.task p |] in
  let b = Sim.Machine.run ~interp:`Block cfg ~cores () in
  let r = Sim.Machine.run ~interp:`Reference cfg ~cores () in
  Alcotest.(check bool) "both cores halted" true
    (Array.for_all (fun x -> x.Sim.Machine.halted) b);
  Array.iteri
    (fun i br ->
      Alcotest.(check bool)
        (Printf.sprintf "core %d bit-identical across interpreters" i)
        true (br = r.(i)))
    b

(* ------------------------------------------------------------------ *)
(* Differential property: block interpreter vs. reference oracle       *)
(* ------------------------------------------------------------------ *)

module G = Fuzz.Generator

(* QCheck arbitrary over generator pieces, with a structural shrinker:
   loops yield their body pieces, diamonds their arms, calls collapse.
   [G.assemble] is total, so every shrink candidate is a valid,
   terminating, fault-free program. *)
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

(* Platform shapes chosen to exercise every dispatch path of the block
   interpreter: whole-block batching (burst refresh, private memory
   path), probe-guarded hybrid dispatch (distributed refresh, shared
   L2, contention), the method-cache instruction path, and truncated
   horizons (the TDMA shape can starve oversized transactions).  The
   TDMA slot (80) exceeds the largest transaction the machine can issue
   (l2_hit + mem + refresh duration = 67), so halting runs stay live. *)
let diff_l2 = Cache.Config.make ~sets:16 ~assoc:4 ~line_size:16

let diff_configs =
  let slices =
    let alloc =
      Cache.Partition.even_shares Cache.Partition.Columnization diff_l2
        ~parts:2
    in
    Array.init 2 (fun i ->
        Cache.Partition.partition_config diff_l2 alloc ~index:i)
  in
  [
    ("solo/no-l2", base_config (), 1);
    ("solo/l2", base_config ~l2:(Sim.Machine.Shared_l2 diff_l2) (), 1);
    ( "solo/refresh",
      {
        (base_config ~l1i:small_l1 ()) with
        Sim.Machine.refresh =
          Interconnect.Arbiter.Distributed { interval = 64; duration = 9 };
      },
      1 );
    ( "solo/mcache",
      {
        (base_config ()) with
        Sim.Machine.i_path =
          Sim.Machine.Method_cache Cache.Method_cache.default;
      },
      1 );
    ( "dual/shared-l2-rr",
      base_config
        ~l2:(Sim.Machine.Shared_l2 diff_l2)
        ~arbiter:(Interconnect.Arbiter.Round_robin { cores = 2 })
        (),
      2 );
    ( "dual/shared-l2-tdma-refresh",
      {
        (base_config ~l1i:small_l1
           ~l2:(Sim.Machine.Shared_l2 diff_l2)
           ~arbiter:(Interconnect.Arbiter.Tdma { cores = 2; slot = 80 })
           ())
        with
        Sim.Machine.refresh =
          Interconnect.Arbiter.Distributed { interval = 96; duration = 7 };
      },
      2 );
    ( "dual/sliced-fcfs",
      base_config ~l1i:small_l1
        ~l2:(Sim.Machine.Private_l2 slices)
        ~arbiter:(Interconnect.Arbiter.Fcfs { cores = 2 })
        (),
      2 );
  ]

(* A low horizon on purpose: long random programs get truncated, which
   exercises the mid-group cut-off path of the block interpreter (the
   always-exact field subset below is the documented contract there). *)
let diff_max_cycles = 150_000

let run_both cfg ~cores g =
  let setup =
    {
      (Sim.Machine.task g.G.program) with
      Sim.Machine.init_data = g.G.data_init;
      attrib_blocks = true;
    }
  in
  let setups = Array.init cores (fun _ -> setup) in
  let b =
    Sim.Machine.run ~interp:`Block cfg ~cores:setups
      ~max_cycles:diff_max_cycles ()
  in
  let r =
    Sim.Machine.run ~interp:`Reference cfg ~cores:setups
      ~max_cycles:diff_max_cycles ()
  in
  (b, r)

let check_pair cfg_name core (b : Sim.Machine.core_result)
    (r : Sim.Machine.core_result) =
  let fail field =
    QCheck.Test.fail_reportf
      "%s core %d: %s differs between block and reference interpreters"
      cfg_name core field
  in
  (* Exact in every mode, truncated runs included. *)
  if b.Sim.Machine.cycles <> r.Sim.Machine.cycles then fail "cycles";
  if b.Sim.Machine.halted <> r.Sim.Machine.halted then fail "halted";
  if b.Sim.Machine.attrib <> r.Sim.Machine.attrib then fail "attrib";
  if b.Sim.Machine.block_attrib <> r.Sim.Machine.block_attrib then
    fail "block_attrib";
  if b.Sim.Machine.bus_stall_cycles <> r.Sim.Machine.bus_stall_cycles then
    fail "bus_stall_cycles";
  if b.Sim.Machine.max_bus_wait <> r.Sim.Machine.max_bus_wait then
    fail "max_bus_wait";
  (* On a halted run every field is exact, final state included. *)
  if b.Sim.Machine.halted && b <> r then fail "full result record"

let prop_block_matches_reference =
  QCheck.Test.make
    ~name:"block interpreter bit-identical to reference (all shapes)"
    ~count:30 arb_pieces (fun pieces ->
      let g = G.assemble ~name:"qcheck" pieces in
      List.iter
        (fun (name, cfg, cores) ->
          let bs, rs = run_both cfg ~cores g in
          Array.iteri (fun i b -> check_pair name i b rs.(i)) bs)
        diff_configs;
      true)

let () =
  Alcotest.run "sim"
    [
      ( "single core",
        [
          Alcotest.test_case "exact cycles (no L2)" `Quick
            test_exact_cycles_straightline;
          Alcotest.test_case "exact cycles (L2)" `Quick
            test_exact_cycles_with_l2;
          Alcotest.test_case "L2 hit on refetch" `Quick test_l2_hit_on_refetch;
          Alcotest.test_case "matches Exec semantics" `Quick
            test_sim_matches_exec_semantics;
          Alcotest.test_case "deterministic" `Quick test_determinism;
          Alcotest.test_case "input injection" `Quick test_input_injection;
          Alcotest.test_case "refresh adds latency" `Quick
            test_refresh_adds_latency;
          Alcotest.test_case "locked L2 lines" `Quick test_locked_l2_lines;
          Alcotest.test_case "negative data address faults" `Quick
            test_negative_data_address_faults;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "RR wait within bound" `Quick
            test_rr_bus_wait_within_bound;
          Alcotest.test_case "TDMA wait within bound" `Quick
            test_tdma_bus_wait_within_bound;
          Alcotest.test_case "interference slows victim" `Quick
            test_interference_slows_down;
          Alcotest.test_case "shared vs private L2" `Quick
            test_shared_l2_interference;
        ] );
      ( "bus",
        [
          Alcotest.test_case "private immediate" `Quick
            test_bus_private_immediate;
          Alcotest.test_case "round-robin order" `Quick test_bus_rr_order;
          Alcotest.test_case "double request rejected" `Quick
            test_bus_double_request_rejected;
          Alcotest.test_case "TDMA slot discipline" `Quick
            test_bus_tdma_waits_for_slot;
          Alcotest.test_case "FCFS arrival order" `Quick
            test_bus_fcfs_arrival_order;
          Alcotest.test_case "weighted bandwidth share" `Quick
            test_bus_weighted_round_share;
          Alcotest.test_case "zero-length burst rejected" `Quick
            test_bus_zero_latency_rejected;
          Alcotest.test_case "skip preconditions" `Quick
            test_bus_skip_preconditions;
          Alcotest.test_case "skip matches step" `Quick
            test_bus_skip_matches_step;
          Alcotest.test_case "TDMA exact slot fit" `Quick
            test_bus_tdma_exact_fit;
          Alcotest.test_case "FCFS re-request order" `Quick
            test_bus_fcfs_requeue_goes_to_back;
          Alcotest.test_case "refresh-boundary interp agreement" `Quick
            test_refresh_boundary_simultaneous_requests;
        ] );
      ( "smt",
        [
          Alcotest.test_case "PRET runs" `Quick test_pret_runs;
          Alcotest.test_case "PRET isolation" `Quick test_pret_isolation;
          Alcotest.test_case "CarCore isolation" `Quick test_carcore_isolation;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_straightline_cost_sum; prop_block_matches_reference ] );
    ]
