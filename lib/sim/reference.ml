(* The original per-instruction cycle stepper, kept as the differential
   oracle for the block-predecoded interpreter (the same pattern the
   solver used in PR 3: the slow, obviously-correct implementation stays
   and every fast-path result can be checked against it).

   Two deliberate performance fixes relative to the pre-split code, both
   semantics-preserving so the oracle itself is not uselessly slow:
   - the decoded instruction is planned once and cached on the core
     instead of being re-fetched from the program by [Isa.Exec.step] at
     retire time (the stall-replay path used to re-decode);
   - a [Local] work item counts down in place instead of re-consing the
     queue head every stall cycle.
   Everything else is verbatim, including the one-cycle cost of a
   degenerate [Local (_, 0)] head. *)

open Machine_core

(* Work items of the current instruction, consumed cycle by cycle.  Each
   [Local] cycle is tagged with its attribution category; a bus
   transaction's vector is charged at issue (see [Machine_core.tx]). *)
type work =
  | Local of { cat : Pipeline.Cost.category; mutable left : int }
  | Bus_tx of tx

type core_state = {
  id : int;
  ci : core_init;
  mutable cur_ins : Isa.Instr.t;  (* decoded instruction at [exec.pc] *)
  mutable queue : work list;
  mutable waiting_bus : bool;
  mutable done_cycle : int option;
  mutable instructions : int;
  mutable bus_stall_cycles : int;
  attrib : int array;  (* indexed by Pipeline.Cost.category_index *)
  block_attrib : (string * int, int array) Hashtbl.t option;
  mutable cur_block : (string * int) option;
}

let bump core cat n =
  let i = Pipeline.Cost.category_index cat in
  core.attrib.(i) <- core.attrib.(i) + n;
  match (core.block_attrib, core.cur_block) with
  | Some tbl, Some loc ->
      let arr =
        match Hashtbl.find_opt tbl loc with
        | Some a -> a
        | None ->
            let a = Array.make ncats 0 in
            Hashtbl.add tbl loc a;
            a
      in
      arr.(i) <- arr.(i) + n
  | _ -> ()

let bump_vec core v =
  List.iter
    (fun (cat, n) -> if n <> 0 then bump core cat n)
    (Pipeline.Cost.Vec.to_alist v)

(* Build the work list for the instruction at the current pc. *)
let plan_instruction cfg bus core =
  let lat = cfg.latencies in
  let ci = core.ci in
  let pc = ci.ci_exec.Isa.Exec.pc in
  let ins = Isa.Program.instr ci.ci_program pc in
  core.cur_ins <- ins;
  let clock = Bus.now bus in
  (match ci.ci_locs with
  | Some locs -> core.cur_block <- locs.(pc)
  | None -> ());
  let fetch_addr = Isa.Program.addr_of_index ci.ci_program pc in
  let l1_lookup () =
    Local { cat = Pipeline.Cost.Compute; left = lat.Pipeline.Latencies.l1_hit }
  in
  let miss_tx addr =
    miss_tx cfg ~l2:ci.ci_l2 ~l2_bypass:ci.ci_l2_bypass clock addr
  in
  let fetch =
    match ci.ci_mcache with
    | Some _ -> [ l1_lookup () ]
    | None -> (
        match Cache.Concrete.access ci.ci_l1i fetch_addr with
        | `Hit -> [ l1_lookup () ]
        | `Miss -> [ l1_lookup (); Bus_tx (miss_tx fetch_addr) ])
  in
  (* Method cache: call and return may need to load the target function. *)
  let mc_control =
    let mc_load target st =
      match mcache_miss_tx lat st target with
      | None -> []
      | Some tx -> [ Bus_tx tx ]
    in
    match ci.ci_mcache with
    | None -> []
    | Some st -> (
        match ins with
        | Isa.Instr.Call l ->
            mc_load (Isa.Program.label_index ci.ci_program l) st
        | Isa.Instr.Ret -> (
            match ci.ci_exec.Isa.Exec.call_stack with
            | r :: _ -> mc_load r st
            | [] -> [])
        | _ -> [])
  in
  let exec =
    (* Split compute from the redirect penalty, preserving the total
       cycle count (a [Local (_, 0)] head would cost a spurious cycle). *)
    let compute, stall = Pipeline.Latencies.exec_split lat ins in
    if compute > 0 && stall > 0 then
      [
        Local { cat = Pipeline.Cost.Compute; left = compute };
        Local { cat = Pipeline.Cost.Stall; left = stall };
      ]
    else if stall > 0 then [ Local { cat = Pipeline.Cost.Stall; left = stall } ]
    else [ Local { cat = Pipeline.Cost.Compute; left = compute } ]
  in
  let data =
    match ins with
    | Isa.Instr.Load (sp, _, rb, off) | Isa.Instr.Store (sp, _, rb, off) ->
        let idx = ci.ci_exec.Isa.Exec.regs.(rb) + off in
        let addr = Isa.Layout.byte_addr sp idx in
        if Isa.Layout.is_cacheable sp then begin
          (* An out-of-range index faults as the semantics would, before
             the cache model sees its address. *)
          Isa.Exec.check_index ci.ci_exec
            ~store:(match ins with Isa.Instr.Store _ -> true | _ -> false)
            sp idx;
          match Cache.Concrete.access ci.ci_l1d addr with
          | `Hit -> [ l1_lookup () ]
          | `Miss -> [ l1_lookup (); Bus_tx (miss_tx addr) ]
        end
        else
          (* The device's own service time is work, not interference. *)
          [
            Bus_tx
              {
                tx_latency = lat.Pipeline.Latencies.io;
                tx_vec =
                  Pipeline.Cost.Vec.make Pipeline.Cost.Compute
                    lat.Pipeline.Latencies.io;
              };
          ]
    | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Branch _
    | Isa.Instr.Jump _ | Isa.Instr.Call _ | Isa.Instr.Ret | Isa.Instr.Nop
    | Isa.Instr.Halt ->
        []
  in
  core.queue <- fetch @ mc_control @ exec @ data

(* Retire the instruction whose work just drained and plan the next; the
   retire itself costs no cycles (its cost is in the consumed work). *)
let retire_and_plan cfg bus core =
  core.instructions <- core.instructions + 1;
  match Isa.Exec.step_decoded core.ci.ci_program core.ci.ci_exec core.cur_ins with
  | Some _ when not (Isa.Exec.halted core.ci.ci_exec) ->
      plan_instruction cfg bus core
  | Some _ | None -> core.done_cycle <- Some (Bus.now bus)

(* One simulation cycle for a core: either stall on the bus or consume
   exactly one unit of work. *)
let step_core cfg bus core =
  if core.done_cycle = None then begin
    if core.waiting_bus && not (Bus.pending bus ~core:core.id) then
      core.waiting_bus <- false;
    if core.waiting_bus then begin
      core.bus_stall_cycles <- core.bus_stall_cycles + 1;
      (* Serviced stall cycles were already charged at issue via the
         transaction's breakdown; the rest is arbitration wait. *)
      if not (Bus.serving bus ~core:core.id) then
        bump core Pipeline.Cost.Bus 1
    end;
    if not core.waiting_bus then begin
      if core.queue = [] then retire_and_plan cfg bus core;
      if core.done_cycle = None then
        match core.queue with
        | Local l :: rest ->
            bump core l.cat 1;
            if l.left <= 1 then core.queue <- rest else l.left <- l.left - 1
        | Bus_tx tx :: rest ->
            (* Charge the whole service latency now (this issue cycle
               plus the latency-minus-one serviced stall cycles). *)
            bump_vec core tx.tx_vec;
            Bus.request bus ~core:core.id ~latency:tx.tx_latency;
            core.waiting_bus <- true;
            core.queue <- rest
        | [] -> assert false (* plan always yields at least the fetch *)
    end
  end

let run cfg ~cores ?(max_cycles = 10_000_000) () =
  let n = Array.length cores in
  let bus = Bus.create cfg.arbiter in
  let l2_for = make_l2s cfg n in
  let states =
    Array.mapi
      (fun i (setup : core_setup) ->
        match init_core cfg l2_for i setup with
        | None -> None
        | Some ci ->
            let core =
              {
                id = i;
                ci;
                cur_ins = Isa.Instr.Nop;
                queue = [];
                waiting_bus = false;
                done_cycle = None;
                instructions = 0;
                bus_stall_cycles = 0;
                attrib = Array.make ncats 0;
                block_attrib =
                  (if ci.ci_attrib_blocks then Some (Hashtbl.create 64)
                   else None);
                cur_block = None;
              }
            in
            plan_instruction cfg bus core;
            (* The entry function itself must be loaded first. *)
            (match ci.ci_mcache with
            | Some st -> (
                match
                  mcache_miss_tx cfg.latencies st
                    ci.ci_program.Isa.Program.entry
                with
                | Some tx -> core.queue <- Bus_tx tx :: core.queue
                | None -> ())
            | None -> ());
            Some core)
      cores
  in
  let all_done () =
    Array.for_all
      (function None -> true | Some c -> c.done_cycle <> None)
      states
  in
  let rec loop cycles =
    if cycles >= max_cycles || all_done () then ()
    else begin
      Array.iter
        (function None -> () | Some c -> step_core cfg bus c)
        states;
      Bus.step bus;
      loop (cycles + 1)
    end
  in
  loop 0;
  Array.mapi
    (fun i state ->
      match state with
      | None -> idle_result
      | Some c ->
          result_of ~bus ~core:i ~ci:c.ci ~done_cycle:c.done_cycle
            ~instructions:c.instructions
            ~bus_stall_cycles:c.bus_stall_cycles ~attrib:c.attrib
            ~block_attrib:c.block_attrib)
    states
