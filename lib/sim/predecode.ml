(* Block-predecoded simulator interpreter — the hot path behind
   [Machine.run ~interp:`Block] (the default).

   Each program is decoded once into a flat array of micro-ops: fetch
   address, (compute, stall) split, data-access shape, and the
   instruction semantics with label targets resolved to instruction
   indices.  Basic-block boundaries (leaders = entry, branch targets,
   successors of control instructions) mark where dispatch can stop.

   Execution then differs from [Reference] only in bookkeeping, never in
   the cycle-by-cycle observable schedule:

   - Work is queued in flat integer arrays instead of a list, so stall
     replay allocates nothing.

   - When the platform timing is clock-independent for planning purposes
     (burst refresh, conventional instruction path, and an L2 that is
     private or uncontended), a whole basic block is planned and its
     semantics applied at dispatch time ("batch" mode).  Planning an
     instruction only reads the clock through [refresh_extra] (constant
     under burst refresh) and the caches (private under the condition
     above), and plan(i) reads registers written by exec(i-1), so
     interleaving plan/exec per micro-op at dispatch produces exactly
     the cache-access sequence and transaction latencies the reference
     produces at its spread-out plan times.  Otherwise every micro-op is
     planned at its reference plan cycle (per-uop fallback; dynamic
     control flow also retires per-uop in that mode).

   - Stretches of cycles in which no event can occur — no plan, no bus
     issue, no arbitration decision, no service completion — are
     advanced in bulk: local work, bus-stall counters and the bus's own
     wait/service accounting are all linear in such a window, so the
     counters come out bit-identical ([Bus.skip] is the bus half of
     this).

   Exactness caveat (documented in machine.mli): on *truncated*
   (non-halted) batch-mode runs, instruction counts, cache stats and the
   final architectural state can run ahead of the reference because
   sems/accesses are applied at dispatch; cycles and the attribution
   vectors are still exact, and halted runs are bit-identical in every
   field. *)

open Machine_core

let compute_i = Pipeline.Cost.category_index Pipeline.Cost.Compute
let stall_i = Pipeline.Cost.category_index Pipeline.Cost.Stall
let bus_i = Pipeline.Cost.category_index Pipeline.Cost.Bus

type daccess =
  | D_none
  | D_mem of { d_space : Isa.Instr.space; d_base : int; d_off : int }
  | D_io

(* Instruction semantics with statically resolved control targets. *)
type sem =
  | S_alu of Isa.Instr.alu_op * int * int * int
  | S_alui of Isa.Instr.alu_op * int * int * int
  | S_load of Isa.Instr.space * int * int * int
  | S_store of Isa.Instr.space * int * int * int
  | S_branch of Isa.Instr.cond * int * int * int
  | S_jump of int
  | S_call of int
  | S_ret
  | S_nop
  | S_halt

type uop = {
  u_pc : int;
  u_fetch_addr : int;
  u_fetch_line : int;  (* L1I line of [u_fetch_addr], precomputed *)
  u_compute : int;
  u_stall : int;
  u_sem : sem;
  u_data : daccess;
  u_last : bool;  (* last micro-op of its basic block *)
  (* Static local-slot template for the common case where the fetch hits
     L1I: the micro-op's local cycles always collapse to at most three
     slots — compute (fetch lookup, fused with execute compute and, when
     there is no stall, the data lookup), stall, and a trailing compute
     slot for the data lookup when a stall separates it.  Zero means
     "slot absent" (slot 1 is always present and >= 1). *)
  u_t1 : int;
  u_t2 : int;
  u_t3 : int;
}

type t = { d_uops : uop array; d_nblocks : int; d_max_block : int }

let decode cfg (program : Isa.Program.t) =
  let lat = cfg.latencies in
  let code = program.Isa.Program.code in
  let n = Array.length code in
  let leader = Array.make (n + 1) true in
  Array.fill leader 1 (max 0 (n - 1)) false;
  let entry = program.Isa.Program.entry in
  if entry >= 0 && entry < n then leader.(entry) <- true;
  Array.iteri
    (fun i ins ->
      (match ins with
      | Isa.Instr.Branch (_, _, _, l) | Isa.Instr.Jump l | Isa.Instr.Call l
        ->
          leader.(Isa.Program.label_index program l) <- true
      | _ -> ());
      if Isa.Instr.is_control ins then leader.(i + 1) <- true)
    code;
  let d_uops =
    Array.mapi
      (fun i ins ->
        let u_compute, u_stall = Pipeline.Latencies.exec_split lat ins in
        let data_of sp rb off =
          if Isa.Layout.is_cacheable sp then
            D_mem { d_space = sp; d_base = rb; d_off = off }
          else D_io
        in
        let target l = Isa.Program.label_index program l in
        let u_sem, u_data =
          match ins with
          | Isa.Instr.Alu (op, rd, rs1, rs2) ->
              (S_alu (op, rd, rs1, rs2), D_none)
          | Isa.Instr.Alui (op, rd, rs1, imm) ->
              (S_alui (op, rd, rs1, imm), D_none)
          | Isa.Instr.Load (sp, rd, rb, off) ->
              (S_load (sp, rd, rb, off), data_of sp rb off)
          | Isa.Instr.Store (sp, rv, rb, off) ->
              (S_store (sp, rv, rb, off), data_of sp rb off)
          | Isa.Instr.Branch (c, r1, r2, l) ->
              (S_branch (c, r1, r2, target l), D_none)
          | Isa.Instr.Jump l -> (S_jump (target l), D_none)
          | Isa.Instr.Call l -> (S_call (target l), D_none)
          | Isa.Instr.Ret -> (S_ret, D_none)
          | Isa.Instr.Nop -> (S_nop, D_none)
          | Isa.Instr.Halt -> (S_halt, D_none)
        in
        let u_fetch_addr = Isa.Program.addr_of_index program i in
        (* Mirror the enqueue/fusion logic of [append_uop]'s general
           path, assuming the fetch hits (no transaction splits the
           compute run). *)
        let h =
          let x = lat.Pipeline.Latencies.l1_hit in
          if x <= 0 then 1 else x
        in
        let has_mem = match u_data with D_mem _ -> true | _ -> false in
        let u_t1, u_t2, u_t3 =
          if u_stall > 0 then
            ( (if u_compute > 0 then h + u_compute else h),
              u_stall,
              if has_mem then h else 0 )
          else
            let c = if u_compute <= 0 then 1 else u_compute in
            (h + c + (if has_mem then h else 0), 0, 0)
        in
        {
          u_pc = i;
          u_fetch_addr;
          u_fetch_line = Cache.Config.line_of_addr cfg.l1i u_fetch_addr;
          u_compute;
          u_stall;
          u_sem;
          u_data;
          u_last = leader.(i + 1);
          u_t1;
          u_t2;
          u_t3;
        })
      code
  in
  let d_nblocks = ref 0 and d_max_block = ref 0 and cur = ref 0 in
  for i = 0 to n - 1 do
    if leader.(i) then incr d_nblocks;
    incr cur;
    if leader.(i + 1) then begin
      if !cur > !d_max_block then d_max_block := !cur;
      cur := 0
    end
  done;
  { d_uops; d_nblocks = !d_nblocks; d_max_block = !d_max_block }

(* Decode is pure, and the same program is re-simulated constantly (the
   tightness table runs it under eight approach modes; the differential
   oracle under two interpreters), so memoize per (latencies, l1i
   geometry, program) — the only inputs [decode] reads — keyed by
   physical equality in a small ring.  Entries are immutable triples, so
   a racy read from concurrent serving threads at worst misses and
   re-decodes. *)
let decode_cache : (Pipeline.Latencies.t * Cache.Config.t * Isa.Program.t * t) option array
    =
  Array.make 32 None

let decode_cache_pos = ref 0

let decode_cached cfg program =
  let rec find i =
    if i >= Array.length decode_cache then None
    else
      match decode_cache.(i) with
      | Some (lat, l1i, p, d)
        when lat == cfg.latencies && l1i == cfg.l1i && p == program ->
          Some d
      | _ -> find (i + 1)
  in
  match find 0 with
  | Some d -> d
  | None ->
      let d = decode cfg program in
      decode_cache.(!decode_cache_pos) <- Some (cfg.latencies, cfg.l1i, program, d);
      decode_cache_pos := (!decode_cache_pos + 1) mod Array.length decode_cache;
      d

type core_state = {
  id : int;
  ci : core_init;
  dec : t;
  (* Flat work queue, reset at every refill (it always drains before new
     work is planned).  A slot is a run of local cycles (q_cat >= 0, the
     category index; q_arg the run length) or a bus transaction
     (q_cat = -1; q_arg the latency; ncats vector ints in q_vec). *)
  q_cat : int array;
  q_arg : int array;
  q_vec : int array;
  q_loc : int array;  (* pc owning the slot, for per-block attribution *)
  q_ret : int array;  (* instructions retired when the slot completes *)
  mutable q_head : int;
  mutable q_tail : int;
  mutable q_has_tx : bool;  (* any tx slot in the current queue *)
  mutable local_prefix : int;
      (* local cycles from q_head to the next tx slot / queue end: how
         long this core runs with no bus or plan event *)
  mutable waiting_bus : bool;
  mutable done_cycle : int option;
  mutable instructions : int;
  mutable bus_stall_cycles : int;
  attrib : int array;
  block_attrib : (string * int, int array) Hashtbl.t option;
  mutable cur_block : (string * int) option;
  (* Same-line memo: the cache line of the previous L1I / L1D access.
     The L1s are private and only [append_uop] touches them, so an
     access to the same line as the immediately-preceding one is a
     guaranteed hit that leaves the LRU order unchanged (the line is
     already MRU) — counted via [Cache.Concrete.note_hit] without the
     lookup. *)
  mutable last_i_line : int;
  mutable last_d_line : int;
  l1d_line_size : int;  (* for inline [Config.line_of_addr] arithmetic *)
  mutable halted_sem : bool;  (* batch ran [Halt]; finish on drain *)
  mutable blocks_dispatched : int;
  mutable fallback_plans : int;
}

let bump_idx core i n =
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

let set_loc core pc =
  match core.ci.ci_locs with
  | Some locs -> core.cur_block <- locs.(pc)
  | None -> ()

let enq_local core cat n pc =
  (* A degenerate zero-length unit still costs one cycle, exactly like a
     [Local (_, 0)] head in the reference. *)
  let n = if n <= 0 then 1 else n in
  let t = core.q_tail in
  if t > 0 && core.q_cat.(t - 1) = cat && core.q_loc.(t - 1) = pc then
    (* Adjacent local cycles of the same category for the same pc are
       indistinguishable cycle-by-cycle (same bump, same location, and
       retire tags only ever sit on a micro-op's final slot), so fuse
       them into one slot. *)
    core.q_arg.(t - 1) <- core.q_arg.(t - 1) + n
  else begin
    core.q_cat.(t) <- cat;
    core.q_arg.(t) <- n;
    core.q_loc.(t) <- pc;
    core.q_ret.(t) <- 0;
    core.q_tail <- t + 1
  end

let enq_tx core (tx : tx) pc =
  core.q_has_tx <- true;
  let t = core.q_tail in
  core.q_cat.(t) <- -1;
  core.q_arg.(t) <- tx.tx_latency;
  core.q_loc.(t) <- pc;
  core.q_ret.(t) <- 0;
  let base = t * ncats in
  let v = tx.tx_vec in
  core.q_vec.(base) <- v.Pipeline.Cost.Vec.compute;
  core.q_vec.(base + 1) <- v.Pipeline.Cost.Vec.l1_miss;
  core.q_vec.(base + 2) <- v.Pipeline.Cost.Vec.l2_miss;
  core.q_vec.(base + 3) <- v.Pipeline.Cost.Vec.bus;
  core.q_vec.(base + 4) <- v.Pipeline.Cost.Vec.stall;
  core.q_tail <- t + 1

let recompute_prefix core =
  let p = ref 0 and i = ref core.q_head in
  while !i < core.q_tail && core.q_cat.(!i) >= 0 do
    p := !p + core.q_arg.(!i);
    incr i
  done;
  core.local_prefix <- !p

(* Enqueue the work of one micro-op, in the reference's plan order:
   fetch lookup, fetch/method-cache transaction, execute (compute then
   redirect stall), then the data access.  Cache accesses happen here —
   at plan time — exactly as in [Reference.plan_instruction]. *)
(* The data access (lookup already accounted in the caller's slots on
   the fast path): memoized hit, L1D access, and on a miss or an I/O
   operand a transaction. *)
let append_data cfg bus core (u : uop) =
  match u.u_data with
  | D_none -> ()
  | D_mem { d_space; d_base; d_off } ->
      let ci = core.ci in
      let pc = u.u_pc in
      let idx = ci.ci_exec.Isa.Exec.regs.(d_base) + d_off in
      let addr = Isa.Layout.byte_addr d_space idx in
      let line = addr / core.l1d_line_size in
      if line = core.last_d_line then Cache.Concrete.note_hit ci.ci_l1d
      else begin
        (* An out-of-range index faults as the semantics would, before
           the cache model sees its address. *)
        Isa.Exec.check_index ci.ci_exec
          ~store:(match u.u_sem with S_store _ -> true | _ -> false)
          d_space idx;
        core.last_d_line <- line;
        match Cache.Concrete.access ci.ci_l1d addr with
        | `Hit -> ()
        | `Miss ->
            enq_tx core
              (miss_tx cfg ~l2:ci.ci_l2 ~l2_bypass:ci.ci_l2_bypass
                 (Bus.now bus) addr)
              pc
      end
  | D_io ->
      (* The device's own service time is work, not interference. *)
      let lat = cfg.latencies in
      enq_tx core
        {
          tx_latency = lat.Pipeline.Latencies.io;
          tx_vec =
            Pipeline.Cost.Vec.make Pipeline.Cost.Compute
              lat.Pipeline.Latencies.io;
        }
        u.u_pc

let append_uop cfg bus core (u : uop) =
  let ci = core.ci in
  let pc = u.u_pc in
  let fetch_hit =
    match ci.ci_mcache with
    | Some _ -> false
    | None ->
        let line = u.u_fetch_line in
        if line = core.last_i_line then begin
          Cache.Concrete.note_hit ci.ci_l1i;
          true
        end
        else begin
          core.last_i_line <- line;
          match Cache.Concrete.access ci.ci_l1i u.u_fetch_addr with
          | `Hit -> true
          | `Miss -> false
        end
  in
  if fetch_hit then begin
    (* Fetch hit: the local slots are exactly the static template. *)
    let qc = core.q_cat
    and qa = core.q_arg
    and ql = core.q_loc
    and qr = core.q_ret in
    let t = core.q_tail in
    qc.(t) <- compute_i;
    qa.(t) <- u.u_t1;
    ql.(t) <- pc;
    qr.(t) <- 0;
    let t = t + 1 in
    let t =
      if u.u_t2 > 0 then begin
        qc.(t) <- stall_i;
        qa.(t) <- u.u_t2;
        ql.(t) <- pc;
        qr.(t) <- 0;
        t + 1
      end
      else t
    in
    let t =
      if u.u_t3 > 0 then begin
        qc.(t) <- compute_i;
        qa.(t) <- u.u_t3;
        ql.(t) <- pc;
        qr.(t) <- 0;
        t + 1
      end
      else t
    in
    core.q_tail <- t;
    append_data cfg bus core u
  end
  else begin
    (* Method cache, or the fetch missed (access already performed
       above): the reference's plan order, slot by slot. *)
    let lat = cfg.latencies in
    enq_local core compute_i lat.Pipeline.Latencies.l1_hit pc;
    (match ci.ci_mcache with
    | Some st -> (
        (* Method cache: call and return may need to load the target. *)
        let mc_load target =
          match mcache_miss_tx lat st target with
          | Some tx -> enq_tx core tx pc
          | None -> ()
        in
        match u.u_sem with
        | S_call target -> mc_load target
        | S_ret -> (
            match ci.ci_exec.Isa.Exec.call_stack with
            | r :: _ -> mc_load r
            | [] -> ())
        | _ -> ())
    | None ->
        enq_tx core
          (miss_tx cfg ~l2:ci.ci_l2 ~l2_bypass:ci.ci_l2_bypass (Bus.now bus)
             u.u_fetch_addr)
          pc);
    if u.u_compute > 0 && u.u_stall > 0 then begin
      enq_local core compute_i u.u_compute pc;
      enq_local core stall_i u.u_stall pc
    end
    else if u.u_stall > 0 then enq_local core stall_i u.u_stall pc
    else enq_local core compute_i u.u_compute pc;
    (match u.u_data with
    | D_none -> ()
    | D_mem _ ->
        enq_local core compute_i lat.Pipeline.Latencies.l1_hit pc;
        append_data cfg bus core u
    | D_io -> append_data cfg bus core u)
  end

(* Apply the micro-op's semantics: [Isa.Exec.step_decoded] with the
   decode and label lookups already done. *)
let apply_sem core (u : uop) =
  let st = core.ci.ci_exec in
  let open Isa.Exec in
  st.steps <- st.steps + 1;
  let next = st.pc + 1 in
  match u.u_sem with
  | S_alu (op, rd, rs1, rs2) ->
      set_reg st rd (alu op st.regs.(rs1) st.regs.(rs2));
      st.pc <- next
  | S_alui (op, rd, rs1, imm) ->
      set_reg st rd (alu op st.regs.(rs1) imm);
      st.pc <- next
  | S_load (sp, rd, rb, off) ->
      set_reg st rd (read_mem st sp (st.regs.(rb) + off));
      st.pc <- next
  | S_store (sp, rv, rb, off) ->
      write_mem st sp (st.regs.(rb) + off) st.regs.(rv);
      st.pc <- next
  | S_branch (c, r1, r2, target) ->
      st.pc <- (if cond_holds c st.regs.(r1) st.regs.(r2) then target
                else next)
  | S_jump target -> st.pc <- target
  | S_call target ->
      st.call_stack <- next :: st.call_stack;
      st.pc <- target
  | S_ret -> (
      match st.call_stack with
      | [] -> raise (Fault "ret with empty call stack")
      | r :: rest ->
          st.call_stack <- rest;
          st.pc <- r)
  | S_nop -> st.pc <- next
  | S_halt -> st.pc <- -1

(* Decode-failure parity: a pc outside the program must fail exactly as
   the reference's [Isa.Program.instr] would. *)
let check_pc core pc =
  if pc >= Array.length core.dec.d_uops then
    ignore (Isa.Program.instr core.ci.ci_program pc)

(* Can this micro-op be planned ahead of its reference plan cycle even
   when planning is not clock-independent in general (shared contended
   L2, distributed refresh, method cache)?  Yes iff its plan provably
   touches only core-private state with clock-independent latencies:
   every cache access must be an L1 hit (misses read the clock for
   refresh alignment and mutate the shared L2), which [probe] can
   establish without side effects.  Method-cache loads and I/O are safe:
   their latencies are clock-independent and their state is private —
   the transactions themselves still reach the bus at the exact cycle
   the queue issues them. *)
let probe_safe core (u : uop) =
  let ci = core.ci in
  (match ci.ci_mcache with
  | Some _ -> true
  | None ->
      u.u_fetch_line = core.last_i_line
      || Cache.Concrete.probe ci.ci_l1i u.u_fetch_addr)
  &&
  match u.u_data with
  | D_none | D_io -> true
  | D_mem { d_space; d_base; d_off } ->
      let idx = ci.ci_exec.Isa.Exec.regs.(d_base) + d_off in
      let addr = Isa.Layout.byte_addr d_space idx in
      (* an out-of-range access waits to be planned first, and faults *)
      addr / core.l1d_line_size = core.last_d_line
      || Isa.Exec.in_range ci.ci_exec d_space idx
         && Cache.Concrete.probe ci.ci_l1d addr

(* Dispatch: plan a run of micro-ops up to the end of the basic block
   and pre-apply their semantics, interleaving plan(i)/exec(i) per
   micro-op so plan(i+1) sees the registers exec(i) wrote — the same
   dataflow the reference gets from planning at retire time.

   When [guarded] (platform timing not clock-independent), only the
   first micro-op — whose plan cycle is exactly now — may do anything
   clock- or interference-sensitive; the run extends past it only
   through [probe_safe] micro-ops and stops before the first unsafe one,
   which then gets planned at its own drain cycle by the next refill. *)
(* Micro-ops planned per dispatch group.  A group chains consecutive
   basic blocks (dynamic control flow included: semantics are applied as
   planning goes, so the successor block is always known) as long as
   planning stays legal; stopping mid-block is fine too — the next
   refill resumes at the exact micro-op, at its exact plan cycle. *)
let group_budget = 64

let dispatch_group cfg bus core ~guarded =
  core.blocks_dispatched <- core.blocks_dispatched + 1;
  if guarded then core.fallback_plans <- core.fallback_plans + 1;
  let st = core.ci.ci_exec in
  let rec go first n =
    if n > 0 then begin
      let pc = st.Isa.Exec.pc in
      check_pc core pc;
      let u = core.dec.d_uops.(pc) in
      if first || (not guarded) || probe_safe core u then begin
        append_uop cfg bus core u;
        apply_sem core u;
        core.q_ret.(core.q_tail - 1) <- core.q_ret.(core.q_tail - 1) + 1;
        if st.Isa.Exec.pc < 0 then core.halted_sem <- true
        else go false (n - 1)
      end
    end
  in
  go true group_budget;
  recompute_prefix core

(* The work-queue arrays, sized for the worst case of one dispatch
   group: 6 slots per uop (fetch lookup + fetch tx + compute + stall +
   data lookup + data tx) plus the entry function load.  At 3,492 words
   a set is too large for the minor heap, and allocating one per core
   per run would let the runs' set-up pace the major GC.  Sets are
   reused through a per-domain free list instead: a run takes one per
   active core and gives them back when it ends, faulting or not.  The
   systhreads of a domain share its list, so taking and giving back are
   compare-and-set loops and two concurrent runs never hold the same
   set.  A reused set needs no clearing: every slot is written between
   a reset and the first read of it. *)
type queues = {
  cat : int array;
  arg : int array;
  vec : int array;
  loc : int array;
  ret : int array;
}

let queue_cap = (group_budget * 6) + 4

let free_queues : queues list Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make [])

let rec take_queues free =
  match Atomic.get free with
  | [] ->
      {
        cat = Array.make queue_cap 0;
        arg = Array.make queue_cap 0;
        vec = Array.make (queue_cap * ncats) 0;
        loc = Array.make queue_cap 0;
        ret = Array.make queue_cap 0;
      }
  | q :: rest as l ->
      if Atomic.compare_and_set free l rest then q else take_queues free

let rec give_back free q =
  let l = Atomic.get free in
  if not (Atomic.compare_and_set free l (q :: l)) then give_back free q

let reset_queue core =
  core.q_head <- 0;
  core.q_tail <- 0;
  core.q_has_tx <- false

let refill cfg bus ~batch core =
  if core.halted_sem then core.done_cycle <- Some (Bus.now bus)
  else begin
    reset_queue core;
    dispatch_group cfg bus core ~guarded:(not batch)
  end

let bump_slot_vec core h =
  let base = h * ncats in
  for j = 0 to ncats - 1 do
    let n = core.q_vec.(base + j) in
    if n <> 0 then bump_idx core j n
  done

(* One simulation cycle for a core — event-for-event the reference's
   [step_core], over the flat queue. *)
let step_core cfg bus ~batch core =
  match core.done_cycle with
  | Some _ -> ()
  | None ->
    if core.waiting_bus && not (Bus.pending bus ~core:core.id) then
      core.waiting_bus <- false;
    if core.waiting_bus then begin
      core.bus_stall_cycles <- core.bus_stall_cycles + 1;
      if not (Bus.serving bus ~core:core.id) then bump_idx core bus_i 1
    end;
    if not core.waiting_bus then begin
      if core.q_head = core.q_tail then refill cfg bus ~batch core;
      match core.done_cycle with
      | Some _ -> ()
      | None ->
        let h = core.q_head in
        let cat = core.q_cat.(h) in
        set_loc core core.q_loc.(h);
        if cat >= 0 then begin
          bump_idx core cat 1;
          let left = core.q_arg.(h) - 1 in
          if left <= 0 then begin
            core.instructions <- core.instructions + core.q_ret.(h);
            core.q_head <- h + 1
          end
          else core.q_arg.(h) <- left;
          core.local_prefix <- core.local_prefix - 1
        end
        else begin
          bump_slot_vec core h;
          Bus.request bus ~core:core.id ~latency:core.q_arg.(h);
          core.waiting_bus <- true;
          core.instructions <- core.instructions + core.q_ret.(h);
          core.q_head <- h + 1;
          recompute_prefix core
        end
    end

(* Size of the largest cycle window in which no event — plan, issue,
   arbitration, service completion — can occur for any core or the bus.
   0 or 1 means "just step normally". *)
let window states bus budget =
  let bus_k =
    match Bus.in_service bus with
    | Some (_, rem) -> if rem < budget then rem else budget
    | None ->
        if Bus.has_pending bus then 0 (* arbitration cycle *) else budget
  in
  let rec scan i k =
    if k = 0 then 0
    else if i >= Array.length states then k
    else
      match states.(i) with
      | None -> scan (i + 1) k
      | Some c -> (
          match c.done_cycle with
          | Some _ -> scan (i + 1) k
          | None ->
          if c.waiting_bus then
            (* A cleared grant means the core acts this cycle. *)
            if Bus.pending bus ~core:c.id then scan (i + 1) k else 0
          else if c.local_prefix < k then scan (i + 1) c.local_prefix
          else scan (i + 1) k)
  in
  scan 0 bus_k

(* Advance one core k cycles worth of eventless work. *)
let bulk_core bus k = function
  | None -> ()
  | Some c -> (
      match c.done_cycle with
      | Some _ -> ()
      | None ->
      if c.waiting_bus then begin
        c.bus_stall_cycles <- c.bus_stall_cycles + k;
        if not (Bus.serving bus ~core:c.id) then bump_idx c bus_i k
      end
      else begin
        let rem = ref k in
        while !rem > 0 do
          let h = c.q_head in
          let len = c.q_arg.(h) in
          let take = if !rem < len then !rem else len in
          set_loc c c.q_loc.(h);
          bump_idx c c.q_cat.(h) take;
          if take = len then begin
            c.instructions <- c.instructions + c.q_ret.(h);
            c.q_head <- h + 1
          end
          else c.q_arg.(h) <- len - take;
          rem := !rem - take
        done;
        c.local_prefix <- c.local_prefix - k
      end)

(* [take ()] hands out one queue set per active core. *)
let simulate cfg ~cores ~max_cycles ~take =
  let n = Array.length cores in
  let bus = Bus.create cfg.arbiter in
  let l2_for = make_l2s cfg n in
  let active =
    Array.fold_left
      (fun acc (s : core_setup) ->
        match s.program with None -> acc | Some _ -> acc + 1)
      0 cores
  in
  (* Whole-block dispatch is exact iff planning is clock-independent and
     nothing outside this core can perturb its caches between the
     reference's plan cycles (see the header comment). *)
  let batch =
    (match cfg.refresh with
    | Interconnect.Arbiter.Burst -> true
    | Interconnect.Arbiter.Distributed _ -> false)
    && (match cfg.i_path with
       | Conventional -> true
       | Method_cache _ -> false)
    && (match cfg.l2 with
       | No_l2 | Private_l2 _ -> true
       | Shared_l2 _ -> active <= 1)
  in
  let build () =
    Array.mapi
      (fun i (setup : core_setup) ->
        match init_core cfg l2_for i setup with
        | None -> None
        | Some ci ->
            let dec = decode_cached cfg ci.ci_program in
            let q = take () in
            let core =
              {
                id = i;
                ci;
                dec;
                q_cat = q.cat;
                q_arg = q.arg;
                q_vec = q.vec;
                q_loc = q.loc;
                q_ret = q.ret;
                q_head = 0;
                q_tail = 0;
                q_has_tx = false;
                local_prefix = 0;
                waiting_bus = false;
                done_cycle = None;
                instructions = 0;
                bus_stall_cycles = 0;
                attrib = Array.make ncats 0;
                block_attrib =
                  (if ci.ci_attrib_blocks then Some (Hashtbl.create 64)
                   else None);
                cur_block = None;
                last_i_line = min_int;
                last_d_line = min_int;
                l1d_line_size =
                  (Cache.Concrete.config ci.ci_l1d).Cache.Config.line_size;
                halted_sem = false;
                blocks_dispatched = 0;
                fallback_plans = 0;
              }
            in
            let entry = ci.ci_program.Isa.Program.entry in
            check_pc core entry;
            (* The entry function itself must be loaded first (method
               cache only, which implies the guarded path). *)
            (match ci.ci_mcache with
            | Some st -> (
                match mcache_miss_tx cfg.latencies st entry with
                | Some tx -> enq_tx core tx entry
                | None -> ())
            | None -> ());
            dispatch_group cfg bus core ~guarded:(not batch);
            Some core)
      cores
  in
  let obs = Obs.enabled () in
  let states =
    if obs then Obs.span ~cat:"sim" "sim.predecode" build else build ()
  in
  let all_done () =
    Array.for_all
      (function
        | None -> true
        | Some c -> ( match c.done_cycle with Some _ -> true | None -> false))
      states
  in
  let nstates = Array.length states in
  let bulk_cycles = ref 0 in
  (* The single core still running, when there is exactly one — the
     precondition for the turbo block path below. *)
  let sole_runner () =
    let rec go i found =
      if i >= nstates then found
      else
        match states.(i) with
        | None -> go (i + 1) found
        | Some c -> (
            match c.done_cycle with
            | Some _ -> go (i + 1) found
            | None -> ( match found with None -> go (i + 1) (Some c)
                      | Some _ -> None))
    in
    go 0 None
  in
  let rec loop cycles =
    if cycles >= max_cycles || all_done () then ()
    else begin
      (* Turbo path: one core left, at a block boundary, bus empty.  Its
         next block, if it plans no transactions, is a straight run of
         local cycles that no event can interrupt — dispatch it and
         retire the whole queue in one step.  Identical bookkeeping to
         refill-in-[step_core] followed by [window]/[bulk_core]: the
         plan happens at the same [Bus.now], every slot bumps the same
         (category, location) totals, retire tags land at the same
         completion cycles, and the idle bus just advances its clock. *)
      let turbo =
        if not batch then None
        else
          match Bus.in_service bus with
          | Some _ -> None
          | None -> (
              match sole_runner () with
              | Some c
                when (not c.waiting_bus)
                     && c.q_head = c.q_tail
                     && not (Bus.has_pending bus) ->
                  Some c
              | _ -> None)
      in
      match turbo with
      | Some c -> (
          refill cfg bus ~batch:true c;
          match c.done_cycle with
          | Some _ -> ()
          | None ->
              let t = c.local_prefix in
              if (not c.q_has_tx) && t <= max_cycles - cycles then begin
                for h = c.q_head to c.q_tail - 1 do
                  set_loc c c.q_loc.(h);
                  bump_idx c c.q_cat.(h) c.q_arg.(h);
                  c.instructions <- c.instructions + c.q_ret.(h)
                done;
                c.q_head <- c.q_tail;
                c.local_prefix <- 0;
                Bus.skip bus t;
                bulk_cycles := !bulk_cycles + t;
                loop (cycles + t)
              end
              else begin
                (* Queue pre-filled (at the same plan clock a refill in
                   [step_core] would have used); consume it normally. *)
                let k = window states bus (max_cycles - cycles) in
                if k > 1 then begin
                  for i = 0 to nstates - 1 do
                    bulk_core bus k states.(i)
                  done;
                  Bus.skip bus k;
                  bulk_cycles := !bulk_cycles + k;
                  loop (cycles + k)
                end
                else begin
                  step_core cfg bus ~batch c;
                  Bus.step bus;
                  loop (cycles + 1)
                end
              end)
      | None ->
          let k = window states bus (max_cycles - cycles) in
          if k > 1 then begin
            for i = 0 to nstates - 1 do
              bulk_core bus k states.(i)
            done;
            Bus.skip bus k;
            bulk_cycles := !bulk_cycles + k;
            loop (cycles + k)
          end
          else begin
            for i = 0 to nstates - 1 do
              match states.(i) with
              | None -> ()
              | Some c -> step_core cfg bus ~batch c
            done;
            Bus.step bus;
            loop (cycles + 1)
          end
    end
  in
  loop 0;
  if obs then begin
    Array.iter
      (function
        | None -> ()
        | Some c ->
            Obs.add "sim.predecode.uops" (Array.length c.dec.d_uops);
            Obs.add "sim.blocks" c.dec.d_nblocks;
            Obs.add "sim.blocks_dispatched" c.blocks_dispatched;
            Obs.add "sim.fallback_plans" c.fallback_plans)
      states;
    Obs.add "sim.bulk_cycles" !bulk_cycles
  end;
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

let run cfg ~cores ?(max_cycles = 10_000_000) () =
  let free = Domain.DLS.get free_queues in
  let held = ref [] in
  let take () =
    let q = take_queues free in
    held := q :: !held;
    q
  in
  Fun.protect
    ~finally:(fun () -> List.iter (give_back free) !held)
    (fun () -> simulate cfg ~cores ~max_cycles ~take)
