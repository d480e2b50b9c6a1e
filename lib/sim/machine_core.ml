(* Shared model between the two simulator interpreters: configuration
   and result types, per-core setup, the method-cache function map, the
   per-block attribution map, and the bus-transaction cost model.  Both
   [Reference] (the verbatim per-instruction stepper, kept as the
   differential oracle) and [Predecode] (the block-predecoded hot path)
   are built on exactly these definitions, so a divergence between them
   can only come from their stepping logic, never from the cost model. *)

type l2_config =
  | No_l2
  | Shared_l2 of Cache.Config.t
  | Private_l2 of Cache.Config.t array

type i_path = Conventional | Method_cache of Cache.Method_cache.config

type config = {
  latencies : Pipeline.Latencies.t;
  l1i : Cache.Config.t;
  l1d : Cache.Config.t;
  l2 : l2_config;
  arbiter : Interconnect.Arbiter.t;
  refresh : Interconnect.Arbiter.refresh_policy;
  i_path : i_path;
}

type core_setup = {
  program : Isa.Program.t option;
  init_regs : (int * int) list;
  init_data : (int * int) list;
  locked_l2_lines : int list;
  warm_i : int list;
  warm_d : int list;
  l2_bypass : int -> bool;
  attrib_blocks : bool;
}

let task program =
  {
    program = Some program;
    init_regs = [];
    init_data = [];
    locked_l2_lines = [];
    warm_i = [];
    warm_d = [];
    l2_bypass = (fun _ -> false);
    attrib_blocks = false;
  }

let idle =
  {
    program = None;
    init_regs = [];
    init_data = [];
    locked_l2_lines = [];
    warm_i = [];
    warm_d = [];
    l2_bypass = (fun _ -> false);
    attrib_blocks = false;
  }

type core_result = {
  cycles : int;
  halted : bool;
  instructions : int;
  l1i_hits : int;
  l1i_misses : int;
  l1d_hits : int;
  l1d_misses : int;
  max_bus_wait : int;
  bus_stall_cycles : int;
  attrib : Pipeline.Cost.Vec.t;
  block_attrib : ((string * int) * Pipeline.Cost.Vec.t) list;
  final_state : Isa.Exec.state option;
}

let idle_result =
  {
    cycles = 0;
    halted = true;
    instructions = 0;
    l1i_hits = 0;
    l1i_misses = 0;
    l1d_hits = 0;
    l1d_misses = 0;
    max_bus_wait = 0;
    bus_stall_cycles = 0;
    attrib = Pipeline.Cost.Vec.zero;
    block_attrib = [];
    final_state = None;
  }

let ncats = List.length Pipeline.Cost.categories

(* A bus transaction: its service latency and the category breakdown of
   that latency ([Vec.total tx_vec = tx_latency]).  The vector is charged
   in full at issue; the remaining serviced stall cycles are then skipped
   by the per-cycle accounting, while arbitration-wait stall cycles are
   charged to [Bus] one by one. *)
type tx = { tx_latency : int; tx_vec : Pipeline.Cost.Vec.t }

type mcache_state = {
  cache : Cache.Method_cache.t;
  mc_config : Cache.Method_cache.config;
  proc_of_instr : int array;  (* -1 = unknown *)
  proc_sizes : int array;
}

(* Function map for the method cache: which procedure an instruction
   belongs to, and each procedure's size in words. *)
let build_mcache mc program =
  let cg = Cfg.Callgraph.build program in
  let procs = Cfg.Callgraph.bottom_up cg in
  let proc_of_instr = Array.make (Isa.Program.length program) (-1) in
  let proc_sizes = Array.make (List.length procs) 0 in
  List.iteri
    (fun idx (_, (g : Cfg.Graph.t)) ->
      let size = ref 0 in
      for id = 0 to Cfg.Graph.num_blocks g - 1 do
        let b = Cfg.Graph.block g id in
        size := !size + Cfg.Block.length b;
        for i = b.Cfg.Block.first to b.Cfg.Block.last do
          if proc_of_instr.(i) < 0 then proc_of_instr.(i) <- idx
        done
      done;
      proc_sizes.(idx) <- !size)
    procs;
  {
    cache = Cache.Method_cache.create mc;
    mc_config = mc;
    proc_of_instr;
    proc_sizes;
  }

(* Instruction -> (procedure name, block id) map for per-block
   attribution; mirrors [build_mcache]'s first-wins convention for code
   shared between procedures. *)
let build_locs program =
  match Cfg.Callgraph.build program with
  | exception _ -> None
  | cg ->
      let locs = Array.make (Isa.Program.length program) None in
      List.iter
        (fun (name, (g : Cfg.Graph.t)) ->
          for id = 0 to Cfg.Graph.num_blocks g - 1 do
            let b = Cfg.Graph.block g id in
            for i = b.Cfg.Block.first to b.Cfg.Block.last do
              if locs.(i) = None then locs.(i) <- Some (name, id)
            done
          done)
        (Cfg.Callgraph.bottom_up cg);
      Some locs

(* Bus transaction for loading the function containing [instr], if it is
   not resident.  Function loads are DRAM traffic: the whole latency is
   attributed to [L2_miss], matching the analysis side's [mc_load_vec]. *)
let mcache_miss_tx lat st instr =
  if instr < 0 || instr >= Array.length st.proc_of_instr then None
  else
    let p = st.proc_of_instr.(instr) in
    if p < 0 then None
    else
      match Cache.Method_cache.access st.cache p with
      | `Hit -> None
      | `Miss ->
          let cost =
            Cache.Method_cache.load_cost st.mc_config
              ~mem_latency:lat.Pipeline.Latencies.mem
              ~size_words:st.proc_sizes.(p)
          in
          Some
            {
              tx_latency = cost;
              tx_vec = Pipeline.Cost.Vec.make Pipeline.Cost.L2_miss cost;
            }

(* Worst-case extra wait if a DRAM access can collide with a refresh. *)
let refresh_extra refresh clock =
  match refresh with
  | Interconnect.Arbiter.Burst -> 0
  | Interconnect.Arbiter.Distributed { interval; duration } ->
      if clock mod interval < duration then duration else 0

(* The bus transaction serving an L1 miss: L2 lookup plus DRAM on an L2
   miss.  The L2 state is updated here (issue time).  Attribution mirrors
   the analysis decomposition: the L2 lookup goes to [L1_miss], the DRAM
   latency to [L2_miss], and refresh collisions — memory-controller
   interference — to [Bus]. *)
let miss_tx cfg ~l2 ~l2_bypass clock addr =
  let lat = cfg.latencies in
  let bypassed =
    match l2 with
    | Some l2 ->
        l2_bypass (Cache.Config.line_of_addr (Cache.Concrete.config l2) addr)
    | None -> false
  in
  match (if bypassed then None else l2) with
  | None ->
      let refresh = refresh_extra cfg.refresh clock in
      {
        tx_latency = lat.Pipeline.Latencies.mem + refresh;
        tx_vec =
          {
            Pipeline.Cost.Vec.zero with
            l2_miss = lat.Pipeline.Latencies.mem;
            bus = refresh;
          };
      }
  | Some l2 -> (
      match Cache.Concrete.access l2 addr with
      | `Hit ->
          {
            tx_latency = lat.Pipeline.Latencies.l2_hit;
            tx_vec =
              Pipeline.Cost.Vec.make Pipeline.Cost.L1_miss
                lat.Pipeline.Latencies.l2_hit;
          }
      | `Miss ->
          let refresh = refresh_extra cfg.refresh clock in
          {
            tx_latency =
              lat.Pipeline.Latencies.l2_hit + lat.Pipeline.Latencies.mem
              + refresh;
            tx_vec =
              {
                Pipeline.Cost.Vec.zero with
                l1_miss = lat.Pipeline.Latencies.l2_hit;
                l2_miss = lat.Pipeline.Latencies.mem;
                bus = refresh;
              };
          })

(* Architectural + platform state of one active core before any
   interpreter-specific stepping machinery is attached. *)
type core_init = {
  ci_program : Isa.Program.t;
  ci_exec : Isa.Exec.state;
  ci_l1i : Cache.Concrete.t;
  ci_l1d : Cache.Concrete.t;
  ci_l2 : Cache.Concrete.t option;
  ci_mcache : mcache_state option;
  ci_locs : (string * int) option array option;
  ci_l2_bypass : int -> bool;
  ci_attrib_blocks : bool;
}

(* Per-core L2 instance selector (shared instance, private slice, or
   none); validates the [Private_l2] slice count. *)
let make_l2s cfg n =
  let l2_shared =
    match cfg.l2 with
    | Shared_l2 c -> Some (Cache.Concrete.create c)
    | No_l2 | Private_l2 _ -> None
  in
  fun i ->
    match cfg.l2 with
    | No_l2 -> None
    | Shared_l2 _ -> l2_shared
    | Private_l2 arr ->
        if Array.length arr <> n then
          invalid_arg "Machine.run: Private_l2 needs one slice per core"
        else Some (Cache.Concrete.create arr.(i))

let init_core cfg l2_for i (setup : core_setup) =
  match setup.program with
  | None -> None
  | Some program ->
      let exec = Isa.Exec.init program in
      List.iter
        (fun (r, v) -> if r <> 0 then exec.Isa.Exec.regs.(r) <- v)
        setup.init_regs;
      List.iter
        (fun (a, v) ->
          if Isa.Exec.in_range exec Isa.Instr.Data a then
            Isa.Exec.write_mem exec Isa.Instr.Data a v)
        setup.init_data;
      let l2 = l2_for i in
      (match l2 with
      | Some l2c ->
          List.iter
            (fun line ->
              Cache.Concrete.lock_line l2c
                (Cache.Config.addr_of_line (Cache.Concrete.config l2c) line))
            setup.locked_l2_lines
      | None -> ());
      let l1i = Cache.Concrete.create cfg.l1i in
      let l1d = Cache.Concrete.create cfg.l1d in
      List.iter (fun a -> ignore (Cache.Concrete.access l1i a)) setup.warm_i;
      List.iter (fun a -> ignore (Cache.Concrete.access l1d a)) setup.warm_d;
      let mcache =
        match cfg.i_path with
        | Conventional -> None
        | Method_cache mc -> Some (build_mcache mc program)
      in
      let locs = if setup.attrib_blocks then build_locs program else None in
      Some
        {
          ci_program = program;
          ci_exec = exec;
          ci_l1i = l1i;
          ci_l1d = l1d;
          ci_l2 = l2;
          ci_mcache = mcache;
          ci_locs = locs;
          ci_l2_bypass = setup.l2_bypass;
          ci_attrib_blocks = setup.attrib_blocks;
        }

(* Assemble the public per-core result from interpreter counters. *)
let result_of ~bus ~core ~(ci : core_init) ~done_cycle ~instructions
    ~bus_stall_cycles ~attrib ~block_attrib =
  let l1i_hits, l1i_misses = Cache.Concrete.stats ci.ci_l1i in
  let l1d_hits, l1d_misses = Cache.Concrete.stats ci.ci_l1d in
  let block_attrib =
    match block_attrib with
    | None -> []
    | Some tbl ->
        Hashtbl.fold
          (fun loc arr acc -> (loc, Pipeline.Cost.Vec.of_array arr) :: acc)
          tbl []
        |> List.sort compare
  in
  {
    cycles = (match done_cycle with Some cy -> cy | None -> Bus.now bus);
    halted = done_cycle <> None;
    instructions;
    l1i_hits;
    l1i_misses;
    l1d_hits;
    l1d_misses;
    max_bus_wait = Bus.max_wait bus ~core;
    bus_stall_cycles;
    attrib = Pipeline.Cost.Vec.of_array attrib;
    block_attrib;
    final_state = Some ci.ci_exec;
  }
