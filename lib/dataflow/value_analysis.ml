type astate = Interval.t array

type result = {
  graph : Cfg.Graph.t;
  ins : astate array;
  outs : astate array;
  call_clobbers : string -> Isa.Instr.reg list;
}

let num_regs = Isa.Instr.num_regs

(* States are shared between blocks, edges and the result, and never
   mutated once built: a transfer copies its input once and updates the
   copy in place, and the lattice steps below return an operand itself
   when they change nothing, so [bottom], [top] and a joined-away
   operand can be shared. *)
let bottom = Array.make num_regs Interval.bottom

let top =
  let s = Array.make num_regs Interval.top in
  s.(0) <- Interval.const 0;
  s

(* Top-level loops, so a test allocates no closure. *)
let rec bottom_from (s : astate) i =
  i < num_regs && (Interval.is_bottom s.(i) || bottom_from s (i + 1))

let is_bottom_state s = bottom_from s 0

(* [a] with register [i] set to [f a.(i) b.(i)] for every register;
   [a] itself when no register changes. *)
let pointwise f (a : astate) (b : astate) =
  let out = ref a in
  for i = 0 to num_regs - 1 do
    let v = f a.(i) b.(i) in
    if v != a.(i) then begin
      if !out == a then out := Array.copy a;
      !out.(i) <- v
    end
  done;
  !out

let join_state a b =
  if is_bottom_state a then b
  else if is_bottom_state b then a
  else pointwise Interval.join a b

let widen_state old next = pointwise Interval.widen old next

let rec equal_from (a : astate) b i =
  i >= num_regs || (Interval.equal a.(i) b.(i) && equal_from a b (i + 1))

let equal_state a b = a == b || equal_from a b 0

(* Writes to [r0] are dropped: it is pinned to 0. *)
let set (st : astate) r v = if r <> 0 then st.(r) <- v

let alu_interval op a b =
  match (op : Isa.Instr.alu_op) with
  | Isa.Instr.Add -> Interval.add a b
  | Isa.Instr.Sub -> Interval.sub a b
  | Isa.Instr.Mul -> Interval.mul a b
  | Isa.Instr.Div -> Interval.div a b
  | Isa.Instr.Rem -> Interval.rem a b
  | Isa.Instr.And -> Interval.logical_and a b
  | Isa.Instr.Or -> Interval.logical_or a b
  | Isa.Instr.Xor -> Interval.logical_xor a b
  | Isa.Instr.Sll -> Interval.shift_left a b
  | Isa.Instr.Srl -> Interval.shift_right_logical a b
  | Isa.Instr.Slt -> Interval.slt a b

(* [ins]'s effect on a non-bottom register file of the caller's own,
   in place.  No transfer turns a non-bottom state into a bottom one:
   every interval operation on non-empty operands is non-empty. *)
let exec_instr ~call_clobbers ins st =
  match (ins : Isa.Instr.t) with
  | Isa.Instr.Alu (op, rd, rs1, rs2) ->
      set st rd (alu_interval op st.(rs1) st.(rs2))
  | Isa.Instr.Alui (op, rd, rs1, imm) ->
      set st rd (alu_interval op st.(rs1) (Interval.const imm))
  | Isa.Instr.Load (_, rd, _, _) -> set st rd Interval.top
  | Isa.Instr.Store _ | Isa.Instr.Branch _ | Isa.Instr.Jump _
  | Isa.Instr.Ret | Isa.Instr.Nop | Isa.Instr.Halt ->
      ()
  | Isa.Instr.Call callee ->
      (* Forget only what the callee (transitively) may write. *)
      List.iter (fun r -> set st r Interval.top) (call_clobbers callee)

let transfer_instr_with ~call_clobbers ins st =
  match (ins : Isa.Instr.t) with
  | Isa.Instr.Store _ | Isa.Instr.Branch _ | Isa.Instr.Jump _
  | Isa.Instr.Ret | Isa.Instr.Nop | Isa.Instr.Halt ->
      st
  | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Load _ | Isa.Instr.Call _
    ->
      if is_bottom_state st then st
      else begin
        let st = Array.copy st in
        exec_instr ~call_clobbers ins st;
        st
      end

let transfer_instr ins st =
  transfer_instr_with ~call_clobbers:(fun _ -> Clobbers.all_registers) ins st

(* One bottom test and one copy per block. *)
let transfer_block ~call_clobbers g id st =
  if is_bottom_state st then st
  else begin
    let b = Cfg.Graph.block g id in
    let st = Array.copy st in
    for i = b.Cfg.Block.first to b.Cfg.Block.last do
      exec_instr ~call_clobbers (Isa.Program.instr g.Cfg.Graph.program i) st
    done;
    st
  end

(* Refine [st] along edge [e] using the branch terminating [e.src]. *)
let refine_along g (e : Cfg.Graph.edge) st =
  if is_bottom_state st then st
  else
    let b = Cfg.Graph.block g e.src in
    match Cfg.Block.terminator g.Cfg.Graph.program b with
    | Isa.Instr.Branch (c, r1, r2, _) ->
        let taken = e.kind = Cfg.Graph.Taken in
        let a = st.(r1) and bv = st.(r2) in
        let a', b' =
          match (c, taken) with
          | Isa.Instr.Eq, true | Isa.Instr.Ne, false ->
              Interval.refine_eq a bv
          | Isa.Instr.Ne, true | Isa.Instr.Eq, false ->
              Interval.refine_ne a bv
          | Isa.Instr.Lt, true | Isa.Instr.Ge, false ->
              Interval.refine_lt a bv
          | Isa.Instr.Ge, true | Isa.Instr.Lt, false ->
              Interval.refine_ge a bv
        in
        if a' == a && b' == bv then st
        else begin
          let st = Array.copy st in
          set st r1 a';
          set st r2 b';
          st
        end
    | Isa.Instr.Alu _ | Isa.Instr.Alui _ | Isa.Instr.Load _
    | Isa.Instr.Store _ | Isa.Instr.Jump _ | Isa.Instr.Call _
    | Isa.Instr.Ret | Isa.Instr.Nop | Isa.Instr.Halt ->
        st

let analyze ?(widen_after = 3)
    ?(call_clobbers = fun _ -> Clobbers.all_registers) g =
  let n = Cfg.Graph.num_blocks g in
  let ins = Array.make n bottom in
  let outs = Array.make n bottom in
  ins.(g.Cfg.Graph.entry) <- top;
  let rpo = Cfg.Graph.reverse_postorder g in
  let compute_in id =
    if id = g.Cfg.Graph.entry then top
    else
      List.fold_left
        (fun acc (e : Cfg.Graph.edge) ->
          join_state acc (refine_along g e outs.(e.src)))
        bottom (Cfg.Graph.preds g id)
  in
  (* The widening clock is keyed on the round number: the classic sweep
     incremented every block's visit count once per sweep, so its
     per-block [visits > widen_after] test was really a sweep-number
     test, and [Worklist.run] guarantees rounds coincide with sweeps. *)
  let retransfer id input =
    Worklist.count_transfer ();
    let out = transfer_block ~call_clobbers g id input in
    let out_changed = not (equal_state out outs.(id)) in
    outs.(id) <- out;
    if out_changed then `Out_changed else `In_changed
  in
  let (_ : int) =
    Worklist.run g ~name:"value-analysis"
      ~process:(fun ~round id ->
        let input = compute_in id in
        let input =
          if round - 1 > widen_after then widen_state ins.(id) input
          else input
        in
        if not (equal_state input ins.(id)) then begin
          ins.(id) <- input;
          retransfer id input
        end
        else if is_bottom_state outs.(id) && not (is_bottom_state input)
        then retransfer id input
        else `Unchanged)
      ()
  in
  (* One narrowing sweep recovers precision lost to widening where the
     refined inputs are strictly smaller. *)
  List.iter
    (fun id ->
      let input = compute_in id in
      let narrowed = pointwise Interval.meet ins.(id) input in
      ins.(id) <- narrowed;
      outs.(id) <- transfer_block ~call_clobbers g id narrowed)
    rpo;
  { graph = g; ins; outs; call_clobbers }

let block_in r id = r.ins.(id)
let block_out r id = r.outs.(id)

let state_before_instr r g i =
  match Cfg.Graph.block_of_instr g i with
  | None -> None
  | Some id ->
      let b = Cfg.Graph.block g id in
      let rec replay st j =
        if j >= i then st
        else
          replay
            (transfer_instr_with ~call_clobbers:r.call_clobbers
               (Isa.Program.instr g.Cfg.Graph.program j)
               st)
            (j + 1)
      in
      Some (replay r.ins.(id) b.Cfg.Block.first)

let states_before_instrs r g id =
  let b = Cfg.Graph.block g id in
  let states = Array.make (Cfg.Block.length b) r.ins.(id) in
  for k = 1 to Array.length states - 1 do
    states.(k) <-
      transfer_instr_with ~call_clobbers:r.call_clobbers
        (Isa.Program.instr g.Cfg.Graph.program (b.Cfg.Block.first + k - 1))
        states.(k - 1)
  done;
  states

let reg_interval st r = st.(r)

let edge_state r g e = refine_along g e r.outs.(e.Cfg.Graph.src)

let pp_astate ppf st =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i v ->
      if not (Interval.equal v Interval.top) && i > 0 then
        Format.fprintf ppf "r%d=%a " i Interval.pp v)
    st;
  Format.fprintf ppf "@]"
