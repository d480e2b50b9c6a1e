type t = {
  name : string;
  code : Instr.t array;
  labels : (string * int) list;
  entry : int;
  base : int;
}

let word_size = 4

let make ~name ~code ~labels ?entry () =
  let n = Array.length code in
  List.iter
    (fun (l, i) ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Program.make: label %s out of range (%d)" l i))
    labels;
  let lookup l =
    match List.assoc_opt l labels with
    | Some i -> i
    | None ->
        invalid_arg (Printf.sprintf "Program.make: unknown label %s" l)
  in
  Array.iter
    (fun ins ->
      match ins with
      | Instr.Branch (_, _, _, l) | Instr.Jump l | Instr.Call l ->
          ignore (lookup l)
      | Instr.Alu _ | Instr.Alui _ | Instr.Load _ | Instr.Store _
      | Instr.Ret | Instr.Nop | Instr.Halt ->
          ())
    code;
  let entry =
    match entry with
    | Some l -> lookup l
    | None -> (
        match List.assoc_opt "main" labels with Some i -> i | None -> 0)
  in
  if n = 0 then invalid_arg "Program.make: empty program";
  let labels = List.sort (fun (_, a) (_, b) -> compare a b) labels in
  (* a private copy: writes to the caller's array cannot change it *)
  { name; code = Array.copy code; labels; entry; base = 0 }

let length t = Array.length t.code

let instr t i =
  if i < 0 || i >= Array.length t.code then
    invalid_arg (Printf.sprintf "Program.instr: index %d" i)
  else t.code.(i)

let label_index t l =
  match List.assoc_opt l t.labels with
  | Some i -> i
  | None -> raise Not_found

let label_at t i =
  let rec find = function
    | [] -> None
    | (l, j) :: rest -> if j = i then Some l else find rest
  in
  find t.labels

let addr_of_index t i = t.base + (word_size * i)

let index_of_addr t a =
  let off = a - t.base in
  if off < 0 || off mod word_size <> 0 || off / word_size >= length t then
    invalid_arg (Printf.sprintf "Program.index_of_addr: 0x%x" a)
  else off / word_size

let pp ppf t =
  Format.fprintf ppf "@[<v>; program %s (entry %d, base 0x%x)@," t.name
    t.entry t.base;
  Array.iteri
    (fun i ins ->
      (match label_at t i with
      | Some l -> Format.fprintf ppf "%s:@," l
      | None -> ());
      Format.fprintf ppf "  %a@," Instr.pp ins)
    t.code;
  Format.fprintf ppf "@]"
