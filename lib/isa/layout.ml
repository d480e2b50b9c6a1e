let data_base = 0x0010_0000
let stack_base = 0x0020_0000
let io_base = 0x0030_0000

let byte_addr space word_index =
  let base =
    match space with
    | Instr.Data -> data_base
    | Instr.Stack -> stack_base
    | Instr.Io -> io_base
  in
  base + (Program.word_size * word_index)

let is_cacheable = function
  | Instr.Data | Instr.Stack -> true
  | Instr.Io -> false
