type t = Buffer.t

let create () = Buffer.create 256

(* Tag + length prefix make the encoding injective per atom sequence. *)
let string b s =
  Buffer.add_char b 's';
  Buffer.add_string b (string_of_int (String.length s));
  Buffer.add_char b ':';
  Buffer.add_string b s

let int b i =
  Buffer.add_char b 'i';
  Buffer.add_string b (string_of_int i);
  Buffer.add_char b ';'

let ints b l =
  Buffer.add_char b 'l';
  Buffer.add_string b (string_of_int (List.length l));
  Buffer.add_char b ':';
  List.iter (int b) l

let bool b v = Buffer.add_char b (if v then 't' else 'f')

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let of_strings l =
  let b = create () in
  List.iter (string b) l;
  digest b
