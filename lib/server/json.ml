type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---------------- printer ---------------- *)

let rec plain_from s i =
  i = String.length s
  ||
  match s.[i] with
  | '"' | '\\' -> false
  | c -> c >= ' ' && plain_from s (i + 1)

(* Names and keys rarely need escaping: a plain string is added as it
   is, without a character-by-character copy. *)
let add_escaped buf s =
  if plain_from s 0 then Buffer.add_string buf s
  else
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

let write_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let write_int buf i = Buffer.add_string buf (string_of_int i)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> write_int buf i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string buf (Printf.sprintf "%.1f" f)
      else begin
        let s = Printf.sprintf "%.17g" f in
        Buffer.add_string buf s;
        (* an integral float of 16 or 17 digits prints as bare digits,
           which would read back as an [Int] *)
        if String.for_all (fun c -> c = '-' || (c >= '0' && c <= '9')) s
        then Buffer.add_string buf ".0"
      end
  | Str s -> write_string buf s
  | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          write buf v)
        l;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  write buf v;
  Buffer.contents buf

(* ---------------- parser ---------------- *)

exception Fail of int * string

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None
let fail c msg = raise (Fail (c.pos, msg))

let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected %c" ch)

let literal c word v =
  if
    c.pos + String.length word <= String.length c.s
    && String.sub c.s c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail c ("expected " ^ word)

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.s then fail c "bad \\u escape";
                let hex = String.sub c.s c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail c "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* UTF-8 encode the code point (surrogates unpaired are
                   encoded as-is; good enough for a local protocol) *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
            | _ -> fail c "unknown escape");
            go ())
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch -> is_num_char ch | None -> false do
    advance c
  done;
  let text = String.sub c.s start (c.pos - start) in
  match int_of_string_opt text with
  | Some i -> Int i
  | None -> (
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail c "bad number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' -> Str (parse_string c)
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> fail c "expected , or ]"
        in
        items []
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let rec fields acc =
          let kv = field () in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              fields (kv :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev (kv :: acc))
          | _ -> fail c "expected , or }"
        in
        fields []
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected %c" ch)

let parse s =
  let c = { s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (pos, msg) ->
      Error (Printf.sprintf "JSON parse error at %d: %s" pos msg)

(* ---------------- accessors ---------------- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int i -> Some i | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List l -> Some l | _ -> None
let str_field k v = Option.bind (member k v) to_str
let int_field k v = Option.bind (member k v) to_int
