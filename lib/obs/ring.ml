(* Bounded event ring.  Writes never block: the buffer starts small and
   doubles as it fills, up to the capacity, so a track that records a
   few events costs a few words, not the whole capacity; once full, the
   oldest event is overwritten and counted in [dropped].  Reading
   (export time) returns the surviving events oldest-first. *)

type t = {
  mutable buf : Event.t option array;
  capacity : int;
  mutable wr : int;  (* next write slot *)
  mutable len : int;
  mutable dropped : int;
}

let initial_size = 64

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create";
  {
    buf = Array.make (min capacity initial_size) None;
    capacity;
    wr = 0;
    len = 0;
    dropped = 0;
  }

(* Called only when the buffer is full below the capacity: nothing has
   been overwritten yet, so the events fill it in order from slot 0. *)
let grow t =
  let buf = Array.make (min t.capacity (2 * Array.length t.buf)) None in
  Array.blit t.buf 0 buf 0 t.len;
  t.buf <- buf;
  t.wr <- t.len

let push t e =
  if t.len = Array.length t.buf && t.len < t.capacity then grow t;
  let cap = Array.length t.buf in
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
  t.buf.(t.wr) <- Some e;
  t.wr <- (t.wr + 1) mod cap

let length t = t.len
let dropped t = t.dropped

let to_list t =
  let cap = Array.length t.buf in
  let first = (t.wr - t.len + cap) mod cap in
  List.init t.len (fun i ->
      match t.buf.((first + i) mod cap) with
      | Some e -> e
      | None -> assert false)
