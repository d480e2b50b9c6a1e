type kind = Counter | Gauge | Hist

type cell =
  | C_counter of int ref
  | C_gauge of int ref
  | C_hist of Histogram.t

type t = {
  lock : Mutex.t;
  cells : (string * kind, cell) Hashtbl.t;
  mutable order : (string * kind) list;  (* reversed *)
}

let create () = { lock = Mutex.create (); cells = Hashtbl.create 16; order = [] }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
      Mutex.unlock t.lock;
      x
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let cell t name kind mk =
  let key = (name, kind) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = mk () in
      Hashtbl.add t.cells key c;
      t.order <- key :: t.order;
      c

let add t name n =
  locked t (fun () ->
      match cell t name Counter (fun () -> C_counter (ref 0)) with
      | C_counter r -> r := !r + n
      | C_gauge _ | C_hist _ -> assert false)

let raise_counter t name v =
  match cell t name Counter (fun () -> C_counter (ref 0)) with
  | C_counter r -> if v > !r then r := v
  | C_gauge _ | C_hist _ -> assert false

let put_gauge t name v =
  match cell t name Gauge (fun () -> C_gauge (ref 0)) with
  | C_gauge r -> r := v
  | C_counter _ | C_hist _ -> assert false

let set_counter t name v = locked t (fun () -> raise_counter t name v)
let set_gauge t name v = locked t (fun () -> put_gauge t name v)

let mirror t values =
  locked t (fun () ->
      List.iter
        (function
          | `Counter (name, v) -> raise_counter t name v
          | `Gauge (name, v) -> put_gauge t name v)
        values)

let observe t name v =
  locked t (fun () ->
      match cell t name Hist (fun () -> C_hist (Histogram.create ())) with
      | C_hist h -> Histogram.observe h v
      | C_counter _ | C_gauge _ -> assert false)

type item =
  | Counter_v of string * int
  | Gauge_v of string * int
  | Hist_v of string * Histogram.snapshot

let snapshot t =
  locked t (fun () ->
      List.rev_map
        (fun ((name, kind) as key) ->
          match (kind, Hashtbl.find t.cells key) with
          | Counter, C_counter r -> Counter_v (name, !r)
          | Gauge, C_gauge r -> Gauge_v (name, !r)
          | Hist, C_hist h -> Hist_v (name, Histogram.snapshot h)
          | _ -> assert false)
        t.order)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Counter) with
      | Some (C_counter r) -> !r
      | _ -> 0)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Gauge) with
      | Some (C_gauge r) -> !r
      | _ -> 0)

let hist t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Hist) with
      | Some (C_hist h) -> Some (Histogram.snapshot h)
      | _ -> None)
