type stat = { mutable total_ns : int; mutable self_ns : int }
type t = (string, stat) Hashtbl.t

let create () : t = Hashtbl.create 64

let record (t : t) name ~dur ~self =
  let s =
    match Hashtbl.find_opt t name with
    | Some s -> s
    | None ->
        let s = { total_ns = 0; self_ns = 0 } in
        Hashtbl.replace t name s;
        s
  in
  s.total_ns <- s.total_ns + dur;
  s.self_ns <- s.self_ns + self

let add ?(skip = fun ~cat:_ -> false) t events =
  (* one frame per open span: name, skipped, start, time covered by
     children *)
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Begin { name; cat; _ } ->
          stack := (name, skip ~cat, e.Obs.Event.ts, ref 0) :: !stack
      | Obs.Event.End -> (
          match !stack with
          | (name, skipped, t0, kids) :: rest ->
              let dur = Int64.to_int (Int64.sub e.Obs.Event.ts t0) in
              stack := rest;
              if not skipped then record t name ~dur ~self:(dur - !kids);
              (match rest with
              | (_, _, _, parent_kids) :: _ ->
                  parent_kids := !parent_kids + dur
              | [] -> ())
          | [] -> ())
      | Obs.Event.Instant _ | Obs.Event.Counter _ -> ())
    events

let add_sink ?skip t sink =
  List.iter (fun tr -> add ?skip t (Obs.Sink.events tr)) (Obs.Sink.tracks sink)

let self_ns t name =
  match Hashtbl.find_opt t name with Some s -> s.self_ns | None -> 0

let total_ns t name =
  match Hashtbl.find_opt t name with Some s -> s.total_ns | None -> 0

let covered_ns t = Hashtbl.fold (fun _ s acc -> acc + s.self_ns) t 0
