(* The spans named [name] that [f] opens, counted on a sink of their
   own, beside [f]'s result. *)
let spans name f =
  let sink = Obs.Sink.create () in
  let r = Obs.with_sink sink f in
  let opened =
    List.fold_left
      (fun acc tr ->
        List.fold_left
          (fun acc (e : Obs.Event.t) ->
            match e.Obs.Event.kind with
            | Obs.Event.Begin { name = n; _ } when n = name -> acc + 1
            | _ -> acc)
          acc (Obs.Sink.events tr))
      0 (Obs.Sink.tracks sink)
  in
  (r, opened)

(* The number of front ends [f] builds: its balanced ctx.build spans,
   beside [f]'s result. *)
let count f = spans "ctx.build" f
