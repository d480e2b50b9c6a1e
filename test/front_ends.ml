(* The number of front ends [f] builds: its balanced ctx.build spans,
   beside [f]'s result. *)
let count f =
  let sink = Obs.Sink.create () in
  let r = Obs.with_sink sink f in
  let builds =
    List.fold_left
      (fun acc tr ->
        List.fold_left
          (fun acc (e : Obs.Event.t) ->
            match e.Obs.Event.kind with
            | Obs.Event.Begin { name = "ctx.build"; _ } -> acc + 1
            | _ -> acc)
          acc (Obs.Sink.events tr))
      0 (Obs.Sink.tracks sink)
  in
  (r, builds)
