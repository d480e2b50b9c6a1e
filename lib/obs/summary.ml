type phase = { name : string; total_ns : int64; calls : int }
type t = { phases : phase list; counters : (string * int) list }

let of_sink sink =
  let totals = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun tr ->
      Sink.iter_spans tr
        ~span:(fun ~cat ~ts:_ ~dur name ->
          if cat = "phase" then
            match Hashtbl.find_opt totals name with
            | Some (ns, calls) ->
                Hashtbl.replace totals name (Int64.add ns dur, calls + 1)
            | None ->
                Hashtbl.add totals name (dur, 1);
                order := name :: !order)
        ~point:ignore)
    (Sink.tracks sink);
  let phases =
    List.rev_map
      (fun name ->
        let total_ns, calls = Hashtbl.find totals name in
        { name; total_ns; calls })
      !order
  in
  let counters =
    List.filter_map
      (function
        | Metrics.Counter_v (name, v) -> Some (name, v)
        | Metrics.Gauge_v _ | Metrics.Hist_v _ -> None)
      (Metrics.snapshot (Sink.metrics sink))
  in
  { phases; counters }

let ms ns = Int64.to_float ns /. 1e6

let render t =
  let b = Buffer.create 256 in
  let w =
    List.fold_left
      (fun w name -> max w (String.length name))
      24
      (List.map (fun p -> p.name) t.phases @ List.map fst t.counters)
  in
  if t.phases <> [] then begin
    let total =
      List.fold_left (fun acc p -> Int64.add acc p.total_ns) 0L t.phases
    in
    Buffer.add_string b
      (Printf.sprintf "%-*s %12s %7s %8s\n" w "phase" "ms" "share" "calls");
    List.iter
      (fun p ->
        let share =
          if Int64.compare total 0L > 0 then
            100. *. Int64.to_float p.total_ns /. Int64.to_float total
          else 0.
        in
        Buffer.add_string b
          (Printf.sprintf "%-*s %12.3f %6.1f%% %8d\n" w p.name
             (ms p.total_ns) share p.calls))
      t.phases;
    Buffer.add_string b
      (Printf.sprintf "%-*s %12.3f %6.1f%%\n" w "total" (ms total) 100.)
  end;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%-*s %12d\n" w name v))
    t.counters;
  Buffer.contents b

let csv_header = "kind,name,value,calls\n"

let csv_rows t =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "phase,%s,%Ld,%d\n" p.name p.total_ns p.calls))
    t.phases;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "counter,%s,%d,\n" name v))
    t.counters;
  Buffer.contents b
