(* Flat CSV for the bench harness: completed spans (one row per
   Begin/End pair, depth-first completion order), instants, then the
   metrics registry.  Columns:

     kind,tid,track,cat,name,ts_ns,dur_ns,value

   - span rows:    span,<tid>,<track>,<cat>,<name>,<begin ns>,<dur ns>,
   - instant rows: instant,<tid>,<track>,<cat>,<name>,<ts ns>,,
   - counter events: ctr,<tid>,<track>,<cat>,<name>,<ts ns>,,k=v;k=v
   - counters:     counter,,,,<name>,,,<value>
   - gauges:       gauge,,,,<name>,,,<value>
   - histograms:   hist,,,,<name>,,,count=..;sum=..;min=..;max=..

   Fields are escaped with doubled quotes when they contain a comma,
   quote or newline, so the file stays loadable by any CSV reader. *)

let field s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') s then begin
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string b "\"\"" else Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  end
  else s

let header = "kind,tid,track,cat,name,ts_ns,dur_ns,value\n"

let to_csv sink =
  let b = Buffer.create 4096 in
  Buffer.add_string b header;
  let row kind tid track cat name ts dur value =
    Buffer.add_string b
      (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%s\n" kind tid (field track)
         (field cat) (field name) ts dur (field value))
  in
  List.iter
    (fun tr ->
      let tid = string_of_int (Sink.tid tr) in
      let tname = Sink.track_name tr in
      Sink.iter_spans tr
        ~span:(fun ~cat ~ts ~dur name ->
          row "span" tid tname cat name (Int64.to_string ts)
            (Int64.to_string dur) "")
        ~point:(fun (e : Event.t) ->
          match e.kind with
          | Event.Instant { name; cat; _ } ->
              row "instant" tid tname cat name (Int64.to_string e.ts) "" ""
          | Event.Counter { name; cat; args } ->
              row "ctr" tid tname cat name (Int64.to_string e.ts) ""
                (String.concat ";"
                   (List.map
                      (fun (k, v) -> k ^ "=" ^ Event.value_to_string v)
                      args))
          | Event.Begin _ | Event.End -> ()))
    (Sink.tracks sink);
  List.iter
    (function
      | Metrics.Counter_v (name, v) ->
          row "counter" "" "" "" name "" "" (string_of_int v)
      | Metrics.Gauge_v (name, v) ->
          row "gauge" "" "" "" name "" "" (string_of_int v)
      | Metrics.Hist_v (name, s) ->
          row "hist" "" "" "" name "" ""
            (Printf.sprintf "count=%d;sum=%d;min=%d;max=%d"
               s.Histogram.s_count s.Histogram.s_sum s.Histogram.s_min
               s.Histogram.s_max))
    (Metrics.snapshot (Sink.metrics sink));
  Buffer.contents b
