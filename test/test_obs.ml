(* Observability layer: histogram bucketing, span well-formedness under
   ring wrap, deterministic merge across worker counts, and exporter
   round-trips on a recorded pool run. *)

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_histogram_buckets () =
  let check_bucket v expected =
    Alcotest.(check int)
      (Printf.sprintf "bucket_of %d" v)
      expected (Obs.Histogram.bucket_of v)
  in
  check_bucket min_int 0;
  check_bucket (-5) 0;
  check_bucket 0 0;
  check_bucket 1 1;
  check_bucket 2 2;
  check_bucket 3 2;
  check_bucket 4 3;
  check_bucket 7 3;
  check_bucket 8 4;
  check_bucket 100 7;
  check_bucket max_int 62;
  Alcotest.(check (pair int int)) "bounds 0" (min_int, 1)
    (Obs.Histogram.bucket_bounds 0);
  Alcotest.(check (pair int int)) "bounds 1" (1, 2)
    (Obs.Histogram.bucket_bounds 1);
  Alcotest.(check (pair int int)) "bounds 4" (8, 16)
    (Obs.Histogram.bucket_bounds 4);
  Alcotest.(check (pair int int)) "bounds 62 clamps" (1 lsl 61, max_int)
    (Obs.Histogram.bucket_bounds 62);
  (* Every value lands inside its own bucket's half-open range (modulo
     the max_int clamp of the top buckets). *)
  List.iter
    (fun v ->
      let lo, hi = Obs.Histogram.bucket_bounds (Obs.Histogram.bucket_of v) in
      Alcotest.(check bool)
        (Printf.sprintf "%d within bounds" v)
        true
        (lo <= v && (v < hi || hi = max_int)))
    [ min_int; -1; 0; 1; 2; 3; 5; 9; 1023; 1024; 123_456_789; max_int ]

let test_histogram_snapshot_and_merge () =
  let h = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h) [ 1; 1; 3; 100 ];
  let s = Obs.Histogram.snapshot h in
  Alcotest.(check int) "count" 4 s.Obs.Histogram.s_count;
  Alcotest.(check int) "sum" 105 s.Obs.Histogram.s_sum;
  Alcotest.(check int) "min" 1 s.Obs.Histogram.s_min;
  Alcotest.(check int) "max" 100 s.Obs.Histogram.s_max;
  Alcotest.(check (list (pair int int)))
    "buckets"
    [ (1, 2); (2, 1); (7, 1) ]
    s.Obs.Histogram.s_buckets;
  let h2 = Obs.Histogram.create () in
  List.iter (Obs.Histogram.observe h2) [ 2; 100 ];
  Obs.Histogram.merge_into ~into:h h2;
  let s = Obs.Histogram.snapshot h in
  Alcotest.(check int) "merged count" 6 s.Obs.Histogram.s_count;
  Alcotest.(check int) "merged sum" 207 s.Obs.Histogram.s_sum;
  Alcotest.(check (list (pair int int)))
    "merged buckets"
    [ (1, 2); (2, 2); (7, 2) ]
    s.Obs.Histogram.s_buckets

(* ------------------------------------------------------------------ *)
(* Span well-formedness                                                *)
(* ------------------------------------------------------------------ *)

(* Balanced and properly nested: every [End] closes an open [Begin] and
   nothing is left open. *)
let check_well_formed what events =
  let depth = ref 0 in
  List.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Event.Begin _ -> incr depth
      | Obs.Event.End ->
          decr depth;
          if !depth < 0 then Alcotest.fail (what ^ ": End with no open Begin")
      | Obs.Event.Instant _ | Obs.Event.Counter _ -> ())
    events;
  Alcotest.(check int) (what ^ ": all spans closed") 0 !depth

let test_span_nesting () =
  let sink = Obs.Sink.create () in
  Obs.with_sink sink (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span ~cat:"x" "inner" (fun () -> Obs.instant "tick");
          Obs.span "sibling" ignore);
      (* The End must be recorded even when the body raises. *)
      try Obs.span "fails" (fun () -> failwith "boom")
      with Failure _ -> ());
  match Obs.Sink.tracks sink with
  | [ tr ] ->
      let events = Obs.Sink.events tr in
      check_well_formed "nesting" events;
      let begins =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.kind with
            | Obs.Event.Begin { name; _ } -> Some name
            | _ -> None)
          events
      in
      Alcotest.(check (list string))
        "span order"
        [ "outer"; "inner"; "sibling"; "fails" ]
        begins
  | trs -> Alcotest.fail (Printf.sprintf "expected 1 track, got %d" (List.length trs))

let test_ring_wrap_stays_balanced () =
  let sink = Obs.Sink.create ~track_capacity:8 () in
  let tr = Obs.Sink.new_track sink "wrap" in
  (* 3x the capacity in nested spans: the ring overwrites the oldest
     events, leaving orphan Ends at the front and unclosed Begins at the
     back for [events] to repair. *)
  for i = 1 to 12 do
    let ts = Int64.of_int (100 * i) in
    Obs.Sink.begin_at tr ~ts "outer";
    Obs.Sink.begin_at tr ~ts:(Int64.add ts 1L) "inner";
    Obs.Sink.end_at tr ~ts:(Int64.add ts 2L);
    Obs.Sink.end_at tr ~ts:(Int64.add ts 3L)
  done;
  Alcotest.(check bool) "events were dropped" true (Obs.Sink.dropped tr > 0);
  check_well_formed "after wrap" (Obs.Sink.events tr)

(* The buffer grows from 64 slots to the capacity on demand: across the
   growth steps and past the capacity, a ring holds exactly the newest
   [min pushed capacity] events in order and counts the rest dropped. *)
let test_ring_keeps_newest () =
  List.iter
    (fun (capacity, pushed) ->
      let r = Obs.Ring.create capacity in
      for i = 1 to pushed do
        Obs.Ring.push r
          {
            Obs.Event.ts = Int64.of_int i;
            kind = Obs.Event.Instant { name = ""; cat = ""; args = [] };
          }
      done;
      let kept = min pushed capacity in
      let what = Printf.sprintf "capacity %d, %d pushed" capacity pushed in
      Alcotest.(check (list int64))
        what
        (List.init kept (fun i -> Int64.of_int (pushed - kept + i + 1)))
        (List.map
           (fun (e : Obs.Event.t) -> e.Obs.Event.ts)
           (Obs.Ring.to_list r));
      Alcotest.(check int) (what ^ ": dropped") (pushed - kept)
        (Obs.Ring.dropped r))
    [
      (1, 3);
      (8, 5);
      (64, 64);
      (64, 65);
      (65, 64);
      (65, 66);
      (100, 130);
      (200, 129);
      (200, 450);
      (1 lsl 16, 1000);
    ]

(* ------------------------------------------------------------------ *)
(* Deterministic merge                                                 *)
(* ------------------------------------------------------------------ *)

(* Six jobs record spans with explicit (virtual) timestamps onto their
   per-job tracks; pool bookkeeping (worker spans, queue waits) carries
   cat:"pool" and is filtered out.  Per-job tracks are registered in job
   order, so the filtered export must be bit-identical at any worker
   count. *)
let traced_pool_run ~workers =
  let sink = Obs.Sink.create () in
  let jobs =
    List.init 6 (fun i ->
        Engine.Pool.job
          ~label:(Printf.sprintf "j%d" i)
          (fun _ ->
            let base = Int64.of_int (1000 * (i + 1)) in
            Obs.emit_begin ~ts:base ~cat:"test"
              ~args:[ ("i", Obs.Event.Int i) ]
              "outer";
            Obs.emit_begin ~ts:(Int64.add base 10L) ~cat:"test" "inner";
            Obs.emit_end ~ts:(Int64.add base 20L);
            Obs.emit_end ~ts:(Int64.add base 30L)))
  in
  let outcomes = Obs.with_sink sink (fun () -> Engine.Pool.run ~workers jobs) in
  List.iter
    (function
      | Engine.Pool.Done () -> ()
      | Engine.Pool.Failed { label; error } ->
          Alcotest.fail (Printf.sprintf "job %s failed: %s" label error)
      | Engine.Pool.Timed_out { label; _ } ->
          Alcotest.fail (Printf.sprintf "job %s timed out" label))
    outcomes;
  sink

let test_deterministic_merge () =
  let export sink =
    Obs.Trace_export.to_json ~keep:(fun ~cat -> cat <> "pool") sink
  in
  let a = export (traced_pool_run ~workers:1) in
  let b = export (traced_pool_run ~workers:4) in
  Alcotest.(check bool) "job tracks present" true
    (Astring.String.is_infix ~affix:"job:j5" a);
  Alcotest.(check bool) "worker tracks filtered" true
    (not (Astring.String.is_infix ~affix:"worker" a));
  Alcotest.(check string) "1 vs 4 workers bit-identical" a b

(* ------------------------------------------------------------------ *)
(* Exporter round-trip on a recorded pool run                          *)
(* ------------------------------------------------------------------ *)

(* Minimal line-oriented scanning of the JSON export (no JSON parser in
   the test deps): one event per line by construction. *)
let field_int line key =
  match Astring.String.find_sub ~sub:(Printf.sprintf "\"%s\":" key) line with
  | None -> None
  | Some i ->
      let start = i + String.length key + 3 in
      let j = ref start in
      while
        !j < String.length line
        && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr j
      done;
      int_of_string_opt (String.sub line start (!j - start))

let field_float line key =
  match Astring.String.find_sub ~sub:(Printf.sprintf "\"%s\":" key) line with
  | None -> None
  | Some i ->
      let start = i + String.length key + 3 in
      let j = ref start in
      while
        !j < String.length line
        &&
        match line.[!j] with '0' .. '9' | '-' | '.' -> true | _ -> false
      do
        incr j
      done;
      float_of_string_opt (String.sub line start (!j - start))

let test_trace_export_round_trip () =
  let sink = traced_pool_run ~workers:2 in
  let json = Obs.Trace_export.to_json sink in
  let lines = String.split_on_char '\n' json in
  let has sub line = Astring.String.is_infix ~affix:sub line in
  let begins = List.filter (has "\"ph\":\"B\"") lines in
  let ends = List.filter (has "\"ph\":\"E\"") lines in
  Alcotest.(check int) "balanced B/E" (List.length begins) (List.length ends);
  Alcotest.(check bool) "has events" true (List.length begins > 0);
  (* Every event names a pid and tid; ts is monotone per tid. *)
  let last_ts = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if has "\"ph\":\"B\"" line || has "\"ph\":\"E\"" line then begin
        Alcotest.(check (option int)) "pid" (Some 1) (field_int line "pid");
        let tid =
          match field_int line "tid" with
          | Some t -> t
          | None -> Alcotest.fail ("event without tid: " ^ line)
        in
        let ts =
          match field_float line "ts" with
          | Some t -> t
          | None -> Alcotest.fail ("event without ts: " ^ line)
        in
        (match Hashtbl.find_opt last_ts tid with
        | Some prev when prev > ts ->
            Alcotest.fail (Printf.sprintf "ts not monotone on tid %d" tid)
        | _ -> ());
        Hashtbl.replace last_ts tid ts
      end)
    lines;
  (* One thread_name metadata record per track that has events. *)
  let names = List.filter (has "thread_name") lines in
  Alcotest.(check int) "thread_name per populated track"
    (Hashtbl.length last_ts) (List.length names)

let test_csv_export_round_trip () =
  let sink = traced_pool_run ~workers:2 in
  let csv = Obs.Csv_export.to_csv sink in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' csv)
  in
  (match lines with
  | header :: _ ->
      Alcotest.(check string) "header first"
        (String.trim Obs.Csv_export.header)
        header
  | [] -> Alcotest.fail "empty csv");
  let commas s =
    String.fold_left (fun acc c -> if c = ',' then acc + 1 else acc) 0 s
  in
  List.iter
    (fun line ->
      Alcotest.(check int) ("field count: " ^ line) 7 (commas line))
    lines;
  (* The job spans and the pool's queue-wait histogram both made it. *)
  Alcotest.(check bool) "span rows" true
    (List.exists (Astring.String.is_infix ~affix:"span,") lines);
  Alcotest.(check bool) "queue-wait histogram" true
    (List.exists (Astring.String.is_infix ~affix:"pool.queue_wait_ns") lines)

(* ------------------------------------------------------------------ *)
(* Request traces                                                      *)
(* ------------------------------------------------------------------ *)

type shape = Node of shape list

let shape_gen =
  QCheck.Gen.(
    sized_size (int_bound 24)
      (fix (fun self n ->
           if n <= 0 then return (Node [])
           else
             list_size (int_bound 3) (self (n / 2)) >>= fun kids ->
             return (Node kids))))

let rec shape_count (Node kids) =
  List.fold_left (fun acc k -> acc + shape_count k) 1 kids

let rec shape_print (Node kids) =
  "(" ^ String.concat "" (List.map shape_print kids) ^ ")"

let record_shape rt shape =
  let n = ref 0 in
  let rec go s =
    match s with
    | Node kids ->
        incr n;
        Obs.Reqtrace.span rt (Printf.sprintf "n%d" !n) (fun () ->
            List.iter go kids)
  in
  go shape

let tree_facts rt =
  List.map
    (fun sp ->
      Obs.Reqtrace.(sp.sp_id, sp.sp_parent, sp.sp_name))
    (Obs.Reqtrace.spans rt)

(* The exported span tree is connected at any recording volume: one
   root (id 1, parent 0), contiguous ids, every parent recorded before
   (and with a smaller id than) its children — including under the
   [max_spans] cap — and the (id, parent, name) tree is a pure function
   of the request. *)
let prop_reqtrace_connected =
  QCheck.Test.make ~count:200 ~name:"reqtrace tree connected"
    (QCheck.make
       ~print:(fun (s, cap) -> Printf.sprintf "%s cap=%d" (shape_print s) cap)
       QCheck.Gen.(pair shape_gen (oneofl [ 4; 8; Obs.Reqtrace.default_max_spans ])))
    (fun (shape, cap) ->
      let mk () =
        let rt = Obs.Reqtrace.create ~max_spans:cap ~id:"t-q" "request" in
        record_shape rt shape;
        ignore (Obs.Reqtrace.finish rt ~outcome:"cold" ());
        rt
      in
      let rt = mk () in
      let sps = Obs.Reqtrace.spans rt in
      let nodes = shape_count shape in
      let expect_recorded = 1 + min nodes (cap - 1) in
      (match sps with
      | { Obs.Reqtrace.sp_id = 1; sp_parent = 0; _ } :: _ -> ()
      | _ -> QCheck.Test.fail_report "no root span first");
      if List.length sps <> expect_recorded then
        QCheck.Test.fail_reportf "recorded %d spans, expected %d"
          (List.length sps) expect_recorded;
      if Obs.Reqtrace.truncated rt <> nodes - (expect_recorded - 1) then
        QCheck.Test.fail_reportf "truncated %d, expected %d"
          (Obs.Reqtrace.truncated rt)
          (nodes - (expect_recorded - 1));
      List.iteri
        (fun i sp ->
          if sp.Obs.Reqtrace.sp_id <> i + 1 then
            QCheck.Test.fail_reportf "ids not contiguous at %d" i)
        sps;
      let ids =
        List.fold_left
          (fun acc sp -> Obs.Reqtrace.(sp.sp_id) :: acc)
          [] sps
      in
      List.iter
        (fun sp ->
          let open Obs.Reqtrace in
          if sp.sp_id <> 1 then begin
            if sp.sp_parent >= sp.sp_id then
              QCheck.Test.fail_reportf "span %d: parent %d not smaller"
                sp.sp_id sp.sp_parent;
            if not (List.mem sp.sp_parent ids) then
              QCheck.Test.fail_reportf "span %d: parent %d missing" sp.sp_id
                sp.sp_parent
          end)
        sps;
      (* same request, same tree *)
      if tree_facts rt <> tree_facts (mk ()) then
        QCheck.Test.fail_report "tree not deterministic";
      true)

let test_reqtrace_scope () =
  let rt = Obs.Reqtrace.create ~id:"t-scope" "request" in
  Obs.Reqtrace.with_scope rt ~parent:(Obs.Reqtrace.root rt) (fun () ->
      (match Obs.Reqtrace.scoped_begin "job" with
      | Obs.Reqtrace.Scoped (Some (id, parent, tid)) ->
          Alcotest.(check int) "job id" 2 id;
          Alcotest.(check int) "job parent is root" 1 parent;
          Alcotest.(check string) "trace id" "t-scope" tid
      | _ -> Alcotest.fail "scope not active");
      (match Obs.Reqtrace.scoped_begin "inner" with
      | Obs.Reqtrace.Scoped (Some (_, parent, _)) ->
          Alcotest.(check int) "inner nests under job" 2 parent
      | _ -> Alcotest.fail "inner not scoped");
      Obs.Reqtrace.scoped_end ();
      Obs.Reqtrace.scoped_end ());
  (match Obs.Reqtrace.scoped_begin "outside" with
  | Obs.Reqtrace.Inactive -> ()
  | _ -> Alcotest.fail "scope leaked past with_scope");
  ignore (Obs.Reqtrace.finish rt ~outcome:"cold" ());
  Alcotest.(check int) "spans" 3 (List.length (Obs.Reqtrace.spans rt))

(* With a sink installed and a scope active, [Obs.span] lands in both
   the ring (tagged with trace/span/parent args) and the request
   trace — the propagation the server's service jobs rely on. *)
let test_obs_span_routes_into_scope () =
  let sink = Obs.Sink.create () in
  let rt = Obs.Reqtrace.create ~id:"t-route" "request" in
  Obs.with_sink sink (fun () ->
      Obs.Reqtrace.with_scope rt ~parent:1 (fun () ->
          Obs.span "phase" (fun () -> Obs.span "sub" ignore)));
  Alcotest.(check int) "trace got the spans" 3
    (List.length (Obs.Reqtrace.spans rt));
  match Obs.Sink.tracks sink with
  | [ tr ] ->
      let tagged =
        List.exists
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.kind with
            | Obs.Event.Begin { args; _ } ->
                List.mem_assoc "trace" args
                && List.assoc "trace" args = Obs.Event.Str "t-route"
                && List.mem_assoc "span" args
                && List.mem_assoc "parent" args
            | _ -> false)
          (Obs.Sink.events tr)
      in
      Alcotest.(check bool) "ring events trace-tagged" true tagged
  | trs ->
      Alcotest.fail (Printf.sprintf "expected 1 track, got %d" (List.length trs))

(* ------------------------------------------------------------------ *)
(* Sampler                                                             *)
(* ------------------------------------------------------------------ *)

let test_sampler_one_in_n () =
  let s = Obs.Sampler.create ~slow_ms:(-1) ~every:4 () in
  let kept = ref [] in
  for i = 0 to 99 do
    let d = Obs.Sampler.decide s ~cold:true ~error:false ~dur_ns:1000L in
    if d.Obs.Sampler.keep then kept := i :: !kept;
    Alcotest.(check bool) (Printf.sprintf "not slow at %d" i) false
      d.Obs.Sampler.slow
  done;
  let kept = List.rev !kept in
  Alcotest.(check int) "exactly 1-in-4 of 100" 25 (List.length kept);
  Alcotest.(check (list int)) "first cold kept, then every 4th"
    (List.init 25 (fun i -> 4 * i))
    kept

let test_sampler_errors_and_slow () =
  (* errors always kept, even with sampling off *)
  let s = Obs.Sampler.create ~slow_ms:(-1) ~every:0 () in
  let d = Obs.Sampler.decide s ~cold:true ~error:true ~dur_ns:0L in
  Alcotest.(check bool) "error kept" true d.Obs.Sampler.keep;
  Alcotest.(check bool) "error not slow" false d.Obs.Sampler.slow;
  let d = Obs.Sampler.decide s ~cold:true ~error:false ~dur_ns:0L in
  Alcotest.(check bool) "non-error dropped" false d.Obs.Sampler.keep;
  (* threshold semantics: >= slow_ms is slow and kept *)
  let s = Obs.Sampler.create ~slow_ms:10 ~every:0 () in
  let at ns = Obs.Sampler.decide s ~cold:false ~error:false ~dur_ns:ns in
  Alcotest.(check bool) "below threshold" false (at 9_999_999L).Obs.Sampler.slow;
  let d = at 10_000_000L in
  Alcotest.(check bool) "at threshold slow" true d.Obs.Sampler.slow;
  Alcotest.(check bool) "at threshold kept" true d.Obs.Sampler.keep;
  (* slow_ms = 0: everything is slow; negative: nothing ever is *)
  let s0 = Obs.Sampler.create ~slow_ms:0 ~every:0 () in
  Alcotest.(check bool) "0 means everything" true
    (Obs.Sampler.decide s0 ~cold:false ~error:false ~dur_ns:0L).Obs.Sampler.slow;
  let sn = Obs.Sampler.create ~slow_ms:(-1) ~every:0 () in
  Alcotest.(check bool) "negative means never" false
    (Obs.Sampler.decide sn ~cold:false ~error:false ~dur_ns:Int64.max_int)
      .Obs.Sampler.slow

let test_sampler_hot_does_not_consume () =
  let s = Obs.Sampler.create ~slow_ms:(-1) ~every:2 () in
  let cold () =
    (Obs.Sampler.decide s ~cold:true ~error:false ~dur_ns:0L).Obs.Sampler.keep
  in
  let hot () =
    (Obs.Sampler.decide s ~cold:false ~error:false ~dur_ns:0L).Obs.Sampler.keep
  in
  Alcotest.(check bool) "first cold kept" true (cold ());
  for i = 1 to 5 do
    Alcotest.(check bool) (Printf.sprintf "hot %d never kept" i) false (hot ())
  done;
  Alcotest.(check bool) "second cold skipped (hots consumed nothing)" false
    (cold ());
  Alcotest.(check bool) "third cold kept" true (cold ())

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let test_flight_bounded () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "paratime-flight-test"
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let f = Obs.Flight.open_ ~max_files:5 dir in
      for i = 0 to 11 do
        match Obs.Flight.record f ~name:(Printf.sprintf "t%d" i) "{}" with
        | Some _ -> ()
        | None -> Alcotest.fail (Printf.sprintf "dump %d failed" i)
      done;
      let expect =
        List.init 5 (fun i ->
            Printf.sprintf "%08d-t%d.json" (i + 7) (i + 7))
      in
      Alcotest.(check (list string)) "oldest pruned" expect (Obs.Flight.files f);
      let on_disk = List.sort compare (Array.to_list (Sys.readdir dir)) in
      Alcotest.(check (list string)) "disk matches" expect on_disk;
      (* a reopen rescans and continues the sequence *)
      let f2 = Obs.Flight.open_ ~max_files:5 dir in
      (match Obs.Flight.record f2 ~name:"later" "{}" with
      | Some b -> Alcotest.(check string) "seq continues" "00000012-later.json" b
      | None -> Alcotest.fail "reopened dump failed");
      (* client-supplied names are sanitised into the basename *)
      match Obs.Flight.record f2 ~name:"../e vil/id" "{}" with
      | Some b ->
          Alcotest.(check string) "sanitised" "00000013-.._e_vil_id.json" b
      | None -> Alcotest.fail "sanitised dump failed")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_golden () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.add m "server.requests" 3;
  Obs.Metrics.set_gauge m "service.queue_depth" 2;
  List.iter (Obs.Metrics.observe m "server.request_ns") [ 1; 3; 100 ];
  let expected =
    String.concat "\n"
      [
        "# TYPE paratime_server_requests_total counter";
        "paratime_server_requests_total 3";
        "# TYPE paratime_service_queue_depth gauge";
        "paratime_service_queue_depth 2";
        "# TYPE paratime_server_request_ns histogram";
        "paratime_server_request_ns_bucket{le=\"2\"} 1";
        "paratime_server_request_ns_bucket{le=\"4\"} 2";
        "paratime_server_request_ns_bucket{le=\"128\"} 3";
        "paratime_server_request_ns_bucket{le=\"+Inf\"} 3";
        "paratime_server_request_ns_sum 104";
        "paratime_server_request_ns_count 3";
        "";
      ]
  in
  Alcotest.(check string) "exposition" expected (Obs.Prometheus.render m)

(* The [le] values are the exact log2 bucket upper bounds: parse them
   back out of the exposition and check each observed value lands in
   the first bucket whose bound exceeds it (cumulative counts). *)
let test_prometheus_bucket_round_trip () =
  let m = Obs.Metrics.create () in
  let values = [ 1; 2; 3; 100; 1 lsl 40 ] in
  List.iter (Obs.Metrics.observe m "lat") values;
  let lines = String.split_on_char '\n' (Obs.Prometheus.render m) in
  let les =
    List.filter_map
      (fun line ->
        match Astring.String.cut ~sep:"{le=\"" line with
        | Some (_, rest) -> (
            match Astring.String.cut ~sep:"\"} " rest with
            | Some (le, count) -> Some (le, int_of_string count)
            | None -> None)
        | None -> None)
      lines
  in
  (match List.rev les with
  | ("+Inf", total) :: finite_rev ->
      Alcotest.(check int) "+Inf is the count" (List.length values) total;
      let finite = List.rev finite_rev in
      List.iter
        (fun (le, _) ->
          let v = int_of_string le in
          Alcotest.(check bool)
            (Printf.sprintf "le %s is a power of two" le)
            true
            (v > 0 && v land (v - 1) = 0))
        finite;
      (* cumulative counts recompute from the raw values *)
      List.iter
        (fun (le, cum) ->
          let bound = int_of_string le in
          let expect = List.length (List.filter (fun v -> v < bound) values) in
          Alcotest.(check int) (Printf.sprintf "cumulative at le=%s" le) expect
            cum)
        finite;
      Alcotest.(check bool) "monotone" true
        (let rec mono = function
           | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
           | _ -> true
         in
         mono finite)
  | _ -> Alcotest.fail "no +Inf bucket");
  match Obs.Metrics.hist m "lat" with
  | Some s ->
      Alcotest.(check int) "sum" (List.fold_left ( + ) 0 values)
        s.Obs.Histogram.s_sum
  | None -> Alcotest.fail "histogram vanished"

let test_metrics_set_counter_monotone () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.set_counter m "mirrored" 10;
  Alcotest.(check int) "raises" 10 (Obs.Metrics.counter m "mirrored");
  Obs.Metrics.set_counter m "mirrored" 7;
  Alcotest.(check int) "never lowers" 10 (Obs.Metrics.counter m "mirrored");
  Obs.Metrics.set_counter m "mirrored" 12;
  Alcotest.(check int) "raises again" 12 (Obs.Metrics.counter m "mirrored")

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "snapshot and merge" `Quick
            test_histogram_snapshot_and_merge;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting well-formed" `Quick test_span_nesting;
          Alcotest.test_case "ring keeps the newest events" `Quick
            test_ring_keeps_newest;
          Alcotest.test_case "ring wrap stays balanced" `Quick
            test_ring_wrap_stays_balanced;
        ] );
      ( "export",
        [
          Alcotest.test_case "deterministic at 1 vs 4 workers" `Quick
            test_deterministic_merge;
          Alcotest.test_case "trace_event round-trip" `Quick
            test_trace_export_round_trip;
          Alcotest.test_case "csv round-trip" `Quick test_csv_export_round_trip;
        ] );
      ( "reqtrace",
        [
          QCheck_alcotest.to_alcotest prop_reqtrace_connected;
          Alcotest.test_case "worker-domain scope" `Quick test_reqtrace_scope;
          Alcotest.test_case "Obs.span routes into scope" `Quick
            test_obs_span_routes_into_scope;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "1-in-N exact" `Quick test_sampler_one_in_n;
          Alcotest.test_case "errors and slow always kept" `Quick
            test_sampler_errors_and_slow;
          Alcotest.test_case "hot requests don't consume" `Quick
            test_sampler_hot_does_not_consume;
        ] );
      ( "flight",
        [ Alcotest.test_case "bounded and restartable" `Quick test_flight_bounded ] );
      ( "prometheus",
        [
          Alcotest.test_case "golden exposition" `Quick test_prometheus_golden;
          Alcotest.test_case "bucket bounds round-trip" `Quick
            test_prometheus_bucket_round_trip;
          Alcotest.test_case "set_counter monotone" `Quick
            test_metrics_set_counter_monotone;
        ] );
    ]
