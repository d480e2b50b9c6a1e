type config = {
  port : int;
  workers : int option;
  queue_capacity : int;
  store_root : string option;
  budget_bytes : int;
  mem_capacity : int;
  trace_sample : int;
  slow_ms : int;
  flight_dir : string option;
}

let default_config =
  {
    port = 7421;
    workers = None;
    queue_capacity = 64;
    store_root = None;
    budget_bytes = Store.Disk.default_budget_bytes;
    mem_capacity = 512;
    trace_sample = 0;
    slow_ms = 250;
    flight_dir = None;
  }

type state = {
  front : Store.Front.t;
  service : Engine.Service.t;
  sink : Obs.Sink.t;
  started_ns : int64;
  lock : Mutex.t;
  mutable requests : int;
  mutable inflight : int;
  mutable stopping : bool;
  mutable conns : Unix.file_descr list;  (* open connection sockets *)
  listen_fd : Unix.file_descr;
  (* catalog programs are immutable, so their store keys are too; the
     key fingerprint (program + system rendering) would otherwise
     dominate the warm path *)
  key_cache : (string, string) Hashtbl.t;
  key_lock : Mutex.t;
  (* request tracing: traces are buffered per request and, when kept by
     the sampler, replayed onto one shared ring track; the replay lock
     keeps that track single-writer *)
  tracing : bool;
  sampler : Obs.Sampler.t;
  flight : Obs.Flight.t option;
  req_track : Obs.Sink.track;
  req_track_lock : Mutex.t;
}

(* [Bench_programs.by_name] assembles the whole suite per call — fine
   for a CLI run, ~100us per request here.  The catalog is immutable, so
   build it once. *)
let catalog =
  lazy
    (let tbl = Hashtbl.create 32 in
     let names =
       List.map
         (fun (b : Workloads.Bench_programs.t) ->
           Hashtbl.replace tbl b.Workloads.Bench_programs.name b;
           b.Workloads.Bench_programs.name)
         (Workloads.Bench_programs.suite ())
     in
     (tbl, String.concat ", " names))

let resolve_source = function
  | Protocol.No_source -> Error ("bad_request", "missing source")
  | Protocol.Bench s -> (
      let name =
        if String.length s > 6 && String.sub s 0 6 = "bench:" then
          String.sub s 6 (String.length s - 6)
        else s
      in
      let tbl, listing = Lazy.force catalog in
      match Hashtbl.find_opt tbl name with
      | Some b ->
          Ok
            ( b.Workloads.Bench_programs.program,
              b.Workloads.Bench_programs.annot )
      | None ->
          Error
            ( "unknown_benchmark",
              Printf.sprintf "unknown benchmark %S; available: %s" name listing
            ))
  | Protocol.Inline { name; asm; bounds } -> (
      match Isa.Asm.parse ~name asm with
      | program ->
          let annot =
            List.fold_left
              (fun a (proc, header_label, n) ->
                Dataflow.Annot.with_loop_bound a ~proc ~header_label n)
              Dataflow.Annot.empty bounds
          in
          Ok (program, annot)
      | exception Isa.Asm.Parse_error (line, msg) ->
          Error ("bad_request", Printf.sprintf "parse error line %d: %s" line msg))

let refine_of (req : Protocol.request) =
  if req.Protocol.refine then Some Refine.default else None

let key_for state (req : Protocol.request) ~mode ~cores ~kind annot program =
  let refine = refine_of req in
  let compute () = Modes.store_key ?refine ~mode ~cores ~kind annot program in
  match req.Protocol.source with
  | Protocol.Bench name ->
      let token =
        Printf.sprintf "%s|%s|%d|%s|%s" name
          (Core.Mode.name mode)
          cores (Modes.kind_name kind)
          (match refine with None -> "norefine" | Some c -> Refine.salt c)
      in
      Mutex.lock state.key_lock;
      let cached = Hashtbl.find_opt state.key_cache token in
      Mutex.unlock state.key_lock;
      (match cached with
      | Some k -> k
      | None ->
          let k = compute () in
          Mutex.lock state.key_lock;
          Hashtbl.replace state.key_cache token k;
          Mutex.unlock state.key_lock;
          k)
  | _ -> compute ()

(* Request-trace bookkeeping.  The connection thread's phases (parse,
   store.probe, encode) are strictly sequential, so they are recorded as
   boundary timestamps in flat mutable [int64] fields — one clock read
   and one unboxed store per boundary, no span allocation on the request
   path.  The span tree itself is only materialised at completion
   ({!materialize}), after the reply has been flushed, so none of that
   work sits on the client-visible latency path.  The one exception is a
   cold request: the worker domain needs a live {!Obs.Reqtrace.t} to
   record queue-wait and solve spans into, so [trace_of] materialises it
   at submit time — the phases recorded so far are replayed into it
   first, which keeps span ids identical to a tree recorded live.
   [mark] restarts the phase chain after a gap owned by someone else
   (the service job between probe and encode).  Every helper is a no-op
   when the request is untraced ([tr = None]). *)
type tracer = {
  tr_id : string;
  tr_args : (string * Obs.Event.value) list;  (* root-span args *)
  tr_t0 : int64;
  mutable tr_parsed : int64;  (* parse end / probe start *)
  mutable tr_probe : int64;  (* store.probe end; 0 = no probe phase *)
  mutable tr_probe_modes : int;  (* all-modes probe width; -1 = plain *)
  mutable tr_mark : int64;  (* encode start override; 0 = chain *)
  mutable tr_encode : int64;  (* encode end; 0 = no encode phase *)
  mutable tr_rt : Obs.Reqtrace.t option;  (* materialised lazily *)
}

let probe_phase tr =
  match tr with None -> () | Some tr -> tr.tr_probe <- Obs.now_ns ()

let probe_phase_modes tr n =
  match tr with
  | None -> ()
  | Some tr ->
      tr.tr_probe <- Obs.now_ns ();
      tr.tr_probe_modes <- n

let mark tr =
  match tr with None -> () | Some tr -> tr.tr_mark <- Obs.now_ns ()

let encode_phase tr =
  match tr with None -> () | Some tr -> tr.tr_encode <- Obs.now_ns ()

(* Build the Reqtrace.t and replay the phases recorded so far into it.
   Called at submit time (cold path) or at completion (everything else);
   the encode boundary is always recorded after any worker spans, so
   span ids come out the same as a live recording would produce. *)
let materialize tr =
  match tr.tr_rt with
  | Some rt -> rt
  | None ->
      let rt =
        Obs.Reqtrace.create ~clock:Obs.now_ns ~cat:"serve" ~t0:tr.tr_t0
          ~args:tr.tr_args ~id:tr.tr_id "request"
      in
      Obs.Reqtrace.add_completed rt ~parent:1 ~cat:"serve" ~t0:tr.tr_t0
        ~t1:tr.tr_parsed "parse";
      if tr.tr_probe <> 0L then
        Obs.Reqtrace.add_completed rt ~parent:1 ~cat:"serve"
          ?args:
            (if tr.tr_probe_modes >= 0 then
               Some [ ("modes", Obs.Event.Int tr.tr_probe_modes) ]
             else None)
          ~t0:tr.tr_parsed ~t1:tr.tr_probe "store.probe";
      tr.tr_rt <- Some rt;
      rt

let trace_of tr =
  Option.map
    (fun tr ->
      let rt = materialize tr in
      (rt, Obs.Reqtrace.root rt))
    tr

(* root-span args, hoisted so the traced path allocates no fresh list
   per request *)
let op_args =
  let mk op = [ ("op", Obs.Event.Str (Protocol.op_name op)) ] in
  let analyze = mk Protocol.Analyze
  and attribute = mk Protocol.Attribute
  and status = mk Protocol.Status
  and stats = mk Protocol.Stats
  and metrics = mk Protocol.Metrics
  and shutdown = mk Protocol.Shutdown in
  function
  | Protocol.Analyze -> analyze
  | Protocol.Attribute -> attribute
  | Protocol.Status -> status
  | Protocol.Stats -> stats
  | Protocol.Metrics -> metrics
  | Protocol.Shutdown -> shutdown

(* Analyze/attribute: store lookup on the connection thread, cold work on
   the service domains.  The reply is rendered from the distilled
   {!Store.Entry.t} in all three cases, so hot, warm and cold replies for
   the same key are bit-identical.  Returns the reply and the request
   outcome ("hot"/"warm"/"cold"/"busy"/"error") for the per-outcome
   metrics and the sampler. *)
let handle_one_mode state tr (req : Protocol.request) ~detail ~mode task =
  let program, annot = task in
  let cores = req.Protocol.cores and kind = req.Protocol.kind in
  let key = key_for state req ~mode ~cores ~kind annot program in
  let reply cached entry =
    Obs.add ("server." ^ Protocol.cached_name cached) 1;
    let r = Protocol.ok_reply ~id:req.Protocol.id ~cached ~key ~detail entry in
    encode_phase tr;
    (r, Protocol.cached_name cached)
  in
  let found = Store.Front.find state.front key in
  probe_phase tr;
  match found with
  | Some (Store.Front.Memory, entry) -> reply Protocol.Hot entry
  | Some (Store.Front.Disk, entry) -> reply Protocol.Warm entry
  | None -> (
      let label =
        Printf.sprintf "serve:%s:%s"
          (Core.Mode.name mode)
          (Modes.kind_name kind)
      in
      match
        Engine.Service.submit state.service ~label ?trace:(trace_of tr)
          (fun () ->
            Modes.analyze ?refine:(refine_of req) ~mode ~cores ~kind task)
      with
      | None ->
          Obs.add "server.busy" 1;
          ( Protocol.error_reply ~id:req.Protocol.id ~code:"busy"
              "analysis queue full; retry later",
            "busy" )
      | Some ticket -> (
          match Engine.Service.await ticket with
          | Error msg ->
              ( Protocol.error_reply ~id:req.Protocol.id ~code:"internal" msg,
                "error" )
          | Ok (Error msg) ->
              ( Protocol.error_reply ~id:req.Protocol.id
                  ~code:"not_analysable" msg,
                "error" )
          | Ok (Ok entry) ->
              (* the service job owned the gap since the probe; restart
                 the phase chain so encode doesn't absorb it *)
              mark tr;
              Store.Front.put state.front key entry;
              reply Protocol.Cold entry))

(* [mode:"all"]: per-mode store lookups on the connection thread, then
   ONE service job computing every missing mode from a shared context
   pack ({!Modes.analyze_all}).  Modes served from the store and modes
   computed cold coexist in the same reply; cold results are stored
   under the same per-mode keys the single-mode path uses, so the two
   request shapes share cache state. *)
let handle_all_modes state tr (req : Protocol.request) ~detail task =
  let program, annot = task in
  let cores = req.Protocol.cores and kind = req.Protocol.kind in
  let keyed =
    List.map
      (fun mode ->
        let key = key_for state req ~mode ~cores ~kind annot program in
        (mode, key, Store.Front.find state.front key))
      Core.Mode.all
  in
  probe_phase_modes tr (List.length Core.Mode.all);
  let missing =
    List.filter_map
      (fun (m, _, found) -> if found = None then Some m else None)
      keyed
  in
  let computed =
    if missing = [] then Ok []
    else begin
      let label = Printf.sprintf "serve:all:%s" (Modes.kind_name kind) in
      match
        Engine.Service.submit state.service ~label ?trace:(trace_of tr)
          (fun () ->
            Modes.analyze_all ~modes:missing ?refine:(refine_of req) ~cores
              ~kind task)
      with
      | None ->
          Obs.add "server.busy" 1;
          Error ("busy", "analysis queue full; retry later")
      | Some ticket -> (
          match Engine.Service.await ticket with
          | Error msg -> Error ("internal", msg)
          | Ok results ->
              mark tr;
              Ok results)
    end
  in
  match computed with
  | Error (code, msg) ->
      ( Protocol.error_reply ~id:req.Protocol.id ~code msg,
        if code = "busy" then "busy" else "error" )
  | Ok results ->
      let any_warm = ref false in
      let rows =
        List.map
          (fun (mode, key, found) ->
            let name = Core.Mode.name mode in
            let hit cached entry =
              Obs.add ("server." ^ Protocol.cached_name cached) 1;
              (name, Ok (cached, key, entry))
            in
            match found with
            | Some (Store.Front.Memory, entry) -> hit Protocol.Hot entry
            | Some (Store.Front.Disk, entry) ->
                any_warm := true;
                hit Protocol.Warm entry
            | None -> (
                match List.assoc_opt mode results with
                | Some (Ok entry) ->
                    Store.Front.put state.front key entry;
                    hit Protocol.Cold entry
                | Some (Error msg) -> (name, Error ("not_analysable", msg))
                | None -> (name, Error ("internal", "mode result missing"))))
          keyed
      in
      let outcome =
        if missing <> [] then "cold" else if !any_warm then "warm" else "hot"
      in
      let r = Protocol.ok_all_reply ~id:req.Protocol.id ~detail rows in
      encode_phase tr;
      (r, outcome)

let handle_analysis state tr (req : Protocol.request) ~detail =
  match resolve_source req.Protocol.source with
  | Error (code, msg) ->
      (Protocol.error_reply ~id:req.Protocol.id ~code msg, "error")
  | Ok task -> (
      match req.Protocol.mode with
      | Protocol.One mode -> handle_one_mode state tr req ~detail ~mode task
      | Protocol.All -> handle_all_modes state tr req ~detail task)

let uptime_ns state = Int64.sub (Obs.now_ns ()) state.started_ns

let status_reply state id =
  let s = Engine.Service.stats state.service in
  let requests =
    Mutex.lock state.lock;
    let r = state.requests in
    Mutex.unlock state.lock;
    r
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("ok", Json.Bool true);
         ("uptime_ms", Json.Int (Int64.to_int (Int64.div (uptime_ns state) 1_000_000L)));
         ("requests", Json.Int requests);
         ( "service",
           Json.Obj
             [
               ("workers", Json.Int s.Engine.Service.s_workers);
               ("capacity", Json.Int s.Engine.Service.s_capacity);
               ("queued", Json.Int s.Engine.Service.s_queued);
               ("running", Json.Int s.Engine.Service.s_running);
               ("completed", Json.Int s.Engine.Service.s_completed);
               ("failed", Json.Int s.Engine.Service.s_failed);
               ("rejected", Json.Int s.Engine.Service.s_rejected);
             ] );
       ])

let hist_json metrics name =
  match Obs.Metrics.hist metrics name with
  | None -> Json.Null
  | Some snap ->
      Json.Obj
        [
          ("count", Json.Int snap.Obs.Histogram.s_count);
          ("min", Json.Int snap.Obs.Histogram.s_min);
          ("max", Json.Int snap.Obs.Histogram.s_max);
          ("p50", Json.Int (Protocol.percentile snap 0.50));
          ("p99", Json.Int (Protocol.percentile snap 0.99));
        ]

(* Ring drops are repaired silently at export time ([Sink.events]); a
   saturated server should still be able to say it dropped events, so
   the stats reply surfaces the per-track drop totals. *)
let obs_drops_json state =
  let tracks = Obs.Sink.tracks state.sink in
  let total =
    List.fold_left (fun acc tr -> acc + Obs.Sink.dropped tr) 0 tracks
  in
  let by_track =
    List.filter_map
      (fun tr ->
        let d = Obs.Sink.dropped tr in
        if d = 0 then None
        else Some (Obs.Sink.track_name tr, Json.Int d))
      tracks
  in
  Json.Obj
    [
      ("tracks", Json.Int (List.length tracks));
      ("dropped_events", Json.Int total);
      ("dropped_by_track", Json.Obj by_track);
    ]

let stats_reply state id =
  let metrics = Obs.Sink.metrics state.sink in
  let c name = Json.Int (Obs.Metrics.counter metrics name) in
  let store_fields =
    let mem = Store.Front.mem_stats state.front in
    let base =
      [
        ("mem_entries", Json.Int mem.Engine.Lru.size);
        ("mem_hits", Json.Int mem.Engine.Lru.hits);
        ("mem_misses", Json.Int mem.Engine.Lru.misses);
      ]
    in
    match Store.Front.disk_stats state.front with
    | None -> base
    | Some d ->
        base
        @ [
            ("disk_entries", Json.Int d.Store.Disk.entries);
            ("disk_bytes", Json.Int d.Store.Disk.bytes);
            ("disk_budget", Json.Int d.Store.Disk.budget);
            ("disk_hits", Json.Int d.Store.Disk.hits);
            ("disk_misses", Json.Int d.Store.Disk.misses);
            ("disk_evictions", Json.Int d.Store.Disk.evictions);
            ("disk_corrupt", Json.Int d.Store.Disk.corrupt);
          ]
  in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("ok", Json.Bool true);
         ( "requests",
           Json.Obj
             [
               ("hot", c "server.hot");
               ("warm", c "server.warm");
               ("cold", c "server.cold");
               ("busy", c "server.busy");
               ("errors", c "server.errors");
             ] );
         ("latency_ns", hist_json metrics "server.request_ns");
         ("service_run_ns", hist_json metrics "service.run_ns");
         ("store", Json.Obj store_fields);
         ("obs", obs_drops_json state);
       ])

(* The metrics op: refresh the point-in-time values (gauges, mirrored
   store/ring totals), then render the whole registry.  Pure registry
   read + render — no analysis work, no store access beyond the stats
   accessors — which is what keeps its latency under the warm-hit
   budget the bench enforces.  The values are set under one registry
   lock, and the JSON reply is written straight into one buffer. *)
let refresh_metrics state =
  let s = Engine.Service.stats state.service in
  let inflight =
    Mutex.lock state.lock;
    let n = state.inflight in
    Mutex.unlock state.lock;
    n
  in
  let front = state.front in
  let mem = Store.Front.mem_stats front in
  let disk =
    match Store.Front.disk_stats front with
    | None -> []
    | Some d ->
        [
          `Gauge ("store.disk.entries", d.Store.Disk.entries);
          `Gauge ("store.disk.bytes", d.Store.Disk.bytes);
          `Counter ("store.disk.hits", d.Store.Disk.hits);
          `Counter ("store.disk.misses", d.Store.Disk.misses);
          `Counter ("store.disk.evictions", d.Store.Disk.evictions);
          `Counter ("store.disk.corrupt", d.Store.Disk.corrupt);
        ]
  in
  let tracks = Obs.Sink.tracks state.sink in
  let dropped =
    List.fold_left (fun acc tr -> acc + Obs.Sink.dropped tr) 0 tracks
  in
  Obs.Metrics.mirror
    (Obs.Sink.metrics state.sink)
    ([
       `Gauge ("service.queue_depth", s.Engine.Service.s_queued);
       `Gauge ("service.running", s.Engine.Service.s_running);
       `Gauge ("server.inflight", inflight);
       `Gauge ("store.mem.entries", mem.Engine.Lru.size);
       `Counter ("store.mem.hits", mem.Engine.Lru.hits);
       `Counter ("store.mem.misses", mem.Engine.Lru.misses);
     ]
    @ disk
    @ [
        `Counter ("store.write_dropped", Store.Front.write_dropped front);
        `Gauge ("obs.tracks", List.length tracks);
        `Counter ("obs.dropped_events", dropped);
      ])

let add_hist b (snap : Obs.Histogram.snapshot) =
  Buffer.add_string b "{\"count\":";
  Json.write_int b snap.Obs.Histogram.s_count;
  Buffer.add_string b ",\"sum\":";
  Json.write_int b snap.Obs.Histogram.s_sum;
  Buffer.add_string b ",\"min\":";
  Json.write_int b snap.Obs.Histogram.s_min;
  Buffer.add_string b ",\"max\":";
  Json.write_int b snap.Obs.Histogram.s_max;
  Buffer.add_string b ",\"buckets\":[";
  List.iteri
    (fun i (bucket, count) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_char b '[';
      Json.write_int b bucket;
      Buffer.add_char b ',';
      Json.write_int b count;
      Buffer.add_char b ']')
    snap.Obs.Histogram.s_buckets;
  Buffer.add_string b "]}"

(* One JSON object of the items [value] selects, in registration
   order. *)
let add_section b items value =
  Buffer.add_char b '{';
  let first = ref true in
  List.iter
    (fun item ->
      match value item with
      | None -> ()
      | Some (name, add) ->
          if not !first then Buffer.add_char b ',';
          first := false;
          Json.write_string b name;
          Buffer.add_char b ':';
          add b)
    items;
  Buffer.add_char b '}'

let metrics_reply state (req : Protocol.request) =
  refresh_metrics state;
  let items = Obs.Metrics.snapshot (Obs.Sink.metrics state.sink) in
  match req.Protocol.format with
  | Protocol.Fmt_prometheus ->
      Json.to_string
        (Json.Obj
           [
             ("id", Json.Int req.Protocol.id);
             ("ok", Json.Bool true);
             ("format", Json.Str "prometheus");
             ("body", Json.Str (Obs.Prometheus.render_items items));
           ])
  | Protocol.Fmt_json ->
      let b = Buffer.create 4096 in
      Buffer.add_string b "{\"id\":";
      Json.write_int b req.Protocol.id;
      Buffer.add_string b
        ",\"ok\":true,\"format\":\"json\",\"metrics\":{\"counters\":";
      add_section b items (function
        | Obs.Metrics.Counter_v (name, v) ->
            Some (name, fun b -> Json.write_int b v)
        | Obs.Metrics.Gauge_v _ | Obs.Metrics.Hist_v _ -> None);
      Buffer.add_string b ",\"gauges\":";
      add_section b items (function
        | Obs.Metrics.Gauge_v (name, v) ->
            Some (name, fun b -> Json.write_int b v)
        | Obs.Metrics.Counter_v _ | Obs.Metrics.Hist_v _ -> None);
      Buffer.add_string b ",\"histograms\":";
      add_section b items (function
        | Obs.Metrics.Hist_v (name, snap) ->
            Some (name, fun b -> add_hist b snap)
        | Obs.Metrics.Counter_v _ | Obs.Metrics.Gauge_v _ -> None);
      Buffer.add_string b "}}";
      Buffer.contents b

let request_stop state =
  Mutex.lock state.lock;
  let was = state.stopping in
  state.stopping <- true;
  let conns = state.conns in
  Mutex.unlock state.lock;
  if not was then begin
    (* wake the accept loop; a racing close is fine, accept just fails *)
    (try Unix.shutdown state.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (* wake connection threads blocked reading an idle client: receive
       side only, so a reply still in flight can finish writing.  Any
       connection registered after the snapshot observes [stopping]
       before serving (both happen under [lock]) and exits itself. *)
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      conns
  end

(* Completion side of the plane: decide keep/drop now that outcome and
   duration are known, then — for kept traces only — materialise the
   span tree, replay it onto the shared request track, and dump a slow
   one to the flight recorder.  Runs after the reply has been flushed;
   a dropped trace never builds its span tree at all. *)
let finish_trace state tr ~t1 ~outcome =
  let dur_ns = Int64.sub t1 tr.tr_t0 in
  let d =
    Obs.Sampler.decide state.sampler ~cold:(outcome = "cold")
      ~error:(outcome = "error") ~dur_ns
  in
  if d.Obs.Sampler.keep then begin
    let rt = materialize tr in
    if tr.tr_encode <> 0L then begin
      let enc_t0 =
        if tr.tr_mark <> 0L then tr.tr_mark
        else if tr.tr_probe <> 0L then tr.tr_probe
        else tr.tr_parsed
      in
      Obs.Reqtrace.add_completed rt ~parent:1 ~cat:"serve" ~t0:enc_t0
        ~t1:tr.tr_encode "encode"
    end;
    ignore (Obs.Reqtrace.finish rt ~t1 ~outcome ());
    Obs.add "server.trace.kept" 1;
    Mutex.lock state.req_track_lock;
    (match Obs.Reqtrace.emit rt state.req_track with
    | () -> Mutex.unlock state.req_track_lock
    | exception e ->
        Mutex.unlock state.req_track_lock;
        raise e);
    if d.Obs.Sampler.slow then
      Option.iter
        (fun flight ->
          match
            Obs.Flight.record flight ~name:(Obs.Reqtrace.trace_id rt)
              (Obs.Reqtrace.to_json rt)
          with
          | Some _ -> Obs.add "server.trace.dumped" 1
          | None -> Obs.add "server.trace.dump_failed" 1)
        state.flight
  end

let handle_line state ~trace_seq line =
  let t0 = Obs.now_ns () in
  Mutex.lock state.lock;
  state.inflight <- state.inflight + 1;
  let inflight = state.inflight in
  Mutex.unlock state.lock;
  Obs.set_gauge "server.inflight" inflight;
  let parsed = Protocol.parse_request line in
  let reply, stop, outcome, tr =
    match parsed with
    | Error (code, msg) ->
        Obs.add "server.errors" 1;
        Obs.add "server.req.invalid" 1;
        (Protocol.error_reply ~id:0 ~code msg, false, "error", None)
    | Ok req ->
        Obs.add ("server.req." ^ Protocol.op_name req.Protocol.op) 1;
        let tr =
          if not state.tracing then None
          else
            let id =
              match req.Protocol.trace_id with
              | Some id -> id
              | None -> trace_seq ()
            in
            Some
              {
                tr_id = id;
                tr_args = op_args req.Protocol.op;
                tr_t0 = t0;
                tr_parsed = Obs.now_ns ();
                tr_probe = 0L;
                tr_probe_modes = -1;
                tr_mark = 0L;
                tr_encode = 0L;
                tr_rt = None;
              }
        in
        let reply, stop, outcome =
          match req.Protocol.op with
          | Protocol.Analyze ->
              let reply, outcome = handle_analysis state tr req ~detail:false in
              (reply, false, outcome)
          | Protocol.Attribute ->
              let reply, outcome = handle_analysis state tr req ~detail:true in
              (reply, false, outcome)
          | Protocol.Status -> (status_reply state req.Protocol.id, false, "ok")
          | Protocol.Stats -> (stats_reply state req.Protocol.id, false, "ok")
          | Protocol.Metrics -> (metrics_reply state req, false, "ok")
          | Protocol.Shutdown ->
              ( Json.to_string
                  (Json.Obj
                     [
                       ("id", Json.Int req.Protocol.id);
                       ("ok", Json.Bool true);
                       ("stopping", Json.Bool true);
                     ]),
                true,
                "ok" )
        in
        (reply, stop, outcome, tr)
  in
  Mutex.lock state.lock;
  state.requests <- state.requests + 1;
  state.inflight <- state.inflight - 1;
  Mutex.unlock state.lock;
  Obs.add "server.requests" 1;
  Obs.add ("server.out." ^ outcome) 1;
  let t_end = Obs.now_ns () in
  let dur = Int64.to_int (Int64.sub t_end t0) in
  Obs.observe "server.request_ns" dur;
  Obs.observe ("server.request_ns." ^ outcome) dur;
  (* trace completion (materialise + sample + emit) is deferred until
     after the reply is flushed — it must not sit on the client-visible
     latency path *)
  let post = Option.map (fun tr -> (tr, outcome, t_end)) tr in
  (reply, stop, post)

let connection_loop state ~conn_id fd =
  Mutex.lock state.lock;
  state.conns <- fd :: state.conns;
  let stopping = state.stopping in
  Mutex.unlock state.lock;
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (* default trace ids are deterministic per connection: connection
     ordinal (accept order) + request ordinal on that connection *)
  let seq = ref 0 in
  let seq_prefix = "c" ^ string_of_int conn_id ^ "-" in
  let trace_seq () =
    incr seq;
    seq_prefix ^ string_of_int !seq
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | exception Sys_error _ -> ()
    | line when String.trim line = "" -> loop ()
    | line -> (
        let reply, stop, post = handle_line state ~trace_seq line in
        let finish () =
          Option.iter
            (fun (tr, outcome, t_end) ->
              finish_trace state tr ~t1:t_end ~outcome)
            post
        in
        match
          output_string oc reply;
          output_char oc '\n';
          flush oc
        with
        | () ->
            finish ();
            if stop then request_stop state else loop ()
        | exception Sys_error _ -> finish ())
  in
  if not stopping then loop ();
  Mutex.lock state.lock;
  state.conns <- List.filter (fun c -> c != fd) state.conns;
  Mutex.unlock state.lock;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let run ?(ready = fun _ -> ()) ~sink config =
  (* the sink is ambient for the server's lifetime: connection threads
     and worker domains record through the global switch, the stats op
     reads the same sink back *)
  Obs.set_sink (Some sink);
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd
    (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
  Unix.listen listen_fd 64;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let disk =
    Option.map
      (fun root -> Store.Disk.open_ ~budget_bytes:config.budget_bytes root)
      config.store_root
  in
  let front = Store.Front.create ~mem_capacity:config.mem_capacity ?disk () in
  let service =
    Engine.Service.create ?workers:config.workers
      ~queue_capacity:config.queue_capacity ()
  in
  (* the plane is off by default: no trace buffer is allocated per
     request unless sampling or the flight recorder was asked for *)
  let tracing = config.trace_sample > 0 || config.flight_dir <> None in
  let state =
    {
      front;
      service;
      sink;
      started_ns = Obs.now_ns ();
      lock = Mutex.create ();
      requests = 0;
      inflight = 0;
      stopping = false;
      conns = [];
      listen_fd;
      key_cache = Hashtbl.create 256;
      key_lock = Mutex.create ();
      tracing;
      sampler =
        Obs.Sampler.create ~slow_ms:config.slow_ms ~every:config.trace_sample
          ();
      flight = Option.map (fun dir -> Obs.Flight.open_ dir) config.flight_dir;
      req_track = Obs.Sink.new_track sink "requests";
      req_track_lock = Mutex.create ();
    }
  in
  let prev_handlers =
    List.map
      (fun s ->
        (s, Sys.signal s (Sys.Signal_handle (fun _ -> request_stop state))))
      [ Sys.sigterm; Sys.sigint ]
  in
  ready port;
  let threads = ref [] in
  let conn_counter = ref 0 in
  let rec accept_loop () =
    match Unix.accept listen_fd with
    | exception Unix.Unix_error ((Unix.EINVAL | Unix.EBADF | Unix.ECONNABORTED), _, _)
      when (Mutex.lock state.lock;
            let s = state.stopping in
            Mutex.unlock state.lock;
            s) ->
        ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        let s =
          Mutex.lock state.lock;
          let s = state.stopping in
          Mutex.unlock state.lock;
          s
        in
        if not s then accept_loop ()
    | fd, _ ->
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        incr conn_counter;
        let conn_id = !conn_counter in
        threads :=
          Thread.create (fun fd -> connection_loop state ~conn_id fd) fd
          :: !threads;
        let s =
          Mutex.lock state.lock;
          let s = state.stopping in
          Mutex.unlock state.lock;
          s
        in
        if not s then accept_loop ()
  in
  accept_loop ();
  List.iter (fun (s, h) -> Sys.set_signal s h) prev_handlers;
  List.iter (fun t -> try Thread.join t with _ -> ()) !threads;
  Engine.Service.shutdown state.service;
  Store.Front.close state.front;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  Obs.set_sink None
