(* End-to-end coverage for the serving stack: cold / hot / warm replies
   bit-identical across a server restart, the protocol's error paths
   (uniform codes, benchmark listing), inline programs with loop bounds,
   status/stats introspection, and the bounded-queue backpressure the
   [busy] reply is built on. *)

module Json = Server_lib.Json
module Client = Server_lib.Client
module Server = Server_lib.Server

(* ---------------- in-process server ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let start_server ?store_root ?(workers = 1) ?(trace_sample = 0)
    ?(slow_ms = 250) ?flight_dir () =
  let sink = Obs.Sink.create () in
  let port_box = ref None in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let config =
    {
      Server.port = 0;
      workers = Some workers;
      queue_capacity = 4;
      store_root;
      budget_bytes = Server.default_config.Server.budget_bytes;
      mem_capacity = 64;
      trace_sample;
      slow_ms;
      flight_dir;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Server.run
          ~ready:(fun port ->
            Mutex.lock lock;
            port_box := Some port;
            Condition.signal cond;
            Mutex.unlock lock)
          ~sink config)
      ()
  in
  Mutex.lock lock;
  while !port_box = None do
    Condition.wait cond lock
  done;
  let port = Option.get !port_box in
  Mutex.unlock lock;
  (port, thread)

let stop_server port thread =
  (match Client.connect ~port () with
  | Error _ -> ()
  | Ok c ->
      ignore
        (Client.request c
           (Json.Obj [ ("id", Json.Int 0); ("op", Json.Str "shutdown") ]));
      Client.close c);
  Thread.join thread

let with_server ?store_root ?workers ?trace_sample ?slow_ms ?flight_dir f =
  let port, thread =
    start_server ?store_root ?workers ?trace_sample ?slow_ms ?flight_dir ()
  in
  Fun.protect ~finally:(fun () -> stop_server port thread) (fun () -> f port)

(* Raw line round-trip: the bit-identity assertions must compare the
   bytes the server wrote, not a re-rendering of the parsed reply. *)
let raw_request port line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let reply = input_line ic in
  Unix.close fd;
  reply

(* Everything from ["key":...] on — the reply minus id/ok/cached, which
   is exactly the part hot, warm and cold must agree on byte-for-byte. *)
let from_key reply =
  match Astring.String.find_sub ~sub:{|"key":|} reply with
  | Some i -> String.sub reply i (String.length reply - i)
  | None -> Alcotest.failf "reply has no key: %s" reply

let cached_of reply =
  match Json.parse reply with
  | Error msg -> Alcotest.failf "unparsable reply %S: %s" reply msg
  | Ok j -> (
      match (Json.member "ok" j, Json.str_field "cached" j) with
      | Some (Json.Bool true), Some c -> c
      | _ -> Alcotest.failf "not an ok reply: %s" reply)

let expect_error c req ~code =
  match Client.request c req with
  | Error msg -> Alcotest.failf "transport error: %s" msg
  | Ok j ->
      Alcotest.(check bool)
        (code ^ " reply is not ok") false
        (Json.member "ok" j = Some (Json.Bool true));
      Alcotest.(check (option string)) ("code is " ^ code) (Some code)
        (Json.str_field "code" j)

(* ---------------- tests ---------------- *)

let analyze_line =
  {|{"id":1,"op":"analyze","source":"bench:crc","mode":"solo","cores":1,"kind":"wcet"}|}

let test_cold_hot_warm_identity () =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "paratime-test-serve-%d" (Unix.getpid ()))
  in
  rm_rf root;
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      let port, thread = start_server ~store_root:root () in
      let cold = raw_request port analyze_line in
      let hot = raw_request port analyze_line in
      stop_server port thread;
      Alcotest.(check string) "first touch is cold" "cold" (cached_of cold);
      Alcotest.(check string) "second touch is hot" "hot" (cached_of hot);
      Alcotest.(check string) "hot reply is bit-identical to cold"
        (from_key cold) (from_key hot);
      (* a fresh process over the same store must serve the same bytes *)
      let port, thread = start_server ~store_root:root () in
      let warm = raw_request port analyze_line in
      Alcotest.(check string) "post-restart touch is warm" "warm"
        (cached_of warm);
      Alcotest.(check string) "warm reply is bit-identical to cold"
        (from_key cold) (from_key warm);
      (* attribute renders the same entry with full rows *)
      let attr =
        raw_request port
          {|{"id":2,"op":"attribute","source":"bench:crc","mode":"solo","cores":1}|}
      in
      Alcotest.(check string) "attribute is served from the store" "hot"
        (cached_of attr);
      Alcotest.(check bool) "attribute carries the rows" true
        (Astring.String.is_infix ~affix:{|"rows":|} attr);
      stop_server port thread)

(* [mode:"all"]: one request sweeps every approach mode from a shared
   context pack; per-mode results share store keys with the single-mode
   path in both directions. *)
let test_mode_all () =
  with_server (fun port ->
      let joint_single =
        raw_request port
          {|{"id":1,"op":"analyze","source":"bench:crc","mode":"joint","cores":2,"kind":"wcet"}|}
      in
      let joint_bound =
        match Json.parse joint_single with
        | Ok j ->
            Option.bind (Json.member "result" j) (Json.int_field "bound")
        | Error msg -> Alcotest.failf "unparsable joint reply: %s" msg
      in
      let all =
        raw_request port
          {|{"id":2,"op":"analyze","source":"bench:crc","mode":"all","cores":2,"kind":"wcet"}|}
      in
      (match Json.parse all with
      | Error msg -> Alcotest.failf "unparsable all reply: %s" msg
      | Ok j -> (
          Alcotest.(check bool)
            "top-level ok" true
            (Json.member "ok" j = Some (Json.Bool true));
          match Json.member "modes" j with
          | Some (Json.Obj fields) ->
              Alcotest.(check (list string))
                "all eight modes in oracle order"
                (List.map Core.Mode.name Core.Mode.all)
                (List.map fst fields);
              List.iter
                (fun (name, sub) ->
                  Alcotest.(check bool)
                    (name ^ " is ok") true
                    (Json.member "ok" sub = Some (Json.Bool true));
                  Alcotest.(check bool)
                    (name ^ " carries a bound")
                    true
                    (match Json.member "result" sub with
                    | Some r -> Json.int_field "bound" r <> None
                    | None -> false))
                fields;
              (* the single-mode request seeded the store: joint comes
                 back hot and with the same bound *)
              let joint = List.assoc "joint" fields in
              Alcotest.(check (option string))
                "joint served from the store" (Some "hot")
                (Json.str_field "cached" joint);
              Alcotest.(check (option int))
                "joint bound matches the single-mode reply" joint_bound
                (Option.bind (Json.member "result" joint)
                   (Json.int_field "bound"))
          | _ -> Alcotest.fail "no modes object in the all reply"));
      (* ...and the all request seeded the store for single-mode use *)
      let locked =
        raw_request port
          {|{"id":3,"op":"analyze","source":"bench:crc","mode":"locked","cores":2,"kind":"wcet"}|}
      in
      Alcotest.(check string) "locked now hot" "hot" (cached_of locked))

let test_inline_with_bounds () =
  with_server (fun port ->
      match Client.connect ~port () with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          let req =
            Json.Obj
              [
                ("id", Json.Int 3);
                ("op", Json.Str "analyze");
                ("name", Json.Str "loopy");
                ( "asm",
                  Json.Str
                    "main:\n\
                    \  li r1, 8\n\
                     loop:\n\
                    \  subi r1, r1, 1\n\
                    \  ld.d r2, 0(r1)\n\
                    \  bne r1, r0, loop\n\
                    \  halt\n" );
                ( "bounds",
                  Json.List
                    [
                      Json.List
                        [ Json.Str "main"; Json.Str "loop"; Json.Int 8 ];
                    ] );
                ("mode", Json.Str "solo");
                ("cores", Json.Int 1);
              ]
          in
          let bound_of = function
            | Error msg -> Alcotest.failf "transport error: %s" msg
            | Ok j -> (
                match Json.member "result" j with
                | Some r -> (
                    match Json.int_field "bound" r with
                    | Some b -> b
                    | None -> Alcotest.failf "no bound: %s" (Json.to_string j))
                | None -> Alcotest.failf "no result: %s" (Json.to_string j))
          in
          let b1 = bound_of (Client.request c req) in
          Alcotest.(check bool) "inline program analysed" true (b1 > 0);
          (* same source, same bounds => same key => a cache hit with the
             same bound *)
          let b2 = bound_of (Client.request c req) in
          Alcotest.(check int) "repeat serves the same bound" b1 b2;
          Client.close c)

let test_protocol_errors () =
  with_server (fun port ->
      match Client.connect ~port () with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          (match Client.request_line c "this is not json" with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j ->
              Alcotest.(check (option string))
                "garbage line is bad_request" (Some "bad_request")
                (Json.str_field "code" j));
          expect_error c ~code:"bad_request"
            (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "frobnicate") ]);
          expect_error c ~code:"bad_request"
            (Json.Obj [ ("id", Json.Int 1); ("op", Json.Str "analyze") ]);
          expect_error c ~code:"bad_request"
            (Json.Obj
               [
                 ("id", Json.Int 1);
                 ("op", Json.Str "analyze");
                 ("source", Json.Str "bench:crc");
                 ("cores", Json.Int 9);
               ]);
          expect_error c ~code:"bad_request"
            (Json.Obj
               [
                 ("id", Json.Int 1);
                 ("op", Json.Str "analyze");
                 ("source", Json.Str "bench:crc");
                 ("mode", Json.Str "warp-drive");
               ]);
          (* BCET is only defined for the uncontended solo platform *)
          expect_error c ~code:"not_analysable"
            (Json.Obj
               [
                 ("id", Json.Int 1);
                 ("op", Json.Str "analyze");
                 ("source", Json.Str "bench:crc");
                 ("mode", Json.Str "joint");
                 ("kind", Json.Str "bcet");
               ]);
          (* unknown benchmark names the catalog, as the CLI does *)
          (match
             Client.request c
               (Json.Obj
                  [
                    ("id", Json.Int 1);
                    ("op", Json.Str "analyze");
                    ("source", Json.Str "bench:no_such_bench");
                  ])
           with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j ->
              Alcotest.(check (option string))
                "code is unknown_benchmark" (Some "unknown_benchmark")
                (Json.str_field "code" j);
              let err = Option.value ~default:"" (Json.str_field "error" j) in
              Alcotest.(check bool) "error lists the catalog" true
                (Astring.String.is_infix ~affix:"available:" err
                && Astring.String.is_infix ~affix:"crc" err));
          Client.close c)

let test_status_and_stats () =
  with_server (fun port ->
      match Client.connect ~port () with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          ignore (raw_request port analyze_line);
          (match
             Client.request c
               (Json.Obj [ ("id", Json.Int 5); ("op", Json.Str "status") ])
           with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j ->
              Alcotest.(check bool) "status is ok" true
                (Json.member "ok" j = Some (Json.Bool true));
              let workers =
                Option.bind (Json.member "service" j) (Json.int_field "workers")
              in
              Alcotest.(check (option int)) "one worker" (Some 1) workers);
          (match
             Client.request c
               (Json.Obj [ ("id", Json.Int 6); ("op", Json.Str "stats") ])
           with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j ->
              let cold =
                Option.bind (Json.member "requests" j) (Json.int_field "cold")
              in
              Alcotest.(check bool) "one cold analysis counted" true
                (match cold with Some n -> n >= 1 | None -> false);
              let latency_count =
                Option.bind (Json.member "latency_ns" j) (Json.int_field "count")
              in
              Alcotest.(check bool) "request latencies recorded" true
                (match latency_count with Some n -> n >= 1 | None -> false);
              let mem_entries =
                Option.bind (Json.member "store" j)
                  (Json.int_field "mem_entries")
              in
              Alcotest.(check bool) "store holds the result" true
                (match mem_entries with Some n -> n >= 1 | None -> false);
              (* ring drop totals ride along in the stats reply *)
              match Json.member "obs" j with
              | Some o ->
                  Alcotest.(check bool) "obs tracks counted" true
                    (match Json.int_field "tracks" o with
                    | Some n -> n >= 1
                    | None -> false);
                  Alcotest.(check bool) "obs drop total present" true
                    (Json.int_field "dropped_events" o <> None);
                  Alcotest.(check bool) "obs per-track drops present" true
                    (match Json.member "dropped_by_track" o with
                    | Some (Json.Obj _) -> true
                    | _ -> false)
              | None -> Alcotest.fail "no obs object in stats");
          Client.close c)

(* ---------------- telemetry plane ---------------- *)

module Scrape = Server_lib.Scrape

let test_metrics_op () =
  with_server (fun port ->
      ignore (raw_request port analyze_line);
      match Client.connect ~port () with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          (match
             Client.request c
               (Json.Obj [ ("id", Json.Int 7); ("op", Json.Str "metrics") ])
           with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j -> (
              Alcotest.(check (option string)) "json is the default format"
                (Some "json")
                (Json.str_field "format" j);
              match Json.member "metrics" j with
              | None -> Alcotest.fail "no metrics object"
              | Some m ->
                  (match Json.member "counters" m with
                  | Some (Json.Obj fields) ->
                      let at_least n name =
                        Alcotest.(check bool) name true
                          (match List.assoc_opt name fields with
                          | Some (Json.Int v) -> v >= n
                          | _ -> false)
                      in
                      at_least 1 "server.requests";
                      at_least 1 "server.req.analyze";
                      at_least 1 "server.out.cold"
                  | _ -> Alcotest.fail "no counters object");
                  (match Json.member "gauges" m with
                  | Some (Json.Obj fields) ->
                      Alcotest.(check bool) "queue-depth gauge" true
                        (List.mem_assoc "service.queue_depth" fields);
                      Alcotest.(check bool) "inflight gauge" true
                        (List.mem_assoc "server.inflight" fields)
                  | _ -> Alcotest.fail "no gauges object");
                  (match Json.member "histograms" m with
                  | Some (Json.Obj fields) -> (
                      match List.assoc_opt "server.request_ns" fields with
                      | Some h ->
                          Alcotest.(check bool) "latency histogram populated"
                            true
                            (match Json.int_field "count" h with
                            | Some n -> n >= 1
                            | None -> false)
                      | None -> Alcotest.fail "no request latency histogram")
                  | _ -> Alcotest.fail "no histograms object")));
          (match
             Client.request c
               (Json.Obj
                  [
                    ("id", Json.Int 8);
                    ("op", Json.Str "metrics");
                    ("format", Json.Str "prometheus");
                  ])
           with
          | Error msg -> Alcotest.failf "transport error: %s" msg
          | Ok j ->
              Alcotest.(check (option string)) "prometheus format echoed"
                (Some "prometheus")
                (Json.str_field "format" j);
              let body = Option.value ~default:"" (Json.str_field "body" j) in
              List.iter
                (fun affix ->
                  Alcotest.(check bool) ("exposition has " ^ affix) true
                    (Astring.String.is_infix ~affix body))
                [
                  "# TYPE paratime_server_requests_total counter";
                  "# TYPE paratime_server_request_ns histogram";
                  "paratime_server_request_ns_bucket{le=\"+Inf\"}";
                  "# TYPE paratime_service_queue_depth gauge";
                ]);
          expect_error c ~code:"bad_request"
            (Json.Obj
               [
                 ("id", Json.Int 9);
                 ("op", Json.Str "metrics");
                 ("format", Json.Str "xml");
               ]);
          Client.close c)

let test_scrape_monotone () =
  with_server (fun port ->
      match Client.connect ~port () with
      | Error msg -> Alcotest.fail msg
      | Ok c ->
          let fetch () =
            match Scrape.fetch c with
            | Ok s -> s
            | Error msg -> Alcotest.failf "scrape failed: %s" msg
          in
          let before = fetch () in
          ignore (raw_request port analyze_line);
          ignore (raw_request port analyze_line);
          let after = fetch () in
          List.iter
            (fun (name, v) ->
              Alcotest.(check bool) ("monotone: " ^ name) true
                (Scrape.counter after name >= v))
            before.Scrape.counters;
          (* scrapes are op:"metrics", so the per-op analyze delta is the
             client-side count exactly *)
          Alcotest.(check int) "analyze delta exact" 2
            (Scrape.counter_delta ~before ~after "server.req.analyze");
          Alcotest.(check int) "the second scrape is the only metrics delta" 1
            (Scrape.counter_delta ~before ~after "server.req.metrics");
          Client.close c)

(* One cold analysis under trace_sample=1 / slow_ms=0: the trace is
   kept, flagged slow and dumped to the flight recorder.  The dumped
   (id, parent, name) tree must be connected and identical at 1 and 4
   service workers — span ids are allocated in recording order, not by
   wall clock. *)
let traced_tree ~workers =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "paratime-test-flight-%d-%d" (Unix.getpid ()) workers)
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      with_server ~workers ~trace_sample:1 ~slow_ms:0 ~flight_dir:dir
        (fun port ->
          ignore
            (raw_request port
               {|{"id":1,"op":"analyze","source":"bench:crc","mode":"solo","cores":1,"kind":"wcet","trace_id":"t-test"}|}));
      let dumps =
        List.filter_map
          (fun f ->
            let ic = open_in (Filename.concat dir f) in
            let line = input_line ic in
            close_in ic;
            match Json.parse line with
            | Ok j when Json.str_field "trace_id" j = Some "t-test" -> Some j
            | _ -> None)
          (Array.to_list (Sys.readdir dir))
      in
      match dumps with
      | [ j ] -> (
          Alcotest.(check (option string)) "outcome stamped" (Some "cold")
            (Json.str_field "outcome" j);
          match Json.member "spans" j with
          | Some (Json.List spans) ->
              List.map
                (fun sp ->
                  match
                    ( Json.int_field "id" sp,
                      Json.int_field "parent" sp,
                      Json.str_field "name" sp )
                  with
                  | Some id, Some parent, Some name -> (id, parent, name)
                  | _ ->
                      Alcotest.failf "malformed span: %s" (Json.to_string sp))
                spans
          | _ -> Alcotest.fail "dump has no spans")
      | l -> Alcotest.failf "expected one t-test dump, got %d" (List.length l))

let test_trace_tree_stable_across_workers () =
  let tree1 = traced_tree ~workers:1 in
  (* connected: root is (1, 0), every parent recorded with a smaller id *)
  (match tree1 with
  | (1, 0, "request") :: rest ->
      let ids = List.map (fun (id, _, _) -> id) tree1 in
      List.iter
        (fun (id, parent, name) ->
          Alcotest.(check bool)
            (Printf.sprintf "span %d (%s) parent precedes" id name)
            true
            (parent < id && List.mem parent ids))
        rest
  | _ -> Alcotest.fail "no root span");
  let names = List.map (fun (_, _, n) -> n) tree1 in
  List.iter
    (fun phase ->
      Alcotest.(check bool) ("phase recorded: " ^ phase) true
        (List.mem phase names))
    [ "request"; "parse"; "store.probe"; "queue.wait"; "encode" ];
  let tree4 = traced_tree ~workers:4 in
  Alcotest.(check bool) "1 vs 4 workers: identical (id, parent, name) tree"
    true (tree1 = tree4)

let test_loadtest_validation () =
  let base = Server_lib.Loadtest.default_config in
  let expect_err what cfg affix =
    match Server_lib.Loadtest.run cfg with
    | Ok _ -> Alcotest.failf "%s was accepted" what
    | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the problem (%s)" what msg)
          true
          (Astring.String.is_infix ~affix msg)
  in
  expect_err "connections=0"
    { base with Server_lib.Loadtest.connections = 0 }
    "connections must be >= 1";
  expect_err "requests=-1"
    { base with Server_lib.Loadtest.requests = -1 }
    "requests must be >= 0";
  expect_err "working_set=0"
    { base with Server_lib.Loadtest.working_set = 0 }
    "working set is empty";
  expect_err "modes=[]"
    { base with Server_lib.Loadtest.modes = [] }
    "empty mode rotation"

let test_loadtest_scrape_delta () =
  with_server (fun port ->
      let cfg =
        {
          Server_lib.Loadtest.host = "127.0.0.1";
          port;
          requests = 10;
          connections = 2;
          repeat_ratio = 1.0;
          working_set = 2;
          modes = [ List.hd Core.Mode.all ];
          cores = 2;
          kind = Server_lib.Modes.Wcet;
          seed = 7;
          shutdown_after = false;
          scrape = true;
        }
      in
      match Server_lib.Loadtest.run cfg with
      | Error msg -> Alcotest.failf "loadtest failed: %s" msg
      | Ok r -> (
          Alcotest.(check int) "all sent" 10 r.Server_lib.Loadtest.sent;
          match r.Server_lib.Loadtest.server with
          | None -> Alcotest.fail "scrape produced no server delta"
          | Some d ->
              Alcotest.(check (option int))
                "server-side analyze count equals client-side sent" (Some 10)
                (List.assoc_opt "analyze" d.Server_lib.Loadtest.sd_by_op);
              Alcotest.(check bool)
                "total includes the run's own first scrape" true
                (d.Server_lib.Loadtest.sd_requests >= 10)))

(* The busy reply is Engine.Service backpressure verbatim: a full queue
   refuses immediately.  Driven at the service layer where the race is
   controllable — worker occupancy and queue depth are pinned with
   condvars, so the third submit is deterministically rejected. *)
let test_busy_backpressure () =
  let service = Engine.Service.create ~workers:1 ~queue_capacity:1 () in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let started = ref false and release = ref false in
  let blocker () =
    Mutex.lock lock;
    started := true;
    Condition.broadcast cond;
    while not !release do
      Condition.wait cond lock
    done;
    Mutex.unlock lock;
    "done"
  in
  let t1 =
    match Engine.Service.submit service blocker with
    | Some t -> t
    | None -> Alcotest.fail "idle service rejected a job"
  in
  (* wait until the worker owns the blocker, so the queue is empty *)
  Mutex.lock lock;
  while not !started do
    Condition.wait cond lock
  done;
  Mutex.unlock lock;
  let t2 =
    match Engine.Service.submit service (fun () -> "queued") with
    | Some t -> t
    | None -> Alcotest.fail "service rejected a job with queue space free"
  in
  (* worker busy + queue full: this is the submit the server answers
     with a busy reply *)
  (match Engine.Service.submit service (fun () -> "overflow") with
  | None -> ()
  | Some _ -> Alcotest.fail "service accepted a job beyond queue capacity");
  Alcotest.(check bool) "rejection counted" true
    ((Engine.Service.stats service).Engine.Service.s_rejected >= 1);
  Mutex.lock lock;
  release := true;
  Condition.broadcast cond;
  Mutex.unlock lock;
  Alcotest.(check (result string string)) "blocker completes" (Ok "done")
    (Engine.Service.await t1);
  Alcotest.(check (result string string)) "queued job completes"
    (Ok "queued") (Engine.Service.await t2);
  Engine.Service.shutdown service

(* ---------------- JSON codec ---------------- *)

(* The printer writes plain strings without a copy and escapes the
   rest; what it prints must read back as the same value. *)
let gen_json =
  let open QCheck.Gen in
  let int_gen =
    oneof
      [
        int;
        small_signed_int;
        oneofl [ 0; -1; max_int; min_int; 999_999_999_999_999_999 ];
      ]
  in
  let str_gen = string_size ~gen:char (int_bound 12) in
  (* JSON has no spelling for infinities and NaN *)
  let float_gen =
    map (fun f -> if Float.is_finite f then f else 0.5) float
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) int_gen;
               map (fun f -> Json.Float f) float_gen;
               map (fun s -> Json.Str s) str_gen;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               ( 1,
                 map
                   (fun l -> Json.List l)
                   (list_size (int_bound 4) (self (n / 3))) );
               ( 1,
                 map
                   (fun l -> Json.Obj l)
                   (list_size (int_bound 4) (pair str_gen (self (n / 3)))) );
             ])

(* bytes biased towards JSON's own alphabet, so inputs get deep *)
let json_char =
  let alphabet = "{}[],:\"\\-0123456789.eE+ tfnu" in
  QCheck.Gen.(oneof [ oneofl (List.of_seq (String.to_seq alphabet)); char ])

let json_props =
  [
    QCheck.Test.make ~name:"JSON round-trips through the printer" ~count:500
      (QCheck.make ~print:Json.to_string gen_json)
      (fun v -> Json.parse (Json.to_string v) = Ok v);
    (* inline requests carry untrusted bytes: the parser is total *)
    QCheck.Test.make ~name:"JSON parse is total" ~count:1000
      (QCheck.make ~print:String.escaped
         QCheck.Gen.(string_size ~gen:json_char (int_bound 24)))
      (fun text -> match Json.parse text with Ok _ | Error _ -> true);
  ]

let test_json_numbers () =
  let check text expected =
    Alcotest.(check bool) text true (Json.parse text = expected)
  in
  check "007" (Ok (Json.Int 7));
  check "-0" (Ok (Json.Int 0));
  check (string_of_int max_int) (Ok (Json.Int max_int));
  check (string_of_int min_int) (Ok (Json.Int min_int));
  check "12345678901234567890" (Ok (Json.Float 12345678901234567890.));
  check "1e3" (Ok (Json.Float 1000.));
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%g reads back as a float" f)
        true
        (Json.parse (Json.to_string (Json.Float f)) = Ok (Json.Float f)))
    [ 1e15; -1.5e16; 12345678901234567. ];
  check "[-2.5,3]" (Ok (Json.List [ Json.Float (-2.5); Json.Int 3 ]));
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (Result.is_error (Json.parse bad)))
    [ "-"; "1-2"; "--1"; "\"unterminated"; "\"bad \\q escape\"" ];
  Alcotest.(check (option string))
    "escapes decode" (Some "a\"b\\c\nd\001")
    (Json.to_str
       (Result.get_ok (Json.parse {|"a\"b\\c\nd\u0001"|})))

(* ---------------- request layer (Modes) ---------------- *)

module Modes = Server_lib.Modes
module B = Workloads.Bench_programs
module MC = Core.Multicore

let catalog name =
  match B.by_name name with
  | Some b -> (b.B.program, b.B.annot)
  | None -> Alcotest.failf "no catalog program %s" name

(* The number of front ends [f] builds: its balanced ctx.build spans. *)
let ctx_builds f =
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

let test_one_front_end_per_request () =
  List.iter
    (fun name ->
      let task = catalog name in
      List.iter
        (fun mode ->
          let label = name ^ "/" ^ Core.Mode.name mode in
          let r, builds =
            ctx_builds (fun () ->
                Modes.analyze ~mode ~cores:2 ~kind:Modes.Wcet task)
          in
          Alcotest.(check bool) (label ^ " analyzed") true (Result.is_ok r);
          Alcotest.(check int) (label ^ " builds one context") 1 builds;
          let r, builds =
            ctx_builds (fun () ->
                Modes.analyze ~mode ~cores:2 ~kind:Modes.Bcet task)
          in
          let expected = if mode = Core.Mode.Solo then 1 else 0 in
          Alcotest.(check bool)
            (label ^ " bcet defined for solo only")
            (mode = Core.Mode.Solo) (Result.is_ok r);
          Alcotest.(check int) (label ^ " bcet contexts") expected builds)
        Core.Mode.all;
      let _, builds =
        ctx_builds (fun () ->
            Modes.analyze_all ~cores:2 ~kind:Modes.Wcet task)
      in
      Alcotest.(check int) (name ^ " sweep builds two contexts") 2 builds;
      (* attribute's path: every mode plus the helpers on one pack *)
      let _, builds =
        ctx_builds (fun () ->
            let pack = Modes.pack ~cores:2 task in
            List.iter
              (fun mode ->
                ignore (Modes.analyze_mode ~mode ~kind:Modes.Wcet pack))
              Core.Mode.all;
            ignore (Modes.contexts pack))
      in
      Alcotest.(check int) (name ^ " one pack builds two contexts") 2 builds)
    [ "crc"; "calls" ]

(* The fresh front-to-back analysis of a mode, as [Modes] ran it before
   requests shared a context pack: the differential reference. *)
let fresh_entry ?refine ~cores mode ((program, annot) as task) =
  let sys = MC.default_system ~cores ~tasks:(Array.make cores (Some task)) in
  let core0 results =
    match results.(0) with
    | Some w -> Store.Entry.of_wcet w
    | None -> Alcotest.fail "no analysis result for core 0"
  in
  match mode with
  | Core.Mode.Solo ->
      let l2 = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16 in
      Store.Entry.of_wcet
        (Core.Wcet.analyze ~annot ?refine
           (Core.Platform.single_core ~l2 ())
           program)
  | Core.Mode.Oblivious -> core0 (MC.analyze_oblivious ?refine sys)
  | Core.Mode.Joint -> core0 (MC.analyze_joint ?refine sys ())
  | Core.Mode.Bypass -> core0 (MC.analyze_joint ?refine sys ~bypass:true ())
  | Core.Mode.Columnized ->
      core0
        (MC.analyze_partitioned ?refine sys
           ~scheme:Cache.Partition.Columnization)
  | Core.Mode.Bankized ->
      core0
        (MC.analyze_partitioned ?refine sys
           ~scheme:Cache.Partition.Bankization)
  | Core.Mode.Locked -> core0 (MC.analyze_locked ?refine sys)
  | Core.Mode.Dynamic -> core0 (MC.analyze_locked_dynamic ?refine sys)

let check_identity ?refine name =
  let task = catalog name in
  let sweep = Modes.analyze_all ?refine ~cores:2 ~kind:Modes.Wcet task in
  List.iter
    (fun (mode, swept) ->
      let label = name ^ "/" ^ Core.Mode.name mode in
      let entry = function
        | Ok e -> e
        | Error msg -> Alcotest.failf "%s: %s" label msg
      in
      let single =
        entry (Modes.analyze ?refine ~mode ~cores:2 ~kind:Modes.Wcet task)
      in
      Alcotest.(check bool)
        (label ^ " single = sweep")
        true
        (Store.Entry.equal single (entry swept));
      Alcotest.(check bool)
        (label ^ " single = fresh")
        true
        (Store.Entry.equal single (fresh_entry ?refine ~cores:2 mode task)))
    sweep

let test_single_mode_identity () =
  List.iter (fun (b : B.t) -> check_identity b.B.name) (B.suite ());
  List.iter
    (check_identity ~refine:Refine.default)
    [ "mode_select"; "exclusive_modes"; "dead_arm" ]

(* A constant address below the data space's first byte: every mode
   classifies the access as unknown and bounds the program. *)
let test_negative_address_bounded () =
  let program =
    Isa.Asm.parse ~name:"neg"
      "main:\n  li r1, -300000\n  ld.d r2, 0(r1)\n  halt\n"
  in
  List.iter
    (fun (mode, r) ->
      match r with
      | Ok (_ : Store.Entry.t) -> ()
      | Error msg -> Alcotest.failf "%s: %s" (Core.Mode.name mode) msg)
    (Modes.analyze_all ~cores:2 ~kind:Modes.Wcet
       (program, Dataflow.Annot.empty))

let () =
  Alcotest.run "server"
    [
      ( "serving",
        [
          Alcotest.test_case "cold/hot/warm replies bit-identical" `Quick
            test_cold_hot_warm_identity;
          Alcotest.test_case "mode all sweeps from one shared context" `Quick
            test_mode_all;
          Alcotest.test_case "inline program with loop bounds" `Quick
            test_inline_with_bounds;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "error paths carry uniform codes" `Quick
            test_protocol_errors;
          Alcotest.test_case "status and stats introspection" `Quick
            test_status_and_stats;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "full queue refuses deterministically" `Quick
            test_busy_backpressure;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op in both renderings" `Quick
            test_metrics_op;
          Alcotest.test_case "counters monotone across scrapes" `Quick
            test_scrape_monotone;
          Alcotest.test_case "trace tree stable across worker counts" `Quick
            test_trace_tree_stable_across_workers;
        ] );
      ( "json",
        Alcotest.test_case "numbers and escapes" `Quick test_json_numbers
        :: List.map QCheck_alcotest.to_alcotest json_props );
      ( "modes",
        [
          Alcotest.test_case "one front end per single-mode request" `Quick
            test_one_front_end_per_request;
          Alcotest.test_case "single mode equals sweep and fresh path"
            `Quick test_single_mode_identity;
          Alcotest.test_case "negative static address bounded in every mode"
            `Quick test_negative_address_bounded;
        ] );
      ( "loadtest",
        [
          Alcotest.test_case "invalid configs are clean errors" `Quick
            test_loadtest_validation;
          Alcotest.test_case "scrape delta matches the client count" `Quick
            test_loadtest_scrape_delta;
        ] );
    ]
