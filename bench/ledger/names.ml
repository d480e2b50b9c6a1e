let workloads =
  [ "analyze_catalog"; "serve_mixed"; "fuzz_campaign"; "sim_corpus" ]

let end_to_end =
  [
    ("latency_ms", "ms");
    ("tail_ms", "ms");
    ("throughput_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
  ]

let mode_names =
  [
    "solo";
    "oblivious";
    "joint";
    "bypass";
    "columnized";
    "bankized";
    "locked";
    "dynamic";
  ]

let sim_mode_names = List.filter (fun m -> m <> "dynamic") mode_names

let span_names =
  [
    "block-costs";
    "cache-analysis";
    "cache.l1.may";
    "cache.l1.must";
    "cache.l1.pers";
    "cache.l2.may";
    "cache.l2.must";
    "cache.l2.pers";
    "cfg-build";
    "cfg-loops";
    "ctx.build";
    "ipet-solve";
    "loop-bounds";
    "lp.ilp.solve";
    "lp.simplex.prepare";
    "lp.simplex.warm_solve";
    "value-analysis";
    "sim.predecode";
    "sim.run";
  ]

let span_metric name = "span." ^ name ^ ".self_ms"

let per_layer =
  [
    ("residual_ms", "ms");
    ("trace_overhead", "ratio");
    ("core.context_ms", "ms");
    ("core.one_ms", "ms");
  ]
  @ List.map (fun m -> ("core.backend_ms." ^ m, "ms")) mode_names
  @ [
      ("lp.pivots", "count");
      ("lp.ilp_nodes", "count");
      ("dataflow.worklist_pops", "count");
      ("dataflow.transfers", "count");
      ("cache.fixpoint_iterations", "count");
      ("gc.minor_mwords", "Mword");
      ("gc.major_mwords", "Mword");
    ]
  @ List.map (fun n -> (span_metric n, "ms")) span_names
  @ [
      ("server.parse_us", "us");
      ("server.probe_us.hot", "us");
      ("server.probe_us.warm", "us");
      ("server.encode_us", "us");
      ("server.queue_wait_ms", "ms");
      ("server.analysis_ms", "ms");
      ("serve.transport_us", "us");
      ("store.mem_hit_ratio", "ratio");
      ("store.disk_hit_ratio", "ratio");
      ("store.write_dropped", "count");
      ("service.busy", "count");
      ("serve.gen_late_p99_us", "us");
      ("fuzz.generate_ms", "ms");
      ("pool.queue_wait_ms", "ms");
      ("pool.run_ms", "ms");
      ("pool.idle_frac", "ratio");
      ("memo.hit_ratio", "ratio");
    ]
  @ List.map (fun m -> ("sim.mcycles_per_s." ^ m, "Mcycle/s")) sim_mode_names
  @ [
      ("sim.uops", "count");
      ("sim.blocks_dispatched", "count");
      ("sim.fallback_plans", "count");
      ("sim.fallback_frac", "ratio");
    ]
