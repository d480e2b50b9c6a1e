type kind = Wcet | Bcet

let kind_name = function Wcet -> "wcet" | Bcet -> "bcet"

let kind_of_string = function
  | "wcet" -> Ok Wcet
  | "bcet" -> Ok Bcet
  | s -> Error (Printf.sprintf "unknown kind %S (expected wcet | bcet)" s)

let mode_of_string = Fuzz.Oracle.mode_of_string

(* Same shared-L2 geometry the CLI's attribute/analyze paths use. *)
let l2_cfg = Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16
let solo_platform () = Core.Platform.single_core ~l2:l2_cfg ()

let system ~cores task =
  Core.Multicore.default_system ~cores
    ~tasks:(Array.make cores (Some task))

(* The multicore modes build their platforms (and closures: lock
   selections, bypass sets) deterministically from the system record and
   the task group, so fingerprinting the system's concrete parameters
   plus the mode name pins the whole analysis configuration. *)
let system_fingerprint (sys : Core.Multicore.system) =
  let fp = Engine.Fingerprint.create () in
  let cache (c : Cache.Config.t) =
    Engine.Fingerprint.ints fp
      [ c.Cache.Config.sets; c.Cache.Config.assoc; c.Cache.Config.line_size ]
  in
  cache sys.Core.Multicore.l1i;
  cache sys.Core.Multicore.l1d;
  cache sys.Core.Multicore.l2;
  Engine.Fingerprint.string fp
    (Interconnect.Arbiter.describe sys.Core.Multicore.arbiter);
  Engine.Fingerprint.string fp
    (match sys.Core.Multicore.refresh with
    | Interconnect.Arbiter.Burst -> "burst"
    | Interconnect.Arbiter.Distributed { interval; duration } ->
        Printf.sprintf "distributed:%d:%d" interval duration);
  (* latencies: default_system always uses the default table *)
  Engine.Fingerprint.string fp "latencies:default";
  Engine.Fingerprint.digest fp

let store_key ?refine ~mode ~cores ~kind annot program =
  let kind_s = kind_name kind in
  (* Refined and unrefined bounds must live under distinct keys: the
     refinement budget salts both keying paths ({!Refine.salt}). *)
  let refine_s =
    match refine with None -> "norefine" | Some c -> Refine.salt c
  in
  match mode with
  | Fuzz.Oracle.Solo -> (
      match
        Core.Memo.key ~kind:kind_s ~annot
          ~salt:(Option.map Refine.salt refine)
          (solo_platform ()) program
      with
      | Some k -> k
      | None ->
          (* unreachable for the pure solo platform, but never crash the
             keying path *)
          Engine.Fingerprint.of_strings
            [
              "paratime-serve-v1";
              kind_s;
              "solo-fallback";
              refine_s;
              Dataflow.Annot.fingerprint annot;
              Core.Memo.program_fingerprint program;
            ])
  | _ ->
      let sys = system ~cores (program, Dataflow.Annot.empty) in
      Engine.Fingerprint.of_strings
        [
          "paratime-serve-v1";
          kind_s;
          Fuzz.Oracle.mode_name mode;
          string_of_int cores;
          refine_s;
          system_fingerprint sys;
          Dataflow.Annot.fingerprint annot;
          Core.Memo.program_fingerprint program;
        ]

(* The mode-invariant front end of one request.  Lazy, so a request
   that never reaches a pack (a BCET request for a contended mode) never
   pays for it; forced inside each mode's exception guard, so a front
   end that fails is that mode's [Error], as on a fresh analysis. *)
type pack = {
  cores : int;
  task : Isa.Program.t * Dataflow.Annot.t;
  ctxs : Core.Multicore.contexts Lazy.t;
  solo_ctx : Core.Context.t Lazy.t;
}

let pack ~cores ((program, annot) as task) =
  {
    cores;
    task;
    ctxs = lazy (Core.Multicore.contexts (system ~cores task));
    solo_ctx =
      lazy (Core.Context.of_platform ~annot (solo_platform ()) program);
  }

let contexts p = Lazy.force p.ctxs

let analyze_mode ?refine ~mode ~kind p =
  let solo_ctx () = Lazy.force p.solo_ctx in
  match (kind, mode) with
  | Bcet, Fuzz.Oracle.Solo -> (
      match Core.Bcet.analyze_with ~ctx:(solo_ctx ()) (solo_platform ()) with
      | b -> Ok (Store.Entry.of_bcet b)
      | exception Core.Wcet.Not_analysable msg ->
          Error ("not analysable: " ^ msg))
  | Bcet, m ->
      Error
        (Printf.sprintf
           "kind bcet is only defined for mode solo (got mode %s)"
           (Fuzz.Oracle.mode_name m))
  | Wcet, m -> (
      let of_core0 results =
        match results.(0) with
        | Some w -> Ok (Store.Entry.of_wcet w)
        | None -> Error "no analysis result for core 0"
      in
      let sys () = system ~cores:p.cores p.task in
      match
        match m with
        | Fuzz.Oracle.Solo ->
            Ok
              (Store.Entry.of_wcet
                 (Core.Wcet.analyze_with ?refine ~ctx:(solo_ctx ())
                    (solo_platform ())))
        | Fuzz.Oracle.Oblivious ->
            of_core0
              (Core.Multicore.analyze_oblivious ~ctxs:(contexts p) ?refine
                 (sys ()))
        | Fuzz.Oracle.Joint ->
            of_core0
              (Core.Multicore.analyze_joint ~ctxs:(contexts p) ?refine
                 (sys ()) ())
        | Fuzz.Oracle.Bypass ->
            of_core0
              (Core.Multicore.analyze_joint ~ctxs:(contexts p) ?refine
                 (sys ()) ~bypass:true ())
        | Fuzz.Oracle.Columnized ->
            of_core0
              (Core.Multicore.analyze_partitioned ~ctxs:(contexts p) ?refine
                 (sys ()) ~scheme:Cache.Partition.Columnization)
        | Fuzz.Oracle.Bankized ->
            of_core0
              (Core.Multicore.analyze_partitioned ~ctxs:(contexts p) ?refine
                 (sys ()) ~scheme:Cache.Partition.Bankization)
        | Fuzz.Oracle.Locked ->
            of_core0
              (Core.Multicore.analyze_locked ~ctxs:(contexts p) ?refine
                 (sys ()))
        | Fuzz.Oracle.Dynamic ->
            of_core0
              (Core.Multicore.analyze_locked_dynamic ~ctxs:(contexts p)
                 ?refine (sys ()))
      with
      | r -> r
      | exception Core.Wcet.Not_analysable msg ->
          Error ("not analysable: " ^ msg))

let analyze ?refine ~mode ~cores ~kind task =
  analyze_mode ?refine ~mode ~kind (pack ~cores task)

let analyze_all ?(modes = Fuzz.Oracle.all_modes) ?refine ~cores ~kind task =
  let p = pack ~cores task in
  List.map (fun mode -> (mode, analyze_mode ?refine ~mode ~kind p)) modes
