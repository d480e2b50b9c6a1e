type kind = Wcet | Bcet

let kind_name = function Wcet -> "wcet" | Bcet -> "bcet"

let kind_of_string = function
  | "wcet" -> Ok Wcet
  | "bcet" -> Ok Bcet
  | s -> Error (Printf.sprintf "unknown kind %S (expected wcet | bcet)" s)

let task_group ~cores task =
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
  | Core.Mode.Solo -> (
      match
        Core.Memo.key ~kind:kind_s ~annot
          ~salt:(Option.map Refine.salt refine)
          (Core.Mode.solo_platform ()) program
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
      let sys = task_group ~cores (program, Dataflow.Annot.empty) in
      Engine.Fingerprint.of_strings
        [
          "paratime-serve-v1";
          kind_s;
          Core.Mode.name mode;
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
  sys : Core.Multicore.system;
  ctxs : Core.Multicore.contexts Lazy.t;
  solo_ctx : Core.Context.t Lazy.t;
}

let pack ~cores ((program, annot) as task) =
  let sys = task_group ~cores task in
  {
    sys;
    ctxs = lazy (Core.Multicore.contexts sys);
    solo_ctx =
      lazy
        (Core.Context.of_platform ~annot (Core.Mode.solo_platform ())
           program);
  }

let system p = p.sys
let contexts p = Lazy.force p.ctxs

let analyze_mode ?refine ~mode ~kind p =
  let solo = Core.Mode.solo_platform () in
  match
    match (kind, mode) with
    | Bcet, Core.Mode.Solo ->
        Ok
          (Store.Entry.of_bcet
             (Core.Bcet.analyze_with ~ctx:(Lazy.force p.solo_ctx) solo))
    | Bcet, m ->
        Error
          (Printf.sprintf
             "kind bcet is only defined for mode solo (got mode %s)"
             (Core.Mode.name m))
    | Wcet, Core.Mode.Solo ->
        Ok
          (Store.Entry.of_wcet
             (Core.Wcet.analyze_with ?refine ~ctx:(Lazy.force p.solo_ctx)
                solo))
    | Wcet, m -> (
        match (Core.Mode.analyze ~ctxs:(contexts p) ?refine p.sys m).(0) with
        | Some w -> Ok (Store.Entry.of_wcet w)
        | None -> Error "no analysis result for core 0")
  with
  | r -> r
  | exception Core.Wcet.Not_analysable msg -> Error ("not analysable: " ^ msg)

let analyze ?refine ~mode ~cores ~kind task =
  analyze_mode ?refine ~mode ~kind (pack ~cores task)

let analyze_all ?(modes = Core.Mode.all) ?refine ~cores ~kind task =
  let p = pack ~cores task in
  List.map (fun mode -> (mode, analyze_mode ?refine ~mode ~kind p)) modes
