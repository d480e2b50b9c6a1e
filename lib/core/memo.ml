type tier2 = {
  t2_find : kind:string -> string -> string option;
  t2_store : kind:string -> string -> string -> unit;
}

type t = {
  lru : (string, packed) Engine.Lru.t;
  mutable tier2 : tier2 option;
}

and packed = Wcet_r of Wcet.t | Bcet_r of Bcet.t

let create ?(capacity = 512) () =
  { lru = Engine.Lru.create ~capacity (); tier2 = None }

let set_tier2 t hook = t.tier2 <- hook
let stats t = Engine.Lru.stats t.lru

(* Per-domain (hits, lookups) counters, global across all memo tables so a
   pool worker can attribute cache behaviour to the job it is running. *)
let local_key = Domain.DLS.new_key (fun () -> (ref 0, ref 0))

let local_stats () =
  let hits, lookups = Domain.DLS.get local_key in
  (!hits, !lookups)

let render_fingerprint (p : Isa.Program.t) =
  let fp = Engine.Fingerprint.create () in
  Engine.Fingerprint.string fp p.Isa.Program.name;
  Engine.Fingerprint.int fp p.Isa.Program.base;
  Engine.Fingerprint.int fp p.Isa.Program.entry;
  List.iter
    (fun (l, i) ->
      Engine.Fingerprint.string fp l;
      Engine.Fingerprint.int fp i)
    p.Isa.Program.labels;
  Array.iter
    (fun ins -> Engine.Fingerprint.string fp (Isa.Instr.to_string ins))
    p.Isa.Program.code;
  Engine.Fingerprint.digest fp

(* Rendering every instruction costs far more than a lookup, and one
   program is keyed many times in a row (every mode, core slot and kind
   of a request or fuzz group).  Each domain keeps its last few
   (program, digest) pairs, matched by physical identity: a program
   never changes after [Isa.Program.make], so the same program has the
   same digest.  The list and its pairs are immutable, so systhreads
   sharing a domain can at worst drop an entry, never read a wrong
   one. *)
let recent_size = 8
let recent_key = Domain.DLS.new_key (fun () -> ref [])

let program_fingerprint p =
  let recent = Domain.DLS.get recent_key in
  match List.assq_opt p !recent with
  | Some digest -> digest
  | None ->
      let digest = render_fingerprint p in
      let older = List.filteri (fun i _ -> i < recent_size - 1) !recent in
      recent := (p, digest) :: older;
      digest

(* [None] when the point is uncacheable: the platform's resolved waits do
   not exist (unanalysable arbiter — the analysis will raise anyway) or the
   L2 mode carries closures and the caller supplied no salt for them. *)
let key ~kind ~annot ~salt platform program =
  let finish platform_repr =
    Some
      (Engine.Fingerprint.of_strings
         [
           kind;
           platform_repr;
           Option.value salt ~default:"";
           Dataflow.Annot.fingerprint annot;
           program_fingerprint program;
         ])
  in
  match Platform.fingerprint platform with
  | None -> None
  | Some (`Pure repr) -> finish repr
  | Some (`Needs_salt repr) -> (
      match salt with Some _ -> finish repr | None -> None)

let lookup t key =
  let hits, lookups = Domain.DLS.get local_key in
  incr lookups;
  match Engine.Lru.find t.lru key with
  | Some _ as r ->
      incr hits;
      r
  | None -> None

let wcet t ?(annot = Dataflow.Annot.empty) ?salt ?telemetry ?compute platform
    program =
  (* [compute] overrides the miss path (e.g. a context-based back end);
     its result must be bit-identical to the fresh analysis — the memo
     key cannot tell them apart, by design. *)
  let analyze () =
    match compute with
    | Some f -> f ()
    | None -> Wcet.analyze ~annot ?telemetry platform program
  in
  match key ~kind:"wcet" ~annot ~salt platform program with
  | None -> analyze ()
  | Some k -> (
      match lookup t k with
      | Some (Wcet_r r) -> r
      | Some (Bcet_r _) | None ->
          let r = analyze () in
          Engine.Lru.put t.lru k (Wcet_r r);
          r)

(* Blob-level entry points: the result crosses the API as an encoded
   string, which is what lets the *second level* serve a hit without
   being able to rebuild a full (closure-carrying) analysis result.  The
   caller's [encode] must be canonical (equal results -> equal bytes);
   with that, a tier-2 hit is bit-identical to re-encoding the cold
   result it was written from. *)
let encoded_of t ~kind ~encode ~analyze ~pack ~unpack key =
  match key with
  | None -> encode (analyze ())
  | Some k -> (
      let compute_and_store () =
        let r = analyze () in
        Engine.Lru.put t.lru k (pack r);
        let blob = encode r in
        (match t.tier2 with
        | Some h ->
            h.t2_store ~kind k blob;
            Obs.add "memo.tier2_store" 1
        | None -> ());
        blob
      in
      match Option.bind (lookup t k) unpack with
      | Some r -> encode r
      | None -> (
          match t.tier2 with
          | None -> compute_and_store ()
          | Some h -> (
              match h.t2_find ~kind k with
              | Some blob ->
                  (* a second-level hit spares the analysis: count it as
                     a hit for the calling domain's job accounting *)
                  let hits, _ = Domain.DLS.get local_key in
                  incr hits;
                  Obs.add "memo.tier2_hit" 1;
                  blob
              | None -> compute_and_store ())))

let wcet_encoded t ~encode ?(annot = Dataflow.Annot.empty) ?salt ?telemetry
    platform program =
  encoded_of t ~kind:"wcet" ~encode
    ~analyze:(fun () -> Wcet.analyze ~annot ?telemetry platform program)
    ~pack:(fun r -> Wcet_r r)
    ~unpack:(function Wcet_r r -> Some r | Bcet_r _ -> None)
    (key ~kind:"wcet" ~annot ~salt platform program)

let bcet_encoded t ~encode ?(annot = Dataflow.Annot.empty) ?salt ?telemetry
    platform program =
  encoded_of t ~kind:"bcet" ~encode
    ~analyze:(fun () -> Bcet.analyze ~annot ?telemetry platform program)
    ~pack:(fun r -> Bcet_r r)
    ~unpack:(function Bcet_r r -> Some r | Wcet_r _ -> None)
    (key ~kind:"bcet" ~annot ~salt platform program)

let bcet t ?(annot = Dataflow.Annot.empty) ?salt ?telemetry ?compute platform
    program =
  let analyze () =
    match compute with
    | Some f -> f ()
    | None -> Bcet.analyze ~annot ?telemetry platform program
  in
  match key ~kind:"bcet" ~annot ~salt platform program with
  | None -> analyze ()
  | Some k -> (
      match lookup t k with
      | Some (Bcet_r r) -> r
      | Some (Wcet_r _) | None ->
          let r = analyze () in
          Engine.Lru.put t.lru k (Bcet_r r);
          r)
