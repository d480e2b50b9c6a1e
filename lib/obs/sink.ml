type track = {
  tid : int;
  track_name : string;
  ring : Ring.t;
}

type t = {
  clock : unit -> int64;
  metrics : Metrics.t;
  lock : Mutex.t;
  mutable tracks : track list;  (* reversed *)
  mutable next_tid : int;
  track_capacity : int;
}

let default_track_capacity = 1 lsl 16

let create ?clock ?(track_capacity = default_track_capacity) () =
  let clock = match clock with Some c -> c | None -> Monotonic_clock.now in
  {
    clock;
    metrics = Metrics.create ();
    lock = Mutex.create ();
    tracks = [];
    next_tid = 1;
    track_capacity;
  }

let now t = t.clock ()
let metrics t = t.metrics

let new_track t name =
  Mutex.lock t.lock;
  let tr =
    { tid = t.next_tid; track_name = name; ring = Ring.create t.track_capacity }
  in
  t.next_tid <- t.next_tid + 1;
  t.tracks <- tr :: t.tracks;
  Mutex.unlock t.lock;
  tr

let tracks t =
  Mutex.lock t.lock;
  let ts = List.rev t.tracks in
  Mutex.unlock t.lock;
  ts

(* Event recording: single-writer per track by construction (a track is
   only ever written by the domain that currently owns it), so pushes
   need no lock. *)

let begin_ t tr ?(cat = "") ?(args = []) name =
  Ring.push tr.ring
    { Event.ts = t.clock (); kind = Event.Begin { name; cat; args } }

let begin_at tr ~ts ?(cat = "") ?(args = []) name =
  Ring.push tr.ring { Event.ts; kind = Event.Begin { name; cat; args } }

let end_ t tr = Ring.push tr.ring { Event.ts = t.clock (); kind = Event.End }
let end_at tr ~ts = Ring.push tr.ring { Event.ts; kind = Event.End }

let instant t tr ?(cat = "") ?(args = []) name =
  Ring.push tr.ring
    { Event.ts = t.clock (); kind = Event.Instant { name; cat; args } }

let counter t tr ?(cat = "") ?(args = []) name =
  Ring.push tr.ring
    { Event.ts = t.clock (); kind = Event.Counter { name; cat; args } }

(* Export-time repair: a ring that wrapped may have lost Begins whose
   Ends survived (drop those Ends), and a recording interrupted mid-span
   leaves unclosed Begins (synthesize Ends at the last timestamp).  The
   result is balanced and properly nested. *)
let events tr =
  let raw = Ring.to_list tr.ring in
  let depth = ref 0 in
  let kept =
    List.filter
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Begin _ ->
            incr depth;
            true
        | Event.End ->
            if !depth = 0 then false
            else begin
              decr depth;
              true
            end
        | Event.Instant _ | Event.Counter _ -> true)
      raw
  in
  if !depth = 0 then kept
  else
    let last_ts =
      match List.rev kept with e :: _ -> e.Event.ts | [] -> 0L
    in
    kept
    @ List.init !depth (fun _ -> { Event.ts = last_ts; kind = Event.End })

(* The one Begin/End pairing every span reader shares: a stack of open
   Begins per track, so a span is reported when its End is read and
   spans arrive in completion order. *)
let iter_spans tr ~span ~point =
  let stack = ref [] in
  List.iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Begin { name; cat; _ } -> stack := (name, cat, e.ts) :: !stack
      | Event.End -> (
          match !stack with
          | (name, cat, t0) :: rest ->
              stack := rest;
              span ~cat ~ts:t0 ~dur:(Int64.sub e.ts t0) name
          | [] -> ())
      | Event.Instant _ | Event.Counter _ -> point e)
    (events tr)

let dropped tr = Ring.dropped tr.ring
let tid tr = tr.tid
let track_name tr = tr.track_name
