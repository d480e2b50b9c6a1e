(* serve_mixed: a [paratime serve -j 1] child driven by two client
   threads on two connections.  90% of requests repeat one of 64
   catalog keys (8 programs x 8 modes), 10% send a fresh generated
   program inline with its loop bounds.  Hot requests work the
   protocol, the store front and the service plumbing; the cold tenth
   works the analysis.  Phases: prefill (set-up); closed-loop blocks (a
   hot ping on one connection, the mix on both), which give the
   end-to-end numbers; seeded Poisson arrivals at a low and a high
   rate, and a bisection for the highest rate that meets the latency
   limit; then a clean restart on the same store and one closed-loop
   (warm, disk) request per key seen. *)

open Common
open Ledger_lib
module B = Workloads.Bench_programs
module J = Server_lib.Json
module O = Fuzz.Oracle

(* Offered rates at nominal host speed, fixed so that every commit is
   driven alike: about 30% and 70% of serve.max_rps as measured on a
   2-core machine at the commit that introduced the ledger. *)
let rate_low = 600.
let rate_high = 1400.
let latency_limit_ms = 50.
let min_completed = 0.97
let repeat_share = 0.9
let bisection_steps = 5

(* The catalog half of the working set; the same for every seed so
   that set-up (which analyzes them cold) costs the same. *)
let working_programs =
  [
    "matmul";
    "bubble_sort";
    "crc";
    "fir";
    "bitcount";
    "memcpy";
    "pointer_chase";
    "calls";
  ]

let now_s () = Int64.to_float (now_ns ()) /. 1e9

(* ---- the server child ---- *)

type server = { pid : int; port : int; out : in_channel }

(* servers started and not yet stopped *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let start cfg ~store ?(extra = []) () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let log =
    Unix.openfile
      (Filename.concat cfg.tmp "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let args =
    [ cfg.paratime; "serve"; "--port"; "0"; "-j"; "1"; "--store"; store ]
    @ extra
  in
  let pid =
    Unix.create_process cfg.paratime (Array.of_list args) null wr log
  in
  List.iter Unix.close [ wr; log; null ];
  live := pid :: !live;
  let out = Unix.in_channel_of_descr rd in
  match input_line out with
  | exception End_of_file -> failwith "paratime serve exited before listening"
  | line -> (
      try
        Scanf.sscanf line "paratime: serving on 127.0.0.1:%d" (fun port ->
            { pid; port; out })
      with Scanf.Scan_failure _ | End_of_file ->
        failwith ("unexpected server output: " ^ line))

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect s =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, s.port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let disconnect c = Unix.close c.fd

(* A clean shutdown: the shutdown op, then the process must print its
   last line and exit 0. *)
let stop s =
  let c = connect s in
  ignore (request c {|{"id":1,"op":"shutdown"}|});
  disconnect c;
  let rec last l =
    match input_line s.out with l -> last l | exception End_of_file -> l
  in
  let l = last "" in
  close_in s.out;
  let _, status = Unix.waitpid [] s.pid in
  live := List.filter (fun p -> p <> s.pid) !live;
  if status <> Unix.WEXITED 0 || l <> "paratime: server stopped" then
    fail "paratime serve did not stop cleanly (last line %S)" l

(* ---- requests ---- *)

type req = {
  key : string;  (** client-side identity of the result *)
  fields : (string * J.t) list;
  catalog : (string * string) option;  (** (program, mode) *)
}

let common mode =
  [
    ("op", J.Str "analyze");
    ("mode", J.Str (O.mode_name mode));
    ("cores", J.Int Golden.cores);
    ("kind", J.Str "wcet");
  ]

let line ?trace_id r =
  let trace =
    match trace_id with Some t -> [ ("trace_id", J.Str t) ] | None -> []
  in
  J.to_string (J.Obj ((("id", J.Int 1) :: r.fields) @ trace))

type state = {
  cfg : cfg;
  golden : Golden.t;
  rng : Fuzz.Rng.t;
  catalog : req array;
  mutable fresh : int;
  seen : (string, string) Hashtbl.t;  (** key -> cold reply, normalised *)
  mutable order : string list;  (** keys in first-seen order, reversed *)
  reqs : (string, req) Hashtbl.t;
}

let state cfg =
  let catalog_req (b : B.t) mode =
    {
      key = b.B.name ^ "/" ^ O.mode_name mode;
      fields = ("source", J.Str ("bench:" ^ b.B.name)) :: common mode;
      catalog = Some (b.B.name, O.mode_name mode);
    }
  in
  let catalog =
    List.concat_map
      (fun name ->
        List.map (catalog_req (Option.get (B.by_name name))) O.all_modes)
      working_programs
  in
  {
    cfg;
    golden = Golden.load cfg.golden;
    rng = Fuzz.Rng.create ~seed:cfg.seed;
    catalog = Array.of_list catalog;
    fresh = 0;
    seen = Hashtbl.create 4096;
    order = [];
    reqs = Hashtbl.create 4096;
  }

(* The generator seed of the fresh programs, the same for every run
   seed: the mean analysis cost of a thousand programs moved by a tenth
   from one generator seed to the next, and the mix rate with it.  The
   run seed chooses which requests are fresh and which keys repeat. *)
let fresh_seed = 7

(* A program no earlier request sent, inline with its loop bounds; the
   modes rotate. *)
let fresh st =
  let i = st.fresh in
  st.fresh <- i + 1;
  let g = Fuzz.Generator.generate ~seed:fresh_seed ~index:i () in
  let bounds =
    List.map
      (fun (p, l, n) -> J.List [ J.Str p; J.Str l; J.Int n ])
      (Dataflow.Annot.loop_bounds g.Fuzz.Generator.annot)
  in
  let mode = List.nth O.all_modes (i mod List.length O.all_modes) in
  {
    key = "fresh/" ^ string_of_int i;
    fields =
      ("name", J.Str g.Fuzz.Generator.name)
      :: ("asm", J.Str g.Fuzz.Generator.source)
      :: ("bounds", J.List bounds)
      :: common mode;
    catalog = None;
  }

let pick st =
  if uniform st.rng < repeat_share then
    st.catalog.(Fuzz.Rng.int st.rng (Array.length st.catalog))
  else fresh st

(* ---- replies ---- *)

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Hot, warm and cold replies differ only in the "cached" field. *)
let normalise reply =
  let tag = {|"cached":"|} in
  match find_sub reply tag with
  | None -> reply
  | Some i -> (
      let j = i + String.length tag in
      match String.index_from_opt reply j '"' with
      | None -> reply
      | Some k ->
          String.sub reply 0 j ^ String.sub reply k (String.length reply - k))

let check_golden st (r : req) j reply =
  match r.catalog with
  | None -> ()
  | Some (program, mode) -> (
      let bound = Option.bind (J.member "result" j) (J.int_field "bound") in
      match Golden.find st.golden ~program ~mode with
      | Some (w, k) when bound = Some w && J.str_field "key" j = Some k -> ()
      | _ -> fail "reply for %s disagrees with the golden file: %s" r.key reply)

(* Checks one reply (golden bound and key for catalog requests, bytes
   against the key's cold reply) and returns its outcome. *)
let validate st r reply =
  match J.parse reply with
  | Error e ->
      fail "unparsable reply for %s: %s" r.key e;
      "error"
  | Ok j -> (
      match (J.member "ok" j, J.str_field "cached" j) with
      | Some (J.Bool true), Some cached ->
          check_golden st r j reply;
          let norm = normalise reply in
          (match Hashtbl.find_opt st.seen r.key with
          | Some cold ->
              if norm <> cold then
                fail "%s reply for %s differs from its cold reply" cached r.key
          | None ->
              if cached <> "cold" then
                fail "first reply for %s was %s, not cold" r.key cached;
              Hashtbl.replace st.seen r.key norm;
              Hashtbl.replace st.reqs r.key r;
              st.order <- r.key :: st.order);
          cached
      | _ ->
          fail "request %s failed: %s" r.key reply;
          "error")

(* ---- metrics op ---- *)

let scrape c =
  let reply = request c {|{"id":1,"op":"metrics"}|} in
  let metrics =
    Option.bind (Result.to_option (J.parse reply)) (J.member "metrics")
  in
  match Option.bind metrics (J.member "counters") with
  | Some (J.Obj kv) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (J.to_int v))
        kv
  | _ ->
      fail "metrics op failed: %s" reply;
      []

let delta before after name =
  Option.value ~default:0 (List.assoc_opt name after)
  - Option.value ~default:0 (List.assoc_opt name before)

(* The server's per-op counter must account for exactly what was sent. *)
let check_count before after ~sent =
  let d = delta before after "server.req.analyze" in
  if d <> sent then
    fail "server counted %d analyze requests, the client sent %d" d sent

(* ---- phases ---- *)

type shot = { req : req; due : float; trace_id : string option }

type outcome = {
  shot : shot;
  mutable sent : float;
  mutable done_ : float;  (** nan: never sent *)
  mutable late : float;  (** the generator's own lateness *)
  mutable reply : string;
  mutable cached : string;
}

let outcomes shots =
  Array.map
    (fun shot ->
      { shot; sent = nan; done_ = nan; late = 0.; reply = ""; cached = "" })
    shots

let answered o = not (Float.is_nan o.done_)

(* [worker c] on one thread per connection, then every reply that came
   back is checked. *)
let drive st conns res worker =
  let errors = ref [] in
  let guarded c =
    try worker c with e -> errors := Printexc.to_string e :: !errors
  in
  List.iter Thread.join (List.map (Thread.create guarded) conns);
  List.iter (fail "client connection failed: %s") !errors;
  Array.iter
    (fun o ->
      if answered o then begin
        incr attempted;
        o.cached <- validate st o.shot.req o.reply
      end)
    res

let sent res =
  Array.fold_left (fun a o -> if answered o then a + 1 else a) 0 res

(* -- open loop -- *)

type phase = {
  res : outcome array;
  start : float;
  stop_at : float;
  speed : float;  (** host speed measured before the phase *)
}

let schedule st ~rate ~seconds ~tag =
  let rec go t k acc =
    let t = t -. (log (uniform st.rng) /. rate) in
    if t >= seconds then Array.of_list (List.rev acc)
    else
      let trace_id = Option.map (fun p -> Printf.sprintf "%s%d" p k) tag in
      go t (k + 1) ({ req = pick st; due = t; trace_id } :: acc)
  in
  go 0. 0 []

(* Two threads, one connection each, take the shots in order: a shot
   goes to the first idle connection and is timed from its due time.
   Shots not started by the end of the phase are never sent. *)
let run_phase st conns shots ~seconds =
  let res = outcomes shots in
  let next = Atomic.make 0 in
  let start = now_s () +. 0.002 in
  let stop_at = start +. seconds in
  let rec loop c =
    let k = Atomic.fetch_and_add next 1 in
    if k < Array.length res then begin
      let picked = now_s () in
      if picked < stop_at then begin
        let o = res.(k) in
        let due = start +. o.shot.due in
        if due > picked then Unix.sleepf (due -. picked);
        let sent = now_s () in
        o.reply <- request c (line ?trace_id:o.shot.trace_id o.shot.req);
        o.done_ <- now_s ();
        o.sent <- sent;
        o.late <- sent -. Float.max due picked;
        loop c
      end
    end
  in
  drive st conns res loop;
  (res, start, stop_at)

(* Latency from the due time, less the generator's own lateness, at
   nominal speed; a shot never sent waited at least until the end of
   the phase. *)
let latencies ?(only = fun _ -> true) p =
  let latency o =
    let due = p.start +. o.shot.due in
    let s =
      if answered o then o.done_ -. due -. o.late else p.stop_at -. due
    in
    s *. 1000. *. p.speed
  in
  sorted_of_list
    (Array.fold_left
       (fun acc o -> if only o then latency o :: acc else acc)
       [] p.res)

let gen_late_p99_us res =
  match List.filter answered (Array.to_list res) with
  | [] -> 0.
  | l ->
      Stats.percentile
        (sorted_of_list (List.map (fun o -> o.late *. 1e6) l))
        0.99

(* A step meets the limit when its p99 is within the latency limit,
   nothing failed, and at least 97% of the offered shots completed
   within the step. *)
let step_ok p =
  let n = Array.length p.res in
  let completed =
    Array.fold_left
      (fun a o -> if o.done_ <= p.stop_at then a + 1 else a)
      0 p.res
  in
  n > 0
  && Stats.percentile (latencies p) 0.99 <= latency_limit_ms
  && Array.for_all (fun o -> o.cached <> "error") p.res
  && float_of_int completed >= min_completed *. float_of_int n

(* [rate] is at nominal host speed: the rate offered is scaled by the
   speed measured just before, so that the server runs at the same
   utilisation however fast the host is at the moment. *)
let phase st conns ~rate ~seconds ?tag () =
  let speed = host_speed () in
  let shots = schedule st ~rate:(rate *. speed) ~seconds ~tag in
  let res, start, stop_at = run_phase st conns shots ~seconds in
  let late = gen_late_p99_us res in
  if late > 1000. then
    Printf.printf
      "note: step at %.0f req/s is invalid: generator p99 lateness %.0f us\n%!"
      rate late;
  { res; start; stop_at; speed }

(* -- closed loop -- *)

(* Every connection sends its next request as soon as the previous reply
   is in, for [seconds]; [next k] is the k-th request, at most [cap] of
   them.  Returns the send-to-reply latencies (ms), the number sent and
   the seconds until the last reply. *)
let closed_phase st conns ~seconds ~cap next =
  let res =
    outcomes
      (Array.init cap (fun k -> { req = next k; due = 0.; trace_id = None }))
  in
  let idx = Atomic.make 0 in
  let start = now_s () in
  let stop_at = start +. seconds in
  let rec loop c =
    let k = Atomic.fetch_and_add idx 1 in
    if k < cap && now_s () < stop_at then begin
      let o = res.(k) in
      o.sent <- now_s ();
      o.reply <- request c (line o.shot.req);
      o.done_ <- now_s ();
      loop c
    end
  in
  drive st conns res loop;
  let finished = List.filter answered (Array.to_list res) in
  let last = List.fold_left (fun a o -> Float.max a o.done_) start finished in
  let n = List.length finished in
  (List.map (fun o -> (o.done_ -. o.sent) *. 1000.) finished, n, last -. start)

(* One request per key on one connection; latencies at nominal speed. *)
let closed_loop st c keys ?tag () =
  let speed = host_speed () in
  List.mapi
    (fun k key ->
      let r = Hashtbl.find st.reqs key in
      let trace_id = Option.map (fun p -> Printf.sprintf "%s%d" p k) tag in
      let t0 = now_s () in
      let reply = request c (line ?trace_id r) in
      let dt = now_s () -. t0 in
      incr attempted;
      (validate st r reply, dt *. speed))
    keys

(* Closed-loop blocks, each bracketed by host-speed probes: a hot ping
   on one connection, then the 90/10 mix on both.  Short blocks spread
   over the run are what make serve numbers repeat on a shared host:
   open-loop latencies at a fixed rate are dominated by how fast idle
   cores wake up and by which co-tenant shares the core that moment.
   The probes stay on the wall clock: they count the time the host took
   the cores away, as the requests do. *)
let blocks st conns ~seconds =
  let catalog = st.catalog in
  let offset = ref 0 in
  paced_loop ~seconds (fun _ ->
      let ping, pinged, _ =
        closed_phase st [ List.hd conns ] ~seconds:0.15 ~cap:10_000 (fun k ->
            catalog.((!offset + k) mod Array.length catalog))
      in
      offset := !offset + pinged;
      let mix, mixed, secs =
        closed_phase st conns ~seconds:0.25 ~cap:3000 (fun _ -> pick st)
      in
      ((ping, mix, mixed, secs), pinged + mixed))

(* ---- server lifecycle ---- *)

let prefill st c =
  Array.iter
    (fun r ->
      let reply = request c (line r) in
      incr attempted;
      ignore (validate st r reply))
    st.catalog

(* Set-up: a server on an empty store, then every catalog key once.
   Returns the set-up time at nominal speed. *)
let set_up st ~name ?extra () =
  let before = probe () in
  let t0 = now_ns () in
  let store = Filename.concat st.cfg.tmp name in
  rm_rf store;
  let s = start st.cfg ~store ?extra () in
  let conns = [ connect s; connect s ] in
  prefill st (List.hd conns);
  let t = ms_since t0 /. 1000. in
  (t *. speed ~before ~after:(probe ()), s, conns, store)

let shut_down (s, conns) =
  List.iter disconnect conns;
  stop s

(* A clean restart on the same store, then one closed-loop request per
   key seen: each must come back from disk (or cold, if the store
   dropped its write).  Returns the replies and the scrapes around
   them. *)
let restart st ~store ?extra ?tag () =
  let s = start st.cfg ~store ?extra () in
  let c = connect s in
  let before = scrape c in
  let warm = closed_loop st c (List.rev st.order) ?tag () in
  let after = scrape c in
  check_count before after ~sent:(List.length warm);
  let dropped = delta before after "store.write_dropped" in
  List.iter
    (fun (cached, _) ->
      if cached <> "warm" && not (cached = "cold" && dropped > 0) then
        fail "after the restart a seen key came back %s" cached)
    warm;
  disconnect c;
  stop s;
  rm_rf store;
  (warm, before, after)

let p50 sorted = if Array.length sorted = 0 then nan else Stats.median sorted
let outcome_is c o = o.cached = c

(* Emits [<prefix>p99_ms] (or the highest percentile with ten samples
   beyond it) and returns its value. *)
let emit_tail prefix sorted =
  let q, tail = Stats.tail ~q:0.99 sorted in
  emit ~n:(Array.length sorted)
    (Printf.sprintf "%sp%g_ms" prefix (100. *. q))
    "ms" tail;
  tail

let run cfg =
  let st = state cfg in
  let reps = setup_reps cfg in
  let set_ups =
    List.init reps (fun i ->
        let ((_, s, conns, store) as r) =
          set_up st ~name:(Printf.sprintf "store%d" i) ()
        in
        if i < reps - 1 then begin
          shut_down (s, conns);
          rm_rf store
        end;
        r)
  in
  let _, s, conns, store = List.nth set_ups (reps - 1) in
  let c0 = List.hd conns in
  let seconds = if cfg.smoke then 1. else cfg.seconds in
  let scraped = ref (scrape c0) in
  let checked ~sent x =
    let now = scrape c0 in
    check_count !scraped now ~sent;
    scraped := now;
    x
  in
  let phase ~rate ~share =
    let p = phase st conns ~rate ~seconds:(share *. seconds) () in
    checked ~sent:(sent p.res) p
  in
  let closed = blocks st conns ~seconds:(0.6 *. seconds) in
  let closed =
    checked
      ~sent:(List.fold_left (fun a ((_, n), _) -> a + n) 0 closed)
      (List.map (fun ((b, _), speed) -> (b, speed)) closed)
  in
  let low = phase ~rate:rate_low ~share:0.1 in
  let high =
    if cfg.smoke then None else Some (phase ~rate:rate_high ~share:0.1)
  in
  let max_rps =
    Option.map
      (fun high ->
        let lo, hi =
          if step_ok high then (rate_high, 3. *. rate_high)
          else (rate_low, rate_high)
        in
        let best, probes =
          Stats.bisect ~lo ~hi ~steps:bisection_steps (fun rate ->
              step_ok (phase ~rate ~share:0.04))
        in
        List.iter
          (fun (r, ok) ->
            Printf.printf "step %.0f req/s: %s\n" r
              (if ok then "meets the limit" else "misses"))
          probes;
        best)
      high
  in
  let rss = vmhwm_mb (Some s.pid) in
  shut_down (s, conns);
  let warm, _, _ = restart st ~store () in
  let scaled f =
    sorted_of_list
      (List.concat_map
         (fun (b, speed) -> List.map (fun x -> x *. speed) (f b))
         closed)
  in
  let ping = scaled (fun (p, _, _, _) -> p) in
  let mix = scaled (fun (_, m, _, _) -> m) in
  (* replies over time at nominal speed, summed over the blocks: one
     block's own rate moves by a tenth with the share of cold requests
     it drew, and the median of those rates spread twice as much from
     run to run *)
  let mix_rate =
    let n, secs =
      List.fold_left
        (fun (n, t) ((_, _, k, s), speed) -> (n + k, t +. (s *. speed)))
        (0, 0.) closed
    in
    float_of_int n /. secs
  in
  let hot = latencies ~only:(outcome_is "hot") low in
  let cold = latencies ~only:(outcome_is "cold") low in
  let warm_us =
    sorted_of_list
      (List.filter_map
         (fun (c, dt) -> if c = "warm" then Some (dt *. 1e6) else None)
         warm)
  in
  let n = Array.length in
  emit ~n:reps "setup_s" "s"
    (median_of (List.map (fun (t, _, _, _) -> t) set_ups));
  emit ~n:(n ping) "serve.ping_p50_us" "us" (1000. *. p50 ping);
  let mix_tail = emit_tail "serve.mix_" mix in
  emit ~n:(List.length closed) "serve.mix_rps" "req/s" mix_rate;
  emit ~n:(n hot) "serve.hot_p50_us" "us" (1000. *. p50 hot);
  emit ~n:(n cold) "serve.cold_p50_ms" "ms" (p50 cold);
  emit ~n:(n warm_us) "serve.warm_p50_us" "us" (p50 warm_us);
  Option.iter (fun high -> ignore (emit_tail "serve." (latencies high))) high;
  Option.iter (emit ~n:bisection_steps "serve.max_rps" "req/s") max_rps;
  emit "peak_rss_mb" "MiB" rss;
  emit ~n:(n ping) "latency_ms" "ms" (p50 ping);
  emit ~n:(n mix) "tail_ms" "ms" mix_tail;
  emit ~n:(List.length closed) "throughput_per_s" "1/s" mix_rate

(* ---- traced run ---- *)

type tree = {
  id : string;
  outcome : string;
  dur_us : float;
  children : (string * float) list;  (** direct children: name, us *)
}

(* Request trees of a Chrome trace export (one event per line): every
   top-level "request" span with the durations of its direct
   children. *)
let trees path =
  let ic = open_in path in
  let stacks = Hashtbl.create 8 in
  let out = ref [] in
  let str k j = Option.value ~default:"" (J.str_field k j) in
  let event e =
    let tid = Option.value ~default:0 (J.int_field "tid" e) in
    let ts =
      match J.member "ts" e with
      | Some (J.Float f) -> f
      | Some (J.Int i) -> float_of_int i
      | _ -> 0.
    in
    let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
    match (J.str_field "ph" e, stack) with
    | Some "B", _ ->
        let args = Option.value ~default:J.Null (J.member "args" e) in
        Hashtbl.replace stacks tid ((str "name" e, ts, args, ref []) :: stack)
    | Some "E", (name, t0, args, kids) :: rest -> (
        Hashtbl.replace stacks tid rest;
        match rest with
        | [] when name = "request" ->
            out :=
              {
                id = str "trace" args;
                outcome = str "outcome" args;
                dur_us = ts -. t0;
                children = List.rev !kids;
              }
              :: !out
        | [ ("request", _, _, root_kids) ] ->
            root_kids := (name, ts -. t0) :: !root_kids
        | _ -> ())
    | _ -> ()
  in
  (try
     while true do
       let l = input_line ic in
       let n = String.length l in
       let l = if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l in
       if String.length l > 6 && String.sub l 0 6 = {|{"ph":|} then
         Result.iter event (J.parse l)
     done
   with End_of_file -> ());
  close_in ic;
  !out

let child_us ?(prefix = false) name t =
  let matches n =
    n = name
    || prefix
       && String.length n >= String.length name
       && String.sub n 0 (String.length name) = name
  in
  List.fold_left
    (fun acc (n, d) -> if matches n then acc +. d else acc)
    0. t.children

let median_over ?(only = fun _ -> true) f ts =
  match List.filter_map (fun t -> if only t then Some (f t) else None) ts with
  | [] -> 0.
  | l -> median_of l

(* Traced run: one untraced server for the reference hot latency, then
   a server recording every request tree ([--trace-sample 1 --slow-ms
   0]) for a low and a high phase, then a traced restart for the warm
   probes.  The metrics op is scraped around each phase. *)
let run_traced cfg =
  let seconds = if cfg.smoke then 1. else cfg.seconds in
  let part = seconds /. 4. in
  let plain_st = state cfg in
  let _, s, conns, store = set_up plain_st ~name:"plain" () in
  let plain = phase plain_st conns ~rate:rate_low ~seconds:part () in
  shut_down (s, conns);
  rm_rf store;
  let traced_server file =
    [ "--trace-sample"; "1"; "--slow-ms"; "0" ]
    @ [ "--trace"; Filename.concat cfg.tmp file ]
  in
  (* the same requests again, on a fresh store *)
  let st = state cfg in
  let _, s, conns, store =
    set_up st ~name:"traced" ~extra:(traced_server "serve.json") ()
  in
  let c0 = List.hd conns in
  let s0 = scrape c0 in
  let low = phase st conns ~rate:rate_low ~seconds:part ~tag:"l" () in
  let high = phase st conns ~rate:rate_high ~seconds:part ~tag:"h" () in
  let s1 = scrape c0 in
  check_count s0 s1 ~sent:(sent low.res + sent high.res);
  shut_down (s, conns);
  let _, w0, w1 =
    restart st ~store ~extra:(traced_server "warm.json") ~tag:"w" ()
  in
  let served = trees (Filename.concat cfg.tmp "serve.json") in
  let restarted = trees (Filename.concat cfg.tmp "warm.json") in
  let is o t = t.outcome = o in
  let round_trip = Hashtbl.create 4096 in
  Array.iter
    (fun o ->
      match o.shot.trace_id with
      | Some id when answered o ->
          Hashtbl.replace round_trip id ((o.done_ -. o.sent) *. 1e6)
      | _ -> ())
    (Array.append low.res high.res);
  let transport =
    List.filter_map
      (fun t ->
        Option.map
          (fun rtt -> rtt -. t.dur_us)
          (Hashtbl.find_opt round_trip t.id))
      served
  in
  let ratio hits misses before after =
    let h = delta before after hits and m = delta before after misses in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let hot_p50 p = p50 (latencies ~only:(outcome_is "hot") p) in
  let cold_ms ?prefix name =
    median_over ~only:(is "cold")
      (fun t -> child_us ?prefix name t /. 1000.)
      served
  in
  let n = List.length served in
  emit ~n "residual_ms" "ms"
    (median_over
       (fun t ->
         Stats.residual ~whole:t.dur_us (List.map snd t.children) /. 1000.)
       served);
  emit "trace_overhead" "ratio" (hot_p50 low /. hot_p50 plain);
  emit ~n "server.parse_us" "us" (median_over (child_us "parse") served);
  emit "server.probe_us.hot" "us"
    (median_over ~only:(is "hot") (child_us "store.probe") served);
  emit "server.probe_us.warm" "us"
    (median_over ~only:(is "warm") (child_us "store.probe") restarted);
  emit ~n "server.encode_us" "us" (median_over (child_us "encode") served);
  emit "server.queue_wait_ms" "ms" (cold_ms "queue.wait");
  emit "server.analysis_ms" "ms" (cold_ms ~prefix:true "serve:");
  emit ~n:(List.length transport) "serve.transport_us" "us"
    (median_over Fun.id transport);
  emit "store.mem_hit_ratio" "ratio"
    (ratio "store.mem.hits" "store.mem.misses" s0 s1);
  emit "store.disk_hit_ratio" "ratio"
    (ratio "store.disk.hits" "store.disk.misses" w0 w1);
  emit "store.write_dropped" "count"
    (float_of_int
       (delta s0 s1 "store.write_dropped" + delta w0 w1 "store.write_dropped"));
  emit "service.busy" "count" (float_of_int (delta s0 s1 "server.busy"));
  emit "serve.gen_late_p99_us" "us"
    (gen_late_p99_us (Array.append low.res high.res))
