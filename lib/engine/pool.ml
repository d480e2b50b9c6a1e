type ctx = { start_ns : int64; deadline_ns : int64 option }

exception Timeout

let check ctx =
  match ctx.deadline_ns with
  | Some d when Int64.compare (Monotonic_clock.now ()) d > 0 -> raise Timeout
  | Some _ | None -> ()

let elapsed_ns ctx = Int64.sub (Monotonic_clock.now ()) ctx.start_ns

type 'a job = { label : string; work : ctx -> 'a }

let job ?(label = "job") work = { label; work }

type 'a outcome =
  | Done of 'a
  | Failed of { label : string; error : string }
  | Timed_out of { label : string; after_ns : int64 }

let default_workers () = max 1 (Domain.recommended_domain_count ())

(* Tracing state of one pool run.  Job tracks are registered up front in
   job order, so their tids — and therefore the merged export — do not
   depend on which worker ends up executing which job; each worker gets
   its own track for the queue-wait/run breakdown.  Every job is
   runnable from [start_ns], the start of the run. *)
type trace = {
  obs : Obs.Sink.t;
  job_tracks : Obs.Sink.track array;
  start_ns : int64;
}

let make_trace jobs =
  match Obs.sink () with
  | None -> None
  | Some obs ->
      let job_tracks =
        Array.map (fun j -> Obs.Sink.new_track obs ("job:" ^ j.label)) jobs
      in
      Some { obs; job_tracks; start_ns = Obs.Sink.now obs }

let run ?workers ?timeout_ns jobs =
  let jobs = Array.of_list jobs in
  let n = Array.length jobs in
  let workers =
    match workers with Some w -> max 1 w | None -> default_workers ()
  in
  let results = Array.make n None in
  let trace = make_trace jobs in
  let worker_track =
    match trace with
    | None -> fun _ -> None
    | Some tr ->
        (* One track per worker, created lazily by worker index so a
           sequential run registers exactly one. *)
        let tracks = Array.make (max 1 workers) None in
        fun w ->
          (match tracks.(w) with
          | Some _ -> ()
          | None ->
              tracks.(w) <-
                Some (Obs.Sink.new_track tr.obs (Printf.sprintf "worker %d" w)));
          tracks.(w)
  in
  let exec ~worker i =
    let j = jobs.(i) in
    let start = Monotonic_clock.now () in
    let ctx =
      { start_ns = start; deadline_ns = Option.map (Int64.add start) timeout_ns }
    in
    let body () =
      let outcome =
        match j.work ctx with
        | v -> Done v
        | exception Timeout ->
            Timed_out { label = j.label; after_ns = elapsed_ns ctx }
        | exception e ->
            Failed { label = j.label; error = Printexc.to_string e }
      in
      results.(i) <- Some outcome
    in
    match trace with
    | None -> body ()
    | Some tr ->
        let t0 = Obs.Sink.now tr.obs in
        let queue_ns = Int64.to_int (Int64.sub t0 tr.start_ns) in
        let m = Obs.Sink.metrics tr.obs in
        Obs.Metrics.observe m "pool.queue_wait_ns" queue_ns;
        (match worker_track worker with
        | None -> ()
        | Some wt ->
            Obs.Sink.begin_at wt ~ts:t0 ~cat:"pool"
              ~args:
                [
                  ("job", Obs.Event.Str j.label);
                  ("index", Obs.Event.Int i);
                  ("queue_ns", Obs.Event.Int queue_ns);
                ]
              ("run:" ^ j.label));
        Fun.protect
          ~finally:(fun () ->
            let t1 = Obs.Sink.now tr.obs in
            Obs.Metrics.observe m "pool.run_ns"
              (Int64.to_int (Int64.sub t1 t0));
            Obs.Metrics.add m "pool.jobs" 1;
            match worker_track worker with
            | None -> ()
            | Some wt -> Obs.Sink.end_at wt ~ts:t1)
          (fun () -> Obs.with_track tr.obs tr.job_tracks.(i) body)
  in
  (* Workers claim job indices in order from one shared counter.  The
     calling domain is worker 0 and spawns only [workers - 1] domains:
     every minor collection stops all domains, an idle one included, and
     a caller blocked in [Domain.join] would join each collection only
     once its backup thread got a core away from the workers. *)
  let next = Atomic.make 0 in
  let rec loop w =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      exec ~worker:w i;
      loop w
    end
  in
  let domains = ref [] in
  Fun.protect
    ~finally:(fun () -> List.iter Domain.join !domains)
    (fun () ->
      for w = 1 to min workers n - 1 do
        domains := Domain.spawn (fun () -> loop w) :: !domains
      done;
      loop 0);
  Array.to_list
    (Array.map (function Some o -> o | None -> assert false) results)

let map ?workers ?timeout_ns f xs =
  run ?workers ?timeout_ns (List.map (fun x -> job (fun _ -> f x)) xs)
