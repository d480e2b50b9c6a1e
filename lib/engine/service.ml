type job = {
  label : string;
  run : unit -> bool;
  complete : unit -> unit;
      (* resolves the ticket; called only after the traced wrapper
         around [run] has fully closed, so a submitter woken by [await]
         never observes a trace with spans still open *)
  enq_ns : int64;
  trace : (Obs.Reqtrace.t * int) option;
}

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  capacity : int;
  n_workers : int;
  mutable stopping : bool;
  mutable running : int;
  mutable completed : int;
  mutable failed : int;
  mutable rejected : int;
  mutable domains : unit Domain.t list;
}

type 'a state = Pending | Resolved of ('a, string) result

type 'a ticket = {
  tlock : Mutex.t;
  tcond : Condition.t;
  mutable state : 'a state;
}

let now_ns () = Obs.now_ns ()

let worker_loop t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.stopping do
      Condition.wait t.nonempty t.lock
    done;
    if Queue.is_empty t.queue then Mutex.unlock t.lock (* stopping: drain done *)
    else begin
      let job = Queue.pop t.queue in
      t.running <- t.running + 1;
      Mutex.unlock t.lock;
      Obs.observe "service.queue_wait_ns"
        (Int64.to_int (Int64.sub (now_ns ()) job.enq_ns));
      let t0 = now_ns () in
      let ok =
        match job.trace with
        | None -> Obs.span ~cat:"service" job.label job.run
        | Some (rt, parent) ->
            (* the wait is over by the time a worker sees the job, so it
               is recorded retroactively from the enqueue stamp; the run
               itself is scoped so every [Obs.span] inside the analysis
               lands in the request's tree *)
            Obs.Reqtrace.add_completed rt ~parent ~cat:"service"
              ~t0:job.enq_ns "queue.wait";
            Obs.Reqtrace.with_scope rt ~parent (fun () ->
                Obs.span ~cat:"service" job.label job.run)
      in
      job.complete ();
      Obs.observe "service.run_ns" (Int64.to_int (Int64.sub (now_ns ()) t0));
      Obs.add "service.jobs" 1;
      Mutex.lock t.lock;
      t.running <- t.running - 1;
      if ok then t.completed <- t.completed + 1 else t.failed <- t.failed + 1;
      Mutex.unlock t.lock;
      loop ()
    end
  in
  loop ()

let create ?workers ?(queue_capacity = 64) () =
  (* The creating domain keeps serving its callers and runs no jobs, so
     the default leaves it a core. *)
  let n_workers =
    match workers with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if n_workers < 1 then invalid_arg "Engine.Service.create: workers < 1";
  if queue_capacity < 0 then
    invalid_arg "Engine.Service.create: queue_capacity < 0";
  let t =
    {
      lock = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      capacity = queue_capacity;
      n_workers;
      stopping = false;
      running = 0;
      completed = 0;
      failed = 0;
      rejected = 0;
      domains = [];
    }
  in
  t.domains <- List.init n_workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let workers t = t.n_workers
let queue_capacity t = t.capacity

let resolve ticket r =
  Mutex.lock ticket.tlock;
  ticket.state <- Resolved r;
  Condition.broadcast ticket.tcond;
  Mutex.unlock ticket.tlock

let submit t ?(label = "job") ?trace f =
  let ticket =
    { tlock = Mutex.create (); tcond = Condition.create (); state = Pending }
  in
  let result = ref (Error "job never ran") in
  let run () =
    match f () with
    | v ->
        result := Ok v;
        true
    | exception e ->
        result := Error (Printexc.to_string e);
        false
  in
  let complete () = resolve ticket !result in
  Mutex.lock t.lock;
  if t.stopping || Queue.length t.queue >= t.capacity then begin
    t.rejected <- t.rejected + 1;
    Mutex.unlock t.lock;
    Obs.add "service.rejected" 1;
    None
  end
  else begin
    Queue.push { label; run; complete; enq_ns = now_ns (); trace } t.queue;
    Condition.signal t.nonempty;
    Mutex.unlock t.lock;
    Some ticket
  end

let await ticket =
  Mutex.lock ticket.tlock;
  let rec wait () =
    match ticket.state with
    | Pending ->
        Condition.wait ticket.tcond ticket.tlock;
        wait ()
    | Resolved r -> r
  in
  let r = wait () in
  Mutex.unlock ticket.tlock;
  r

let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  Condition.broadcast t.nonempty;
  let ds = t.domains in
  t.domains <- [];
  Mutex.unlock t.lock;
  List.iter Domain.join ds

type stats = {
  s_workers : int;
  s_capacity : int;
  s_queued : int;
  s_running : int;
  s_completed : int;
  s_failed : int;
  s_rejected : int;
}

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      s_workers = t.n_workers;
      s_capacity = t.capacity;
      s_queued = Queue.length t.queue;
      s_running = t.running;
      s_completed = t.completed;
      s_failed = t.failed;
      s_rejected = t.rejected;
    }
  in
  Mutex.unlock t.lock;
  s
