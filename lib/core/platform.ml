type l2_mode =
  | No_l2
  | Private_l2 of Cache.Config.t
  | Shared_l2 of {
      config : Cache.Config.t;
      conflicts : Cache.Shared.conflicts;
      bypass : int -> bool;
    }
  | Locked_l2 of {
      config : Cache.Config.t;
      selection_of : int -> Cache.Locking.selection;
      reload_cost : proc:string -> Cfg.Block.id -> int;
    }

type t = {
  latencies : Pipeline.Latencies.t;
  l1i : Cache.Config.t;
  l1d : Cache.Config.t;
  l2 : l2_mode;
  arbiter : Interconnect.Arbiter.t;
  core : int;
  refresh : Interconnect.Arbiter.refresh_policy;
  mem_arbiter : (Interconnect.Arbiter.t * int) option;
  method_cache : Cache.Method_cache.config option;
}

let single_core ?l2 () =
  {
    latencies = Pipeline.Latencies.default;
    l1i = Cache.Config.make ~sets:64 ~assoc:2 ~line_size:16;
    l1d = Cache.Config.make ~sets:64 ~assoc:2 ~line_size:16;
    l2 = (match l2 with Some c -> Private_l2 c | None -> No_l2);
    arbiter = Interconnect.Arbiter.Private;
    core = 0;
    refresh = Interconnect.Arbiter.Burst;
    mem_arbiter = None;
    method_cache = None;
  }

let mem_wait t =
  let refresh = Interconnect.Arbiter.refresh_wait t.refresh in
  match t.mem_arbiter with
  | None -> refresh
  | Some (arb, port) ->
      if not (Interconnect.Arbiter.analysable arb) then
        failwith
          (Printf.sprintf
             "Platform.mem_wait: %s admits no co-runner-independent bound"
             (Interconnect.Arbiter.describe arb))
      else
        let l = t.latencies.Pipeline.Latencies.mem + refresh in
        refresh
        + Interconnect.Arbiter.worst_wait arb ~core:port ~own_latency:l
            ~max_latency:l

let l2_config t =
  match t.l2 with
  | No_l2 -> None
  | Private_l2 c -> Some c
  | Shared_l2 { config; _ } -> Some config
  | Locked_l2 { config; _ } -> Some config

let max_tx_latency t =
  let l = t.latencies in
  let mem_path =
    match t.l2 with
    | No_l2 -> l.Pipeline.Latencies.mem + mem_wait t
    | Private_l2 _ | Shared_l2 _ | Locked_l2 _ ->
        l.Pipeline.Latencies.l2_hit + l.Pipeline.Latencies.mem + mem_wait t
  in
  max mem_path l.Pipeline.Latencies.io

let bus_wait t =
  if not (Interconnect.Arbiter.analysable t.arbiter) then
    failwith
      (Printf.sprintf
         "Platform.bus_wait: %s admits no co-runner-independent bound"
         (Interconnect.Arbiter.describe t.arbiter))
  else
    let lmax = max_tx_latency t in
    Interconnect.Arbiter.worst_wait t.arbiter ~core:t.core ~own_latency:lmax
      ~max_latency:lmax

(* Canonical rendering of everything the WCET/BCET analyses consume from
   a platform: latencies, L1/L2 geometry (and shared-L2 conflict counts),
   method cache, and the *resolved* arbiter bounds [bus_wait]/[mem_wait].
   Rendering resolved waits instead of (arbiter, core) deliberately
   identifies symmetric configurations — e.g. all cores of a round-robin
   bus — so memoized sweeps share entries across cores, which is sound
   because the analyses never look at the arbiter other than through
   those two numbers. *)
let fingerprint t =
  match (bus_wait t, mem_wait t) with
  | exception Failure _ -> None (* unanalysable arbiter: nothing to cache *)
  | bus, mem ->
      let b = Buffer.create 128 in
      let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
      let lat = t.latencies in
      add "lat:%d,%d,%d,%d,%d,%d,%d,%d;" lat.Pipeline.Latencies.base
        lat.Pipeline.Latencies.mul lat.Pipeline.Latencies.div
        lat.Pipeline.Latencies.branch_penalty lat.Pipeline.Latencies.l1_hit
        lat.Pipeline.Latencies.l2_hit lat.Pipeline.Latencies.mem
        lat.Pipeline.Latencies.io;
      let geom (c : Cache.Config.t) =
        add "%d/%d/%d;" c.Cache.Config.sets c.Cache.Config.assoc
          c.Cache.Config.line_size
      in
      add "l1i:";
      geom t.l1i;
      add "l1d:";
      geom t.l1d;
      add "bus:%d;mem:%d;" bus mem;
      (match t.method_cache with
      | None -> add "mc:none;"
      | Some mc ->
          add "mc:%d/%d;" mc.Cache.Method_cache.slots
            mc.Cache.Method_cache.fill_per_word);
      let has_closures =
        match t.l2 with
        | No_l2 ->
            add "l2:none;";
            false
        | Private_l2 c ->
            add "l2:priv:";
            geom c;
            false
        | Shared_l2 { config; conflicts; bypass = _ } ->
            add "l2:shared:";
            geom config;
            Array.iter (fun n -> add "%d," n) conflicts;
            add ";";
            true (* [bypass] is a closure: the caller must salt it *)
        | Locked_l2 { config; _ } ->
            add "l2:locked:";
            geom config;
            true (* [selection_of]/[reload_cost] are closures *)
      in
      let s = Buffer.contents b in
      Some (if has_closures then `Needs_salt s else `Pure s)

(* [fingerprint] equality without the rendering: the same fields,
   compared as values, and the L2 closures by physical identity (a
   fingerprint cannot see them at all).  Geometry and latencies are
   compared first, so the resolved waits are computed only for
   platforms that could still be equivalent. *)
let equivalent a b =
  a.latencies = b.latencies && a.l1i = b.l1i && a.l1d = b.l1d
  && a.method_cache = b.method_cache
  && (match (a.l2, b.l2) with
     | No_l2, No_l2 -> true
     | Private_l2 c, Private_l2 d -> c = d
     | Shared_l2 x, Shared_l2 y ->
         x.config = y.config && x.bypass == y.bypass
         && x.conflicts = y.conflicts
     | Locked_l2 x, Locked_l2 y ->
         x.config = y.config
         && x.selection_of == y.selection_of
         && x.reload_cost == y.reload_cost
     | (No_l2 | Private_l2 _ | Shared_l2 _ | Locked_l2 _), _ -> false)
  &&
  match (bus_wait a, bus_wait b, mem_wait a, mem_wait b) with
  | exception Failure _ -> false (* no bound: nothing to share *)
  | bus_a, bus_b, mem_a, mem_b -> bus_a = bus_b && mem_a = mem_b

let machine t =
  {
    Sim.Machine.latencies = t.latencies;
    l1i = t.l1i;
    l1d = t.l1d;
    l2 =
      (match t.l2 with
      | No_l2 -> Sim.Machine.No_l2
      | Private_l2 c -> Sim.Machine.Private_l2 [| c |]
      | Shared_l2 { config; _ } | Locked_l2 { config; _ } ->
          Sim.Machine.Shared_l2 config);
    arbiter = Interconnect.Arbiter.Private;
    refresh = t.refresh;
    i_path =
      (match t.method_cache with
      | None -> Sim.Machine.Conventional
      | Some mc -> Sim.Machine.Method_cache mc);
  }
