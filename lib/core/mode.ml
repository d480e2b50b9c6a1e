module M = Multicore

type t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

let all =
  [ Solo; Oblivious; Joint; Bypass; Columnized; Bankized; Locked; Dynamic ]

let name = function
  | Solo -> "solo"
  | Oblivious -> "oblivious"
  | Joint -> "joint"
  | Bypass -> "bypass"
  | Columnized -> "columnized"
  | Bankized -> "bankized"
  | Locked -> "locked"
  | Dynamic -> "dynamic"

let of_string s =
  match List.find_opt (fun m -> name m = String.lowercase_ascii s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mode %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

let solo_platform () =
  Platform.single_core
    ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
    ()

let no_system mode =
  invalid_arg (Printf.sprintf "Mode: %s does not run on a system" (name mode))

let partition_scheme mode =
  if mode = Columnized then Cache.Partition.Columnization
  else Cache.Partition.Bankization

let analyze ?memo ?ctxs ?refine sys mode =
  match mode with
  | Solo -> no_system mode
  | Oblivious -> M.analyze_oblivious ?memo ?ctxs ?refine sys
  | Joint -> M.analyze_joint ?memo ?ctxs ?refine sys ()
  | Bypass -> M.analyze_joint ?memo ?ctxs ?refine sys ~bypass:true ()
  | Columnized | Bankized ->
      M.analyze_partitioned ?memo ?ctxs ?refine sys
        ~scheme:(partition_scheme mode)
  | Locked -> M.analyze_locked ?memo ?ctxs ?refine sys
  | Dynamic -> M.analyze_locked_dynamic ?memo ?ctxs ?refine sys

type run = {
  config : Sim.Machine.config;
  slots : int array;
  setups : Sim.Machine.core_setup array;
}

let runs ?memo ?ctxs (sys : M.system) mode setups =
  let n = Array.length sys.M.tasks in
  if Array.length setups <> n then
    invalid_arg "Mode.runs: one setup per system slot";
  let group l2 setups =
    let slots = Array.init n Fun.id in
    [ { config = M.machine_config sys ~l2; slots; setups } ]
  in
  let shared = Sim.Machine.Shared_l2 sys.M.l2 in
  match mode with
  | Solo -> no_system mode
  | Oblivious ->
      (* the bound is only claimed for a task owning the machine *)
      let config =
        {
          (M.machine_config sys ~l2:(Sim.Machine.Private_l2 [| sys.M.l2 |]))
          with
          Sim.Machine.arbiter = Interconnect.Arbiter.Private;
        }
      in
      List.init n (fun i ->
          { config; slots = [| i |]; setups = [| setups.(i) |] })
  | Joint -> group shared setups
  | Bypass ->
      group shared
        (Array.mapi
           (fun i (s : Sim.Machine.core_setup) ->
             match sys.M.tasks.(i) with
             | None -> s
             | Some task ->
                 let ctx = Option.bind ctxs (fun a -> a.(i)) in
                 let lines = M.bypass_lines ?ctx sys task in
                 let set = Hashtbl.create (2 * List.length lines + 1) in
                 List.iter (fun l -> Hashtbl.replace set l ()) lines;
                 { s with Sim.Machine.l2_bypass = Hashtbl.mem set })
           setups)
  | Columnized | Bankized ->
      let alloc =
        Cache.Partition.even_shares (partition_scheme mode) sys.M.l2 ~parts:n
      in
      group
        (Sim.Machine.Private_l2
           (Array.init n (fun index ->
                Cache.Partition.partition_config sys.M.l2 alloc ~index)))
        setups
  | Locked ->
      let selection = M.static_lock_selection ?memo ?ctxs sys in
      group shared
        (Array.map
           (fun s ->
             {
               s with
               Sim.Machine.locked_l2_lines = selection.Cache.Locking.locked;
             })
           setups)
  | Dynamic -> []
