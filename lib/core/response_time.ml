type np_task = { name : string; wcet : int; period : int }

let non_preemptive_response_times tasks =
  let arr = Array.of_list tasks in
  let n = Array.length arr in
  List.mapi
    (fun i t ->
      (* Blocking: longest lower-priority task body. *)
      let blocking =
        let rec go j acc =
          if j >= n then acc else go (j + 1) (max acc arr.(j).wcet)
        in
        go (i + 1) 0
      in
      let interference r =
        let rec go j acc =
          if j >= i then acc
          else
            go (j + 1)
              (acc
              + ((r + arr.(j).period - 1) / arr.(j).period * arr.(j).wcet))
        in
        go 0 0
      in
      let rec fixpoint r guard =
        if guard = 0 || r > t.period then None
        else
          let r' = t.wcet + blocking + interference r in
          if r' = r then Some r else fixpoint r' (guard - 1)
      in
      (t.name, fixpoint t.wcet 1000))
    tasks

type lifetime_result = {
  wcets : int option array;
  windows : (int * int) option array;
  iterations : int;
  overlaps : bool array array;
}

(* The refinement stops after this many iterations even if the overlap
   sets still change. *)
let max_iterations = 10

let lifetime_refinement ?memo system ~offsets =
  let n = Array.length system.Multicore.tasks in
  if Array.length offsets <> n then
    invalid_arg "Response_time.lifetime_refinement: offsets mismatch";
  let overlaps = Array.make_matrix n n true in
  let window_of core wcet =
    (offsets.(core), offsets.(core) + wcet)
  in
  let intersects (a1, a2) (b1, b2) = a1 < b2 && b1 < a2 in
  (* One front end per task for every iteration: only the conflicts
     change between them. *)
  let ctxs = Multicore.contexts system in
  let rec iterate k prev_wcets =
    let results =
      Multicore.analyze_joint ?memo ~ctxs system
        ~overlaps:(fun i j -> overlaps.(i).(j))
        ()
    in
    let wcets = Multicore.wcets results in
    let windows =
      Array.mapi
        (fun core w -> Option.map (window_of core) w)
        wcets
    in
    let changed = ref false in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then begin
          let o =
            match (windows.(i), windows.(j)) with
            | Some wi, Some wj -> intersects wi wj
            | _ -> false
          in
          if o <> overlaps.(i).(j) then changed := true;
          overlaps.(i).(j) <- o
        end
      done
    done;
    if (not !changed) || k >= max_iterations || prev_wcets = Some wcets then
      { wcets; windows; iterations = k; overlaps }
    else iterate (k + 1) (Some wcets)
  in
  iterate 1 None
