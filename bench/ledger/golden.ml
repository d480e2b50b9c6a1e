(* golden.txt: the WCET bound and store key of every catalog program in
   every approach mode (cores 2, kind wcet).  The analysis workload
   checks its bounds against it, the serve workload the bound and key of
   every catalog reply. *)

module B = Workloads.Bench_programs
module M = Server_lib.Modes

type t = (string * string, int * string) Hashtbl.t

let cores = 2

let compute () =
  List.concat_map
    (fun (b : B.t) ->
      List.map
        (fun (mode, r) ->
          let name = Fuzz.Oracle.mode_name mode in
          match r with
          | Ok (e : Store.Entry.t) ->
              ( b.B.name,
                name,
                e.Store.Entry.bound,
                M.store_key ~mode ~cores ~kind:M.Wcet b.B.annot b.B.program )
          | Error msg ->
              failwith (Printf.sprintf "%s/%s: %s" b.B.name name msg))
        (M.analyze_all ~cores ~kind:M.Wcet (b.B.program, b.B.annot)))
    (B.suite ())

let write path =
  let oc = open_out path in
  output_string oc
    "# paratime ledger golden file (cores 2, kind wcet): <program> <mode> \
     <wcet> <store key>\n\
     # regenerate: dune exec bench/ledger/ledger.exe -- --write-golden\n";
  List.iter
    (fun (p, m, w, k) -> Printf.fprintf oc "%s %s %d %s\n" p m w k)
    (compute ());
  close_out oc

let load path : t =
  let t = Hashtbl.create 256 in
  let ic = open_in path in
  (try
     while true do
       let line = String.trim (input_line ic) in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char ' ' line with
         | [ p; m; w; k ] -> Hashtbl.replace t (p, m) (int_of_string w, k)
         | _ -> failwith ("malformed golden line: " ^ line)
     done
   with End_of_file -> ());
  close_in ic;
  t

let find (t : t) ~program ~mode = Hashtbl.find_opt t (program, mode)
