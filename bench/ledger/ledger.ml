(* The paratime performance ledger.  See README.md for the workloads,
   the metrics and how the bounds in BENCHMARK.json were set.

   dune exec bench/ledger/ledger.exe -- [--seed S] [--seconds T] [--trace]
                                        [--repeat K] [--out DIR]
       every workload, each in a fresh child process, then (with
       --trace) each again traced; with --repeat, K rounds on seeds
       S..S+K-1 and each metric's median, spread, min and max
   ... -- --workload W --seed S --seconds T --trace 0|1
       one workload in this process; the last stdout line is the JSON
       result (end-to-end metrics, or per-layer with --trace 1)
   ... -- --smoke          every workload briefly, correctness checks only
   ... -- --write-golden   regenerate golden.txt

   Any failed correctness check exits 1 without printing a result. *)

open Common
open Ledger_lib

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable repeat : int;
  mutable out : string option;
  mutable smoke : bool;
  mutable write_golden : bool;
  mutable golden : string;
}

let usage () =
  prerr_endline
    "usage: ledger.exe [--workload W] [--seed S] [--seconds T] [--trace \
     [0|1]] [--repeat K] [--out DIR] [--smoke] [--write-golden] [--golden \
     FILE]";
  exit 2

let parse argv =
  let o =
    {
      workload = None;
      seed = 1;
      seconds = 25.;
      trace = false;
      repeat = 1;
      out = None;
      smoke = false;
      write_golden = false;
      golden = "bench/ledger/golden.txt";
    }
  in
  let num conv s = match conv s with Some v -> v | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w Names.workloads ->
        o.workload <- Some w;
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- num int_of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- num float_of_string_opt s;
        go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
        o.trace <- v = "1";
        go rest
    | "--trace" :: rest ->
        o.trace <- true;
        go rest
    | "--repeat" :: k :: rest ->
        o.repeat <- max 1 (num int_of_string_opt k);
        go rest
    | "--out" :: d :: rest ->
        o.out <- Some d;
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--write-golden" :: rest ->
        o.write_golden <- true;
        go rest
    | "--golden" :: f :: rest ->
        o.golden <- f;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  o

(* _build/default/bench/ledger/ledger.exe -> _build/default/bin/paratime.exe *)
let paratime () =
  let bench_dir = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat
    (Filename.concat (Filename.dirname bench_dir) "bin")
    "paratime.exe"

(* every digit of the measured value: the shortest form that reads back
   exactly *)
let json_number v =
  let rec go p =
    let s = Printf.sprintf "%.*g" p v in
    if p >= 17 || float_of_string s = v then s else go (p + 1)
  in
  go 15

(* ---- one workload, in this process ---- *)

let run_workload o w =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let tmp = Filename.concat ".ledger-tmp" (string_of_int (Unix.getpid ())) in
  mkdir_p tmp;
  at_exit (fun () ->
      Serve_mixed.kill_live ();
      rm_rf tmp;
      try Unix.rmdir ".ledger-tmp" with Unix.Unix_error _ -> ());
  let cfg =
    {
      seed = o.seed;
      seconds = o.seconds;
      trace = o.trace;
      smoke = o.smoke;
      golden = o.golden;
      tmp;
      paratime = paratime ();
    }
  in
  Printf.printf "ledger: workload %s, seed %d, %gs%s\n%!" w o.seed o.seconds
    (if o.trace then ", traced" else "");
  (try
     match (w, o.trace) with
     | "analyze_catalog", false -> Analyze_catalog.run cfg
     | "analyze_catalog", true -> Analyze_catalog.run_traced cfg
     | "serve_mixed", false -> Serve_mixed.run cfg
     | "serve_mixed", true -> Serve_mixed.run_traced cfg
     | "fuzz_campaign", false -> Fuzz_campaign.run cfg
     | "fuzz_campaign", true -> Fuzz_campaign.run_traced cfg
     | "sim_corpus", false -> Sim_corpus.run cfg
     | _ -> Sim_corpus.run_traced cfg
   with e -> fail "%s raised %s" w (Printexc.to_string e));
  let rows = List.rev !rows in
  let find name = List.find_opt (fun r -> r.name = name) rows in
  let listed = if o.trace then Names.per_layer else Names.end_to_end in
  let metrics =
    List.map
      (fun (name, unit_) ->
        match find name with
        | Some r when Float.is_finite r.value -> (name, r.value, unit_)
        | Some _ when o.trace -> (name, 0., unit_)
        | None when o.trace || o.smoke -> (name, 0., unit_)
        | _ ->
            fail "metric %s has no value" name;
            (name, 0., unit_))
      listed
  in
  if !attempted = 0 then fail "no operation was attempted";
  if !failures <> [] then begin
    List.iter
      (fun f -> Printf.eprintf "ledger: %s: %s\n" w f)
      (List.rev !failures);
    Printf.eprintf "ledger: %s failed %d correctness check(s)\n%!" w
      (List.length !failures);
    exit 1
  end;
  List.iter
    (fun r ->
      Printf.printf "metric %s %s %s %s n=%d\n" w r.name (json_number r.value)
        r.unit_ r.n)
    rows;
  let metric (name, v, u) =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
      (json_number v) u
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": 0, \"metrics\": {%s}}\n"
    !attempted
    (String.concat ", " (List.map metric metrics))

(* ---- every workload, each in a child process ---- *)

type line = {
  workload : string;
  name : string;
  value : float;
  unit_ : string;
}

(* Run one child, echo its output (not for a smoke run), collect its
   metric lines. *)
let child o ~seed ~trace w =
  let seconds = if trace then o.seconds /. 5. else o.seconds in
  let args =
    [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" seconds ]
    @ [ "--trace"; (if trace then "1" else "0"); "--golden"; o.golden ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin
      wr Unix.stderr
  in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let rec read acc =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | l ->
        if not o.smoke then print_endline l;
        let acc =
          match String.split_on_char ' ' l with
          | [ "metric"; w; name; v; unit_; _ ] -> (
              match float_of_string_opt v with
              | Some value -> { workload = w; name; value; unit_ } :: acc
              | None -> acc)
          | _ -> acc
        in
        read acc
  in
  let lines = read [] in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok lines
  | _ -> Error w

let write_out o ~rounds =
  Option.iter
    (fun dir ->
      mkdir_p dir;
      let path =
        Filename.concat dir (Printf.sprintf "ledger-seed%d.json" o.seed)
      in
      let metric l =
        Printf.sprintf
          "{\"workload\": \"%s\", \"name\": \"%s\", \"value\": %s, \"unit\": \
           \"%s\"}"
          l.workload l.name (json_number l.value) l.unit_
      in
      let oc = open_out path in
      output_string oc "{\"rounds\": [\n";
      List.iteri
        (fun i (seed, lines) ->
          Printf.fprintf oc "  {\"seed\": %d, \"metrics\": [%s]}%s\n" seed
            (String.concat ", " (List.map metric lines))
            (if i = List.length rounds - 1 then "" else ","))
        rounds;
      output_string oc "]}\n";
      close_out oc;
      Printf.printf "ledger: wrote %s\n" path)
    o.out

let summary rounds =
  let values = Hashtbl.create 64 and order = ref [] in
  List.iter
    (fun (_, lines) ->
      List.iter
        (fun l ->
          let k = (l.workload, l.name, l.unit_) in
          let seen = Option.value ~default:[] (Hashtbl.find_opt values k) in
          if seen = [] then order := k :: !order;
          Hashtbl.replace values k (l.value :: seen))
        lines)
    rounds;
  Printf.printf "\n%-16s %-34s %14s %8s %14s %14s %9s\n" "workload" "metric"
    "median" "spread" "min" "max" "unit";
  List.iter
    (fun ((w, name, u) as k) ->
      let s = Stats.sorted (Array.of_list (Hashtbl.find values k)) in
      let n = Array.length s in
      Printf.printf "%-16s %-34s %14.6g %8s %14.6g %14.6g %9s\n" w name
        (Stats.py_median s)
        (if n >= 2 then Printf.sprintf "%.4f" (Stats.spread s) else "-")
        s.(0)
        s.(n - 1)
        u)
    (List.rev !order)

let run_all o =
  let failed = ref [] in
  let passes = if o.trace || o.smoke then [ false; true ] else [ false ] in
  let rounds =
    List.init o.repeat (fun r ->
        let seed = o.seed + r in
        ( seed,
          List.concat_map
            (fun trace ->
              List.concat_map
                (fun w ->
                  match child o ~seed ~trace w with
                  | Ok lines -> lines
                  | Error w ->
                      failed := w :: !failed;
                      [])
                Names.workloads)
            passes ))
  in
  if !failed <> [] then begin
    Printf.eprintf "ledger: failed: %s\n"
      (String.concat ", " (List.rev !failed));
    exit 1
  end;
  if o.smoke then
    Printf.printf "ledger: smoke passed: %s, untraced and traced\n"
      (String.concat ", " Names.workloads)
  else begin
    summary rounds;
    write_out o ~rounds
  end

let () =
  let o = parse Sys.argv in
  if o.write_golden then begin
    Golden.write o.golden;
    Printf.printf "ledger: wrote %s\n" o.golden
  end
  else match o.workload with Some w -> run_workload o w | None -> run_all o
