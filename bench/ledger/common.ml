(* Plumbing shared by the workloads of one ledger process: the run
   configuration, the clock and host speed, metric rows, correctness
   failures, seeded randomness and process memory. *)

open Ledger_lib

type cfg = {
  seed : int;
  seconds : float;  (** length of the measured phase *)
  trace : bool;
  smoke : bool;  (** minimal work, correctness checks only *)
  golden : string;  (** path of golden.txt *)
  tmp : string;  (** this process's scratch directory (under the cwd) *)
  paratime : string;  (** the paratime executable *)
}

let now_ns = Obs.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

(* The two clocks, in ms: wall time, and the CPU time (user and system)
   of this process, which leaves out the time the host gave its core to
   another process or another tenant. *)
let wall_ms () = Int64.to_float (now_ns ()) /. 1e6

let cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.

type row = { name : string; value : float; unit_ : string; n : int }

let rows = ref []

(* [n] is the number of samples the value was computed from *)
let emit ?(n = 1) name unit_ value = rows := { name; value; unit_; n } :: !rows

let attempted = ref 0
let failures = ref []
let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt

(* Set-up is repeated and its median reported, so that work moved into
   set-up shows; a traced or smoke run only needs it once. *)
let setup_reps cfg = if cfg.trace || cfg.smoke then 1 else 3

let sorted_of_list l = Stats.sorted (Array.of_list l)
let median_of l = Stats.median (sorted_of_list l)

(* ---- host speed ----

   The machines this ledger runs on share their cores and caches with
   other tenants, which can make all code run twice as slow for seconds
   at a time.  [probe] times a fixed computation that uses none of the
   program's code and allocates nothing (so no change to the program
   can change it); the host's speed over an operation is the nominal
   probe time over the mean of the probes before and after it.  Every
   time the ledger reports is multiplied by that speed, and every rate
   divided by it: the numbers read as if the host ran at nominal
   speed.

   Work on one domain ([analyze_catalog], [sim_corpus]) is timed on the
   CPU clock, probes included.  On the wall clock a probe between two
   200 ms passes does not see how much of a pass the host took away,
   and ten runs of the same simulator code spread by 0.19 to 0.30; on
   the CPU clock that time is not counted at all, and the probe only
   corrects for a core that runs slower. *)

let nominal_probe_ms = 10.
(* 256 KiB: a table the size of the analyses' own working sets tracks
   their speed best (within 1.5% over 10-second blocks, against 5% for
   a 2 MiB table) *)
let probe_table =
  Array.init (1 lsl 15) (fun i ->
      ((i * 1664525) + 1013904223) land ((1 lsl 15) - 1))

let probe ?(clock = wall_ms) () =
  let t0 = clock () in
  let mask = Array.length probe_table - 1 in
  let j = ref 0 and acc = ref 0 in
  for i = 1 to 900_000 do
    let x = probe_table.(!j) in
    acc := !acc lxor (x * i);
    j := (x + (!acc land 255)) land mask
  done;
  ignore (Sys.opaque_identity !acc);
  clock () -. t0

let speed ~before ~after = nominal_probe_ms /. ((before +. after) /. 2.)

(* The speed right now, from three probes. *)
let host_speed () =
  nominal_probe_ms /. median_of [ probe (); probe (); probe () ]

(* [f k] for k = 0, 1, ... until [seconds] have elapsed, at least [min]
   times; each result comes with the host speed over its iteration, from
   probes timed on [clock]. *)
let paced_loop ?clock ~seconds ?(min = 1) f =
  let t0 = now_ns () in
  let before = ref (probe ?clock ()) in
  let out = ref [] in
  let k = ref 0 in
  while !k < min || ms_since t0 < seconds *. 1000. do
    let r = f !k in
    let after = probe ?clock () in
    out := (r, speed ~before:!before ~after) :: !out;
    before := after;
    incr k
  done;
  List.rev !out

(* A float in (0, 1) from the fuzzer's version-stable generator. *)
let uniform rng =
  (float_of_int (Fuzz.Rng.int rng (1 lsl 30)) +. 0.5) /. 1073741824.

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Fuzz.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Peak resident set (VmHWM) of a process, in MiB. *)
let vmhwm_mb pid =
  let path =
    Printf.sprintf "/proc/%s/status"
      (match pid with None -> "self" | Some p -> string_of_int p)
  in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> None
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> Some (float_of_int kb /. 1024.))
    | _ -> scan ()
  in
  let r = scan () in
  close_in ic;
  match r with Some mb -> mb | None -> failwith ("no VmHWM in " ^ path)

(* Restart this process's VmHWM from its current resident set. *)
let reset_peak_rss () =
  let oc = open_out "/proc/self/clear_refs" in
  output_string oc "5";
  close_out oc

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* GC words allocated so far by this domain, in millions. *)
let gc_mwords () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words /. 1e6, s.Gc.major_words /. 1e6)
