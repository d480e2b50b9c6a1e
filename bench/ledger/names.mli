(** The ledger's vocabulary: workload names and the metric names (with
    units) it reports.  [BENCHMARK.json] lists the same names; the unit
    test checks that the two agree. *)

val workloads : string list

val end_to_end : (string * string) list
(** Reported by every workload with tracing off. *)

val per_layer : (string * string) list
(** Reported by every workload's traced run; a layer the workload does
    not exercise (or measure) reads 0. *)

val mode_names : string list
(** The eight approach modes, in {!Fuzz.Oracle.all_modes} order. *)

val sim_mode_names : string list
(** The seven modes with a simulator run (all but dynamic locking). *)

val span_names : string list
(** The {!Obs} span names the analysis and simulator layers emit. *)

val span_metric : string -> string
(** ["span.<name>.self_ms"]. *)
