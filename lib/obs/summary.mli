(** Per-phase totals of a recorded run: the sink's [cat:"phase"] spans
    summed per name, beside the counters of its metrics registry.

    This is how [paratime batch --phases] and [--csv] report where an
    analysis spent its time.  Both halves come from the same sink a
    [--trace-csv] export reads, so a phase's total and call count equal
    the sums of its span rows there, and the counters equal its counter
    rows (both under their Obs names, e.g. [dataflow.worklist.pops],
    [lp.simplex.pivots]).  Spans lost to a wrapped track ring are not
    counted. *)

type phase = { name : string; total_ns : int64; calls : int }

type t = { phases : phase list; counters : (string * int) list }

val of_sink : Sink.t -> t
(** Phases in the order they first complete, reading tracks in tid order
    (a pool registers its job tracks in job order, so the order does not
    depend on the worker count); counters in registration order. *)

val render : t -> string
(** A [phase ms share calls] table with a total line, then one line per
    counter.  Empty when nothing was recorded. *)

val csv_header : string
(** [kind,name,value,calls] with a trailing newline.  Exposed apart from
    the rows so a caller can print it before the run: a run killed
    mid-way then still leaves a parseable file. *)

val csv_rows : t -> string
(** [phase,<name>,<ns>,<calls>] rows, then [counter,<name>,<value>,]
    rows. *)
