(** The approach modes: the survey's taxonomy as paratime runs it, one
    mode per analysable configuration of the shared L2 and bus.

    - [Solo]: one task alone on a single-core platform with a private
      L2 ({!solo_platform}).
    - [Oblivious]: the interference-ignoring baseline (Section 2.2); its
      bound is only claimed for a task owning the machine.
    - [Joint] / [Bypass]: joint analysis of the shared L2, without and
      with single-usage bypass (Section 4.1).
    - [Columnized] / [Bankized]: the L2 partitioned into per-core
      slices (Section 4.2).
    - [Locked] / [Dynamic]: static and dynamic L2 locking (Suhendra &
      Mitra).

    This module is the one owner of the mode decision: the names, each
    system mode's analysis, and the simulated machine runs that observe
    what each mode's bound claims.  Every mode but [Solo] runs on a
    {!Multicore.system}, one task per core slot. *)

type t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

val all : t list
(** The eight modes, [Solo] first, in the order every table prints. *)

val name : t -> string
(** ["solo"], ["oblivious"], ["joint"], ["bypass"], ["columnized"],
    ["bankized"], ["locked"], ["dynamic"]. *)

val of_string : string -> (t, string) result
(** Case-insensitive inverse of {!name}; the error lists the eight
    names. *)

val solo_platform : unit -> Platform.t
(** The platform [Solo] analyzes on: {!Platform.single_core} with a
    private 64-set 4-way 16-byte L2.  Its machine is
    [Platform.machine (solo_platform ())]. *)

val analyze :
  ?memo:Memo.t ->
  ?ctxs:Multicore.contexts ->
  ?refine:Refine.config ->
  Multicore.system ->
  t ->
  Wcet.t option array
(** The mode's bound for every core slot, from the matching
    [Multicore.analyze_*] entry point.
    @raise Invalid_argument on [Solo], which does not run on a system. *)

type run = {
  config : Sim.Machine.config;
  slots : int array;  (** the system slot each machine core runs *)
  setups : Sim.Machine.core_setup array;  (** one per machine core *)
}
(** One machine run: {!Sim.Machine.run}[ config ~cores:setups] gives
    core [k] the result of system slot [slots.(k)]. *)

val runs :
  ?memo:Memo.t ->
  ?ctxs:Multicore.contexts ->
  Multicore.system ->
  t ->
  Sim.Machine.core_setup array ->
  run list
(** The machine runs that observe what the mode's bound claims, given
    one plain setup per system slot:
    - [Oblivious]: one run per slot, in slot order, alone on the
      private-L2 machine with a private bus;
    - [Joint], [Columnized], [Bankized]: one run of the whole group on
      the shared L2 or on the [even_shares] slices;
    - [Bypass] and [Locked]: one run of the whole group on the shared
      L2, each setup carrying the bypass set or the lock selection the
      analysis assumed ({!Multicore.bypass_lines},
      {!Multicore.static_lock_selection}, from [ctxs] and [memo] when
      given);
    - [Dynamic]: none; the machine cannot reprogram lock bits at run
      time.
    @raise Invalid_argument on [Solo], or if [setups] does not hold one
    entry per system slot. *)
