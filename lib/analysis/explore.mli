(** Bounded model checker over the controlled simulator.

    The simulator's controlled mode ({!Rhodos_sim.Sim.create} with
    [~scheduler]) turns every same-time ready set into an explicit
    choice point, so an execution is fully described by an [int list]:
    the branch taken at each choice point, FIFO once the list is
    exhausted. This module searches that schedule space.

    {b Search strategy.} Systematic enumeration by deviation: run the
    all-FIFO schedule first, then for every executed run and every
    choice point at depth < [max_depth] not already fixed by the run's
    prefix, enqueue the prefix that replays the run up to that point
    and picks a different branch. Each distinct bounded schedule is
    generated exactly once. Runs whose terminal state digest was
    already seen are not expanded further (state-digest cache
    pruning). Once the bounded space is exhausted (or the budget ran
    out), a seeded random-walk fallback probes schedules beyond the
    depth bound — skipped only when no run ever had choice points
    past it, i.e. the bounded space was the whole space.

    {b Invariants} are non-blocking closures evaluated after the run
    drains; a [Some detail] result is a violation. A built-in
    no-leaked-processes invariant (parked waiters, undelivered kills)
    is always checked. The first violating schedule found is greedily
    minimized — entries zeroed where the violation persists, trailing
    zeros trimmed — and {!replay} re-executes it deterministically
    with a recorded interleaving trace. *)

module Sim = Rhodos_sim.Sim

(** {2 Shared run construction}

    [exec] is the single way analysis code executes a scenario on a
    fresh simulator; the determinism sanitizer delegates here too. *)

type run = {
  digest : int;  (** {!Sim.run_digest} at end of run *)
  dispatched : int;
  observation : string;
  audit : Sim.audit;
  choices : (int * int) list;
      (** (n_ready, chosen) per choice point; empty when uncontrolled *)
  schedule : int list;  (** the [chosen] components of [choices] *)
}

val exec :
  ?until:float ->
  ?tie:Rhodos_util.Prio_queue.tie ->
  ?scheduler:Rhodos_sim.Schedule.strategy ->
  setup:(Sim.t -> unit) ->
  observe:(Sim.t -> string) ->
  unit ->
  run
(** Build a fresh tracked world with [setup], run it (to [until] if
    given), and capture digest, audit, recorded choices and the
    [observe] result. *)

val record_dispatches : Sim.t -> unit -> (float * string) list
(** Subscribe a dispatch log — [(time, "name#id" or "top")] per
    dispatch — to the world's stream; the returned function reads it,
    oldest first. {!replay} prints it as the interleaving trace. *)

val enumerate_schedules :
  ?until:float ->
  max_depth:int ->
  max_runs:int ->
  setup:(Sim.t -> unit) ->
  observe:(Sim.t -> string) ->
  unit ->
  run list * bool
(** Systematically enumerate distinct bounded schedules of a scenario
    (the explorer's search, without invariants), FIFO run first.
    Returns the executed runs and whether the bounded space was fully
    covered within [max_runs]. Used by
    {!Determinism.run_twice_compare} to extend the 3-run sanity check
    to N explored interleavings. *)

(** {2 Scenarios and invariants} *)

type invariant = {
  inv_name : string;
  inv_check : unit -> string option;
      (** evaluated after the run drains; [Some detail] = violated.
          Must not block (runs outside any process). *)
}

type world = {
  invariants : invariant list;
  tracer : Rhodos_obs.Trace.t option;
      (** when present, {!replay} collects its spans and renders the
          causal tree alongside the interleaving *)
  sanitizer : Sanitizer.t option;
      (** when present, its violations are evaluated after the run
          drains, as pseudo-invariants named ["sanitizer:<kind>"] — so
          exploration minimizes and replays a race exactly like an
          invariant breach *)
  observe : unit -> string;
      (** terminal-state summary; feeds the state-digest cache *)
}

type scenario = {
  sc_name : string;
  sc_descr : string;
  sc_until : float option;
  sc_setup : Sim.t -> world;
}

type bounds = {
  max_depth : int;  (** deviate only at choice points below this *)
  max_runs : int;  (** total run budget, minimization included *)
  random_walks : int;
      (** fallback walks when the bounded space was not exhausted *)
  walk_seed : int;
}

val default_bounds : bounds
(** [{ max_depth = 12; max_runs = 4000; random_walks = 64;
      walk_seed = 0x5eed }] *)

type violation = {
  v_invariant : string;
  v_detail : string;
  v_schedule : int list;  (** minimized *)
  v_found : int list;  (** schedule as first discovered *)
}

type report = {
  r_scenario : string;
  r_runs : int;  (** schedules executed, minimization included *)
  r_max_choice_points : int;  (** deepest choice-point count seen *)
  r_pruned : int;  (** runs not expanded: state digest already seen *)
  r_exhausted : bool;
      (** bounded systematic space fully enumerated within the run
          budget (runs may still have had choice points past
          [max_depth]; see [r_max_choice_points]) *)
  r_walks : int;  (** random walks actually taken *)
  r_violation : violation option;
}

(** {2 Exploration} *)

val run_schedule : scenario -> int list -> run * (string * string) list
(** Execute the scenario under one schedule; returns the run and its
    invariant violations as [(invariant, detail)] pairs. *)

val explore : ?bounds:bounds -> scenario -> report
(** Search the scenario's bounded schedule space for an invariant
    violation; minimize the first one found. *)

val replay : scenario -> int list -> run * (string * string) list * string
(** Deterministically re-execute a schedule with recording on. The
    third component is the pretty-printed interleaving (dispatch
    trace, choice points marked), followed by the span tree when the
    scenario installs a tracer. *)

(** {2 Crash-point sweep} *)

type sweep = {
  s_points : int;  (** injection points exercised *)
  s_failures : (int * string * string) list;
      (** (point, invariant, detail) for every failed point *)
}

val crash_sweep : points:int -> check:(int -> (string * string) list) -> sweep
(** Drive [check k] for [k = 0 .. points - 1]; [check] injects a crash
    at point [k], re-runs recovery and returns any violations. *)

val pp_report : Format.formatter -> report -> unit

val pp_violation : Format.formatter -> violation -> unit

val schedule_to_string : int list -> string
(** ["0,2,1"] — the CLI/replay wire form. *)

val schedule_of_string : string -> int list
(** Inverse of {!schedule_to_string}; raises [Failure] on junk. *)
