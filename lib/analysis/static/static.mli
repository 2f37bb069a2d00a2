(** Driver for both lint entry points, over one finding type and one
    suppression reader ([static-ok: <rule> <reason>] on the finding's
    line or the line above).

    {!analyze} ([rhodos_lint static]): load, parse, build the call
    graph, run the passes ({!Mayblock} + {!Lockpass}, {!Protocol},
    {!Exnflow}, {!Racepass}, {!Ast_rules.static_rules}), report each
    unparseable source as [parse-failure], apply suppressions, report
    each marker for a pass rule that suppressed nothing as
    [stale-suppression], and diff against the committed baseline.

    {!lint_dir} ([rhodos_lint DIR]): the per-file rules of a profile
    ({!Ast_rules}), suppressions applied, plus [missing-mli] for the
    Library profile.

    Pure — printing and exit codes belong to [bin/rhodos_lint]. *)

type report = {
  findings : Finding.t list;  (** after suppressions, sorted *)
  suppressed : int;
  parse_failures : (string * string) list;  (** path:line, error *)
  files : Source.file list;
  timings : (string * float) list;
      (** per-pass wall-time (seconds) in run order; all zero unless
          a [clock] was supplied *)
  race_locations : Racepass.location list;
      (** the race pass's protection map: every escaped shared
          location with its inferred guarding locks and access
          sites *)
}

val analyze_files : ?clock:(unit -> float) -> Source.file list -> report
(** [clock] (e.g. [Sys.time], passed by the CLI) times each pass; the
    default constant clock keeps the library free of host time. *)

val analyze : ?clock:(unit -> float) -> dirs:string list -> unit -> report

val lint_files :
  ?profile:Ast_rules.profile -> Source.file list -> Finding.t list
(** The profile's per-file rules (default [Library]), sorted, with
    suppressions applied. *)

val lint_source :
  ?profile:Ast_rules.profile -> file:string -> string -> Finding.t list
(** {!lint_files} over one in-memory source. *)

val lint_dir : ?profile:Ast_rules.profile -> string -> Finding.t list
(** {!lint_files} over every [.ml] under a directory; the [Library]
    profile adds [missing-mli] for each with no [.mli] beside it. *)

val against_baseline :
  report -> baseline:string list -> Finding.t list * string list
(** (new findings not in the baseline, stale baseline keys). *)

val self_test : dir:string -> bool * string list
(** Run the engine over a fixture directory and check each file's
    [expect: rule ...] / [expect-clean] directive; also asserts that
    every headline finding (blocking, deadlock, exception-flow and
    race rules) carries a witness chain. Returns pass/fail and a
    report line per file. *)
