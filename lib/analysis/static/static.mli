(** Driver for the AST-based static analysis: load, parse, build the
    call graph, run the passes ({!Mayblock} + {!Lockpass},
    {!Protocol}, {!Exnflow}, {!Racepass}, {!Ast_rules}, token-engine
    fallback for unparseable sources), apply [static-ok]
    suppressions, report each marker for a pass rule that suppressed
    nothing as [stale-suppression], and diff against the committed
    baseline. Pure —
    printing and exit codes belong to [bin/rhodos_lint]. *)

type report = {
  findings : Finding.t list;  (** after suppressions, sorted *)
  suppressed : int;
  parse_failures : (string * string) list;  (** path, error *)
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

val against_baseline :
  report -> baseline:string list -> Finding.t list * string list
(** (new findings not in the baseline, stale baseline keys). *)

val self_test : dir:string -> bool * string list
(** Run the engine over a fixture directory and check each file's
    [expect: rule ...] / [expect-clean] directive; also asserts that
    every headline finding (blocking, deadlock, exception-flow and
    race rules) carries a witness chain. Returns pass/fail and a
    report line per file. *)
