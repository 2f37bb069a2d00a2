(** Findings reported by the static passes, with a line-stable
    identity for the committed baseline and a JSON rendering for
    [rhodos_lint static --json]. *)

type t = {
  rule : string;  (** e.g. ["may-block-under-lock"] *)
  file : string;  (** path as scanned *)
  line : int;
  symbol : string;  (** enclosing function / type, [""] if none *)
  slug : string;
      (** pass-chosen stable discriminator (callee, cycle, constructor
          name); part of {!key} so edits elsewhere in the file do not
          invalidate a baseline entry *)
  message : string;
  witness : string list;
      (** human-readable evidence: the call chain to the blocking
          primitive, the cycle's edges, ... *)
}

val v :
  ?symbol:string ->
  ?witness:string list ->
  rule:string ->
  file:string ->
  line:int ->
  slug:string ->
  string ->
  t

val key : t -> string
(** [rule|basename|symbol|slug] — line-number independent. *)

val sort : t list -> t list
(** Deterministic order (file, line, rule, slug), duplicates dropped. *)

val pp : Format.formatter -> t -> unit
(** Compiler-style [file:line: [rule] message], witness lines
    indented below. *)

val json_escape : string -> string
(** Escape a string for inclusion in a JSON string literal. *)

val to_json : t -> string

val list_to_json :
  ?suppressed:int ->
  ?parse_failures:string list ->
  ?timings:(string * float) list ->
  ?extras:(string * string) list ->
  t list ->
  string
(** [{"findings":[...],"suppressed":n,"parse_failures":[...],
    "timings":[{"pass":...,"ms":...},...]}] — [timings] are
    (pass, seconds) pairs, rendered in milliseconds. Each [extras]
    pair becomes one extra top-level member; the value must already
    be rendered JSON (the race pass's protection map rides here). *)

val baseline_of_string : string -> string list
(** Parse a baseline file's accepted {!key} list. *)

val baseline_to_string : string list -> string
(** Render keys as a committed baseline (sorted, deduped). *)
