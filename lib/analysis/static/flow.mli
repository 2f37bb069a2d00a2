(** What the flow-sensitive passes ({!Lockpass}, {!Exnflow},
    {!Racepass}) share: one evaluation-order walker, one reading of a
    call as a lock event, and one round-robin fixpoint. Each
    pass brings its abstract state and rules in a {!walker} record
    (DESIGN.md section 4b'', "One walker, two joins"). *)

type token = string
(** A [Lock_manager] item rendered from its constructor and arguments
    (["File_item 1"], ["Page_item(fid,i)"]) or a semaphore path
    (["sem:t.fetch_slots"]). *)

val strip : Parsetree.expression -> Parsetree.expression
(** Drop type constraints and local opens. *)

val nolabel_args :
  (Asttypes.arg_label * Parsetree.expression) list ->
  Parsetree.expression list

val render_path : Parsetree.expression -> string option
(** An identifier/field path (["t.fetch_slots"]); [None] if dynamic. *)

val render_item : Parsetree.expression -> token option
val render_sem : Parsetree.expression -> token option
val is_sem_token : token -> bool

val union : token list -> token list -> token list
(** Ordered union: the first list, then the second's new tokens. *)

val is_exception_case : Parsetree.case -> bool
val strip_exception_case : Parsetree.case -> Parsetree.case

val case_exprs : Parsetree.case list -> Parsetree.expression list
(** Each case's guard (if any), then its right-hand side. *)

val find_or_add : ('k, 'v) Hashtbl.t -> 'k -> (unit -> 'v) -> 'v

(** {2 Lock events} *)

type summary = {
  mutable acquires : (token * string list) list;
      (** tokens a function may acquire, with the call chain from it
          to the acquiring function *)
  mutable holds_on_return : bool;  (** may return with a grant held *)
  mutable releases : bool;  (** may call [release_all] *)
}

(** A call read as a lock operation; [None] tokens are unrenderable. *)
type event =
  | Acquire of {
      tok : token option;
      item : Parsetree.expression option;
      must : bool;  (** [false] for [try_acquire], which may fail *)
    }
  | Release_all
  | Sem_acquire of token option
  | Sem_release of token option
  | Sem_scoped of token option * (unit -> unit)
      (** [with_acquire]; the thunk walks the closure it guards *)
  | Returns_holding of token list  (** callee summary: returns holding *)
  | Returns_released  (** callee summary: may release *)

(** {2 The walker} *)

type join =
  | May  (** union; a closure is inlined where it is built *)
  | Must  (** intersection; nothing a closure does survives it *)

type args = (Asttypes.arg_label * Parsetree.expression) list

type 's walker = {
  graph : Callgraph.t;
  env : Names.env;
  summaries : (string, summary) Hashtbl.t;
  join : join;
  get : unit -> 's;
  set : 's -> unit;
  merge : 's -> 's -> 's;
  expr : Parsetree.expression -> unit;  (** the pass's arms, else {!arms} *)
  arg : Parsetree.expression -> unit;  (** argument of an unresolved call *)
  call : Parsetree.expression -> string -> args -> unit;
      (** a resolved callee that is no lock primitive; walks its own
          arguments, and the callee's summary event follows *)
  lock : string -> int -> event -> unit;  (** callee, line, event *)
  spawn : Parsetree.expression -> args -> unit;  (** [Sim.spawn]-like *)
  handlers : Parsetree.case list -> (unit -> unit) -> unit;
      (** runs a [try] body or [match] scrutinee under its handlers *)
  protect : (unit -> unit) -> (unit -> unit) -> unit;
      (** [Fun.protect]: the body thunk, then the [~finally] thunk *)
}

val arms : 's walker -> Parsetree.expression -> unit
(** Sequencing; branches merged with [merge], the pre-state joining in
    for an [if] with no [else], a [try] body that falls through,
    [function] cases and loops; closures per {!join}; record fields
    isolated from each other; calls; the [Ast_iterator] fallback.
    Sub-expressions go back through [expr]. *)

val fixpoint : ('a -> bool) -> 'a list -> unit
(** Apply the step to every item in order, round after round, until a
    round reports no change (at most 64 rounds). *)
