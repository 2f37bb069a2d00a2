(** Static shared-state race detection: spawn-escape analysis plus
    interprocedural must-lockset inference, Eraser-style.

    The pass builds a {b shared-mutable inventory} of abstract
    locations — module-level refs/[Hashtbl]s/[Queue]s/[Buffer]s
    ([global:Mod.name]), mutable record fields and record fields
    initialised with a raw container ([field:Mod.name], qualified by
    the declaring module; an access resolves through its qualifier,
    then the accessing module, then the unique declaring module),
    function-local mutables that escape into closures
    ([ref:fn:name], instance-sensitive: only roots created inside the
    owning activation — its spawned closures and its own
    continuation — can share one instance), and [Sim.Cell] instances
    ([cell:name], named by the binding or record field holding the
    cell) — then discovers every
    {b concurrency root}: the closure argument of each
    [Sim.spawn]/[Sim.schedule] site (with a multiplicity of 2 when
    the site sits in a loop, a higher-order closure, a local function
    used more than once, or a function with several callers), each
    closure field of a [Service_conn] record (a server handler,
    invoked by any number of remote clients), and the spawning
    function's own continuation (only its accesses {e after} the
    first spawn count — setup before any concurrency exists cannot
    race).

    A location {b escapes} when the multiplicities of the roots that
    reach it (through the call graph) sum to two or more. Escape
    alone is not racy under the cooperative scheduler: execution is
    atomic between blocking points, so a location is only {b exposed}
    (and reportable) when some activation holds a {e torn window} —
    it touches the location both before and after a call that may
    suspend (read / yield / write is the canonical lost update).
    Lone atomic accesses, however many tasks make them, cannot
    interleave mid-invariant. At every
    access site the pass computes the {b must-held lockset}: lock
    tokens from [Lock_manager.acquire] (not [try_acquire], which may
    fail), semaphore tokens, the pseudo-token of the enclosing
    [Sim.Cell.update] (the RMW is atomic w.r.t. that cell), and
    [ivar:] handoff tokens ([Ivar.read] happens-after the [fill], so
    the read side holds the token from the read on, and the fill side
    holds it for accesses before the fill). The body walk is
    {!Flow}'s must-domain walk, so branch merges intersect; function
    entry locksets are the meet over all call sites,
    propagated to a fixpoint with roots starting empty.

    Rules (all witnessed):

    - [static-race] — an escaped raw location (global or field) with
      at least one counted write and an empty lockset intersection
      across its access sites;
    - [unsynchronized-cell-write] — a Data-role cell written from
      two or more roots with an empty lockset intersection (Sync and
      unknown-role cells are the dynamic sanitizer's jurisdiction;
      consistent [Sim.Cell.update] use protects itself);
    - [unmonitored-shared-state] — a module-level raw mutable written
      from concurrent roots: even if lock-protected it is invisible
      to the sanitizer and must move into a cell (supersedes the
      token-level [global-mutable-state] lint with real
      reachability).

    Soundness caveats (DESIGN.md section 4b''''): fields unify by
    name within a module (two record types in one module sharing a
    field name are one location) and an ambiguous cross-module field
    access (several declaring modules, none matching) is skipped; a
    spawned wrapper that spawns its function argument ([Net.spawn_on]
    style) is not traced through; the torn-window gate is
    single-location (an invariant spanning two locations broken
    across a yield is not modelled) and uses scan order within an
    activation as program order; [Sim.Cell.peek] is exempt by
    contract; and the simulator core ([sim.ml], [prio_queue.ml]) and
    the observability plane ([lib/obs]) are outside the model's
    jurisdiction. *)

type kind = Global | Field | Cell

type role = Data | Sync | Unknown

type access = {
  a_fn : string;  (** enclosing function or root id *)
  a_file : string;
  a_line : int;
  a_write : bool;
  a_locks : string list;  (** must-held lockset, sorted *)
}

type location = {
  l_id : string;  (** ["global:…"], ["field:…"] or ["cell:…"] *)
  l_kind : kind;
  l_role : role;  (** cells only; [Unknown] for raw locations *)
  l_cell_name : string option;
      (** the [~name] string literal at the create site, when static —
          matches the dynamic sanitizer's cell naming *)
  l_file : string;
  l_line : int;  (** declaration / creation anchor *)
  l_roots : (string * int) list;  (** root id, multiplicity; sorted *)
  l_accesses : access list;  (** counted (root-reachable) sites *)
  l_locks : string list;
      (** lockset intersection across counted sites — the inferred
          protection of this location *)
}

type result = {
  findings : Finding.t list;
  locations : location list;
      (** every escaped location, sorted by id — the protection map *)
}

val run : Callgraph.t -> Mayblock.t -> Lockpass.result -> result
(** The may-block results drive the yield gate: only functions that
    can suspend expose their accesses to interleaving. *)

val locations_to_json : location list -> string
(** The protection map as a JSON array (location, kind, role, decl,
    roots, inferred locks, access sites). *)

val exempt_file : string -> bool
(** Simulator-core and observability files outside the model. *)
