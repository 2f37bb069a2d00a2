(** Interprocedural exception flow over the call graph.

    Per function, the may-raise set: syntactic [raise]s, a table of
    implicit stdlib raisers ([Option.get], [Hashtbl.find],
    [failwith], ...), and the declared raises of the blocking
    primitives (every suspension point can deliver [Sim.Killed]; the
    RPC client adds [Net.Rpc.Timeout]), propagated through calls to a
    fixpoint. [try ... with] arms subtract the constructors they
    match, catch-all arms subtract everything, and an arm's own
    raises — including [raise e] of the bound exception — flow back
    out.

    Rules emitted, each with a witness chain:

    - [swallowed-control-exn] — a catch-all arm that can absorb
      [Sim.Killed] without re-raising it;
    - [leak-on-raise] — a lock/semaphore token held at a call that
      may raise uncaught, with no enclosing [Fun.protect] (composed
      with {!Lockpass} summaries);
    - [ivar-unfilled-on-raise] — an [Ivar.fill] reachable only after
      a possibly-raising point on the same path;
    - [unmapped-wire-error] — an exception reaching a request
      dispatcher's handler arm that the [E_*] error mapper only
      catch-alls (composed with {!Protocol} dispatchers);
    - [escaping-raise-into-dispatch] — an exception escaping a
      request dispatcher entirely, killing the serving process.

    Approximations are documented in DESIGN.md section 4b''':
    lambdas are inlined at their definition point, [assert] is
    ignored, guarded handler arms neither subtract nor swallow, any
    enclosing [Fun.protect] absolves a leak, [Ivar.fill] is checked
    only at direct call sites, and spawn-like closure arguments are
    analysed in a fresh context. The effect scan is {!Flow}'s
    may-domain walk. *)

type t
(** The computed raise sets. *)

val control_exns : string list
(** Exceptions that are process-control signals ([Sim.Killed]):
    swallowing one is a finding, and they are exempt from the
    dispatcher rules (a dispatcher must die at its kill point). *)

val any_exn : string
(** The ["*"] element: an unresolvable [raise e] — escapes every
    handler except a catch-all. *)

val run : Callgraph.t -> Lockpass.result -> t * Finding.t list

val raises : t -> string -> string list
(** The may-raise set of a function, as canonical constructor names
    (sorted). May include {!any_exn}. *)

val chain : t -> string -> string -> string list
(** [chain t fn exn] — a witness call path from [fn] to the function
    that raises [exn] directly (or to the primitive's name). *)
