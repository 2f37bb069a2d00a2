(** The sequential lock pass: an abstract interpretation of each
    function body in evaluation order, tracking which lock tokens are
    held.

    Produces three kinds of output:

    - [may-block-under-lock] findings — a call that may block ([Time]
      or [Remote] class) reached while a [Lock_manager] grant is
      held; the headline rule is lock-held-across-RPC;
    - [may-block-in-cell-update] findings — any blocking call inside
      a [Sim.Cell.update] read-modify-write closure;
    - a static lock-order graph whose edges are "token [u] held when
      token [v] acquired", composed through the call graph; cycles of
      two or more distinct tokens are reported as
      [lock-order-cycle] (potential ABBA deadlock) with one
      witnessing edge chain per cycle.

    The body walk is {!Flow}'s may-domain walk: a closure is inlined
    where it is built ([Fun.protect] walks the body before the
    [~finally] closure); branches merge as the union of their
    post-states, joined with the pre-state for an [if] with no [else],
    a [try] body that falls through, [function] cases and loops;
    [Sim.spawn]-like arguments are skipped (they run elsewhere); lock
    items whose arguments cannot be rendered statically set the held
    flag but join no order edges. *)

type token = Flow.token

type edge = {
  e_from : token;
  e_to : token;
  e_file : string;
  e_line : int;
  e_witness : string;
}

type result = {
  findings : Finding.t list;
  edges : edge list;
  summaries : (string, Flow.summary) Hashtbl.t;
}

val run : Callgraph.t -> Mayblock.t -> result
