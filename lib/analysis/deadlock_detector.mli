(** Waits-for-graph deadlock detection over a live [Lock_manager].

    The paper's section 6.4 resolves deadlock by suspicion alone: a
    contested lease break aborts the holder whether or not a deadlock
    exists, and the paper admits the scheme "may abort long
    transactions falsely". Attaching a detector makes that admission
    measurable: every lease-break suspicion is classified against the
    actual waits-for graph as a {e true deadlock} (the suspected
    transaction lies on a cycle) or a {e false abort} (it does not),
    with counters exported for the experiment harness. *)

type t

val attach : Rhodos_txn.Lock_manager.t -> t
(** Subscribe the detector, for the world's lifetime, to the
    observation stream of the lock manager's world, following that
    manager's events only (other managers on the world are ignored).
    Other subscribers (e.g. a sanitizer) are unaffected. The lock
    manager's behaviour is unchanged: the detector only observes. *)

val snapshot : t -> Waits_for.t
(** The current waits-for graph. *)

val check_now : t -> int list option
(** Any cycle in the current graph (an on-demand deadlock check,
    independent of the timeout scheme). *)

val last_cycle : t -> int list option
(** The cycle found by the most recent true-deadlock
    classification. *)

val true_deadlocks : t -> int

val false_aborts : t -> int

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["suspects"], ["true_deadlocks"], ["false_aborts"],
    ["blocks_observed"], ["grants_observed"], ["cancels_observed"]. *)

val pp_stats : Format.formatter -> t -> unit
