(** Mutable min-priority queue keyed by [float] priority.

    Ties are broken by insertion order (FIFO) by default, which makes
    event processing in the simulator deterministic; see {!tie} for
    the perturbed alternative.

    One structure: a binary heap over parallel unboxed arrays, plus a
    FIFO ring for entries added at the priority of the last pop (in the
    simulator, the current time: wakeups, spawns, yields), which makes
    same-time bursts O(1) per operation. The split is invisible: pops
    follow the single (prio, then tie-policy) total order. Steady-state
    operations allocate nothing; only capacity growth does. *)

type 'a t

type tie = Fifo | Lifo
(** Policy for elements with equal priority: [Fifo] (the default) pops
    them in insertion order; [Lifo] pops newest-first. [Lifo] exists
    for the determinism sanitizer, which re-runs a simulation with
    perturbed tie-breaking to expose schedule-order dependence. *)

val create : ?tie:tie -> unit -> 'a t
(** [create ()] is an empty [Fifo] queue. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val add : 'a t -> prio:float -> 'a -> unit
(** [add q ~prio v] inserts [v] with priority [prio]. Allocation-free
    except when the backing store grows. *)

val unsafe_min_prio : 'a t -> float
(** Priority of the minimum element, without an option wrapper, for
    the hot loop: undefined on an empty queue (the caller must check
    {!is_empty} first). *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the element with the smallest priority;
    among equal priorities, the earliest inserted ([Fifo]) or the
    latest ([Lifo]). *)

val pop_into : 'a t -> 'a
(** Allocation-free {!pop} for the hot loop: removes the minimum
    element and returns its value directly — read {!unsafe_min_prio}
    first if the priority is needed. Raises [Invalid_argument] on an
    empty queue. *)

(** {2 Ready-set access}

    The {e ready set} is the group of entries sharing the minimum
    priority — in the simulator, the events that could legally fire
    next. The analysis explorer turns this set into an explicit
    scheduling choice point. {!ready} and {!pop_nth} are O(n) scans
    used only there; {!ready_count} is allocation-free and O(1) when
    the minimum is unique, so the event loop may call it per
    dispatch. *)

val ready_count : 'a t -> int
(** Number of entries sharing the minimum priority (0 when empty). *)

val ready : 'a t -> (float * 'a) list
(** The ready set in insertion order, without removing anything. *)

val pop_nth : 'a t -> int -> (float * 'a) option
(** [pop_nth q n] removes and returns the [n]-th entry (0-based, in
    insertion order) among those sharing the minimum priority; [None]
    if [n] is out of range. [pop_nth q 0] equals [pop q] under [Fifo]
    tie-breaking. *)

val drain : 'a t -> (float * 'a) list
(** Pop everything, in order. *)
