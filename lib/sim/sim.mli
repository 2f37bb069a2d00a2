(** Deterministic discrete-event simulator with lightweight blocking
    processes.

    Everything in the reproduction runs on simulated time: disk
    transfers, network hops, lock waits, transaction timeouts. A
    process is an ordinary OCaml function that may call the blocking
    operations below ([sleep], [Mailbox.recv], [Semaphore.acquire],
    ...); suspension is implemented with OCaml 5 effects, so service
    code reads in direct style.

    Time is a [float] in milliseconds. Runs are deterministic: events
    at equal times fire in schedule order. *)

type t
(** A simulation world: clock plus event queue. *)

type pid
(** Process identifier. *)

exception Killed
(** Raised inside a process that is killed (e.g. its node crashed). *)

exception Blocking_outside_process
(** Raised when a blocking operation ([sleep], [Mailbox.recv], ...) is
    called from outside a [spawn]ed process — e.g. straight from a
    [schedule] callback or from top level. Without this check the
    failure would surface as a cryptic [Effect.Unhandled]. *)

val create :
  ?tie_break:Rhodos_util.Prio_queue.tie ->
  ?track:bool ->
  ?scheduler:Schedule.strategy ->
  unit ->
  t
(** [tie_break] (default [Fifo]) orders same-time events; [Lifo] is
    the determinism sanitizer's perturbed mode — a correct program
    must compute the same observable results under either. [track]
    (default [false]) records every spawned process so {!audit} can
    report leaks at end of run.

    Events wait in one {!Rhodos_util.Prio_queue}: a binary heap for
    future times plus a ring for events scheduled at the current time
    (wakeups, spawns, yields), which the loop dispatches without a
    heap sift. The dispatch order is the queue's (time, then tie
    policy) total order; tests pin the resulting run digests.

    [scheduler] switches the event loop into controlled mode: whenever
    more than one live event is ready at the same simulated time, the
    strategy picks which one fires (see {!Schedule}). Each such choice
    point is recorded and retrievable via {!choices}, making any run
    replayable with [Schedule.of_list]. A [Schedule.fifo] strategy
    dispatches in exactly the default order, so its digest matches an
    uncontrolled run. *)

val now : t -> float
(** Current simulated time (ms). *)

val spawn : ?name:string -> t -> (unit -> unit) -> pid
(** Schedule a new process to start at the current time. An exception
    escaping the process (other than [Killed]) is recorded and
    re-raised by [run]. *)

val spawn_at : ?name:string -> t -> at:float -> (unit -> unit) -> pid

val run : ?until:float -> t -> unit
(** Execute events until the queue is empty or the clock passes
    [until]. Re-raises the first exception that escaped a process. *)

val step : t -> bool
(** Execute a single event; [false] if none remain. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Low-level: run a callback (not a blocking process) at time [at]. *)

val sleep : t -> float -> unit
(** Block the calling process for the given duration. *)

val yield : t -> unit
(** Reschedule the calling process at the current time, letting other
    ready processes run first. *)

val kill : t -> pid -> unit
(** Kill a process: if it is blocked it resumes by raising [Killed];
    if it is ready-to-run it raises [Killed] at its next blocking
    point. Killing a dead process is a no-op. *)

val is_alive : t -> pid -> bool

val in_process : t -> bool
(** [true] while executing inside a [spawn]ed process (as opposed to a
    bare [schedule] callback or top level). *)

val pid_name : t -> pid -> string

val current_proc_id : t -> int
(** Id of the process currently executing, [-1] outside any process —
    the same attribution the stream events carry. Lets a stream
    consumer attribute events from the layers above (e.g. lock-manager
    events) to the process that produced them. *)

(** {2 Process-local storage}

    A [Local.key] names one typed slot of per-process state. A child
    process inherits a snapshot of its spawner's locals at the [spawn]
    call, so ambient context (e.g. the trace context of the request
    that fanned out the work) follows causality across [spawn]. Reads
    and writes outside any process return [None] / are no-ops. *)
module Local : sig
  type 'a key

  val key : unit -> 'a key
  (** Create a fresh slot. Each key is independent; values set under
      one key are invisible to every other key. *)

  val get : t -> 'a key -> 'a option
  (** Value bound in the calling process, or [None] if unbound or if
      called outside any process. *)

  val set : t -> 'a key -> 'a option -> unit
  (** Bind ([Some]) or clear ([None]) the slot in the calling process.
      No-op outside a process. Does not affect already-spawned
      children. *)
end

(** {2 The observation stream}

    Each world carries one multi-subscriber event stream, fed every
    dispatch and every causality-relevant primitive operation: spawns,
    cross-process wakeups, mailbox send/recv (with per-message sequence
    numbers so a receive pairs with the exact send that produced it
    under any schedule), ivar fill/read, semaphore acquire/release, and
    every {!Cell} access. The lock manager and the buffer cache extend
    the type with events carrying the instance that emitted them. The
    sanitizer, the deadlock detector and the explorer all subscribe
    here. Delivery is synchronous, in subscription order; callbacks
    must not block. Emission never schedules events, so subscribers
    cannot change {!run_digest}; with none, each emission site costs
    one match on the empty subscriber list. *)

type cell_role =
  | Data
      (** every access pair must be happens-before ordered or guarded
          by a common lock; race-checked pairwise by the sanitizer *)
  | Sync
      (** coordination state that is lock-free by design in the
          cooperative simulator (lock tables, dedup maps, cache
          pools); exempt from pairwise race reports — protocol
          monitors and end-state invariants cover it *)

type mon_event = ..

type mon_event +=
  | M_dispatch of { at : float; proc : int; name : string }
      (** the event loop is about to run an event owned by process
          [proc] (named [name]; [-1]/["top"] outside any) at sim time
          [at] — one per dispatch, in dispatch order *)
  | M_spawn of { parent : int; child : int; name : string }
  | M_wake of { by : int; target : int }
      (** process [by] resumed parked process [target]; [-1] = outside
          any process (e.g. a timer). Every cross-process wakeup —
          mailbox send reaching a waiter, semaphore release, ivar
          fill, condition signal — funnels through this one edge. *)
  | M_send of { proc : int; mailbox : int; msg : int }
  | M_recv of { proc : int; mailbox : int; msg : int }
  | M_ivar_fill of { proc : int; ivar : int; double : bool }
      (** [double] = the ivar was already filled; emitted just before
          [Ivar.fill] raises on the double fill *)
  | M_ivar_read of { proc : int; ivar : int }
  | M_sem_acquire of { proc : int; sem : int }
  | M_sem_release of { proc : int; sem : int }
  | M_cell_created of { cell : int; name : string; role : cell_role }
      (** emitted only for cells created while some subscriber is
          attached; consumers fall back to ["cell#<id>"] otherwise *)
  | M_cell_read of { proc : int; cell : int; role : cell_role }
  | M_cell_write of { proc : int; cell : int; role : cell_role }

val subscribe : t -> (mon_event -> unit) -> Rhodos_util.Event_bus.token
(** Add a subscriber; it sees every later event. Subscribe before
    creating the objects it should know by name. *)

val unsubscribe : t -> Rhodos_util.Event_bus.token -> unit

val observed : t -> bool
(** [true] iff some subscriber is attached: test it before building
    an event for {!emit}. *)

val emit : t -> mon_event -> unit

(** {2 Profiler hooks}

    A probe is the dispatch loop's self-instrumentation: armed by
    [Rhodos_obs.Profiler], it receives one callback per dispatched
    event carrying the owning process, dispatch sim time, event-queue
    length and host-time stamps (from the probe's own monotonic clock
    — the simulator never reads host time itself; the
    host-clock-hygiene lint confines host clocks to the profiler
    module). Host readings flow only into the probe's accumulators,
    never into simulated state or the event queue, so an armed probe
    is digest-neutral; with no probe installed each hook site is a
    single match on [None] and the per-event [queued_host_ns] stamp is
    the immediate [0] — no allocation, no clock read. *)

type probe = {
  pr_clock : unit -> int;
      (** monotonic host nanoseconds; called at event creation and
          around each dispatched thunk *)
  pr_dispatch :
    proc:int ->
    name:string ->
    at:float ->
    queue_len:int ->
    queued_host_ns:int ->
    start_ns:int ->
    end_ns:int ->
    unit;
      (** after each dispatched event's thunk returns: [proc]/[name]
          identify the owning process ([-1]/["top"] outside any),
          [at] is the dispatch sim time, [queue_len] the event-queue
          length after the dispatch, [queued_host_ns] the enqueue
          stamp (0 = enqueued before the probe was armed), and
          [start_ns]/[end_ns] bracket the thunk *)
  pr_wake : target:int -> name:string -> unit;
      (** a parked process was resumed — the same edge as [M_wake] *)
}

val set_probe : t -> probe option -> unit
(** Install (or clear) the probe. At most one probe per world. *)

val queue_length : t -> int
(** Current number of pending events (live or cancelled) in the
    queue. O(1). *)

(** {2 Determinism sanitizer hooks}

    Used by [Rhodos_analysis.Determinism]. *)

val run_digest : t -> int
(** Hash of the event trace so far: every dispatched event's creation
    sequence number and dispatch time, folded in dispatch order. Two
    runs of the same program yield the same digest iff they executed
    the same schedule — a digest mismatch between two identically
    configured runs means nondeterminism (wall-clock, [Random], ...)
    leaked into the simulation. *)

val events_dispatched : t -> int

val digest_step : int -> int -> float -> int
(** [digest_step digest id time] is the digest fold applied at each
    dispatch — an allocation-free reimplementation of
    [Hashtbl.hash (digest, id, Int64.bits_of_float time)]. Exposed
    only so the test suite can pin the equivalence with a qcheck
    comparison against [Hashtbl.hash] itself; no other caller should
    need it. *)

val choices : t -> (int * int) list
(** Choice points taken so far in a controlled run, oldest first:
    [(n_ready, chosen)] per point where the ready set held more than
    one live event. Empty when no [scheduler] was given. The [chosen]
    components form the schedule that [Schedule.of_list] replays. *)

type audit = {
  parked : string list;
      (** processes still blocked when the event queue drained:
          never-resumed waiters *)
  undelivered_kills : string list;
      (** processes killed while ready whose [Killed] was never
          delivered — the kill leaked *)
}

val audit : t -> audit
(** End-of-run leak report. Empty unless the world was created with
    [~track:true]. *)

(** First-class suspension, used to build new blocking primitives.
    [suspend t register] parks the calling process and hands
    [register] a waker; the first call of the waker resumes the
    process with the given value and returns [true]; later calls
    return [false] and do nothing. *)
val suspend : t -> (('a -> bool) -> unit) -> 'a

val suspend_full : t -> (('a -> bool) -> (unit -> bool) -> unit) -> 'a
(** Like [suspend] but [register] also receives a liveness predicate,
    [false] once the process has been woken or killed. Pass it to
    [schedule_cancellable] so a stale timer neither fires nor drags
    the clock forward. *)

val schedule_cancellable : t -> at:float -> live:(unit -> bool) -> (unit -> unit) -> unit
(** [schedule] with a liveness predicate checked at dispatch time. *)

module Mailbox : sig
  type 'a mb

  val create : t -> 'a mb

  val send : 'a mb -> 'a -> unit
  (** Never blocks; delivers to a waiting receiver or queues. *)

  val recv : 'a mb -> 'a
  (** Block until a message arrives. *)

  val recv_timeout : 'a mb -> float -> 'a option
  (** [None] if no message arrives within the duration. *)

  val try_recv : 'a mb -> 'a option

  val length : 'a mb -> int
end

module Semaphore : sig
  type sem

  val create : t -> int -> sem

  val acquire : sem -> unit

  val try_acquire : sem -> bool

  val release : sem -> unit

  val available : sem -> int

  val with_acquire : sem -> (unit -> 'a) -> 'a
  (** [acquire], run the closure, and always [release] — including
      when the closure raises ([Fun.protect]). The scoped form the
      exception-flow pass treats as leak-free by construction. *)
end

module Condition : sig
  type cond

  val create : t -> cond

  val wait : cond -> unit
  (** Block until [signal]/[broadcast]. No mutex is needed: the
      simulator is cooperative, so the test-and-wait is atomic. *)

  val wait_timeout : cond -> float -> bool
  (** [true] if signalled, [false] on timeout. *)

  val signal : cond -> unit
  (** Wake one waiter (FIFO). No-op if none. *)

  val broadcast : cond -> unit

  val waiters : cond -> int
end

(** A write-once cell ("incremental variable"): readers block until a
    single [fill] publishes the value to all of them at once. The
    file agent uses one per in-flight block fetch, so concurrent
    readers of the same block share a single remote fetch
    (single-flight dedup) instead of duplicating it. *)
module Ivar : sig
  type 'a ivar

  val create : t -> 'a ivar

  val fill : 'a ivar -> 'a -> unit
  (** Publish the value and wake every waiting reader (FIFO).
      @raise Invalid_argument if already filled. *)

  val read : 'a ivar -> 'a
  (** Return the value, blocking the calling process until [fill]. *)

  val peek : 'a ivar -> 'a option

  val is_filled : 'a ivar -> bool
end

(** Instrumented shared state: a mutable box whose reads and writes
    are stream events, making cross-process mutable state observable
    to the sanitizer. Library code holding state that several
    processes touch (agent fetch bookkeeping, cache pools, lock
    tables) keeps it in cells instead of bare [ref]s/[Hashtbl]s — the
    [global-mutable-state] and [raw-shared-cell] lint rules enforce
    the discipline. With no subscriber an access costs one match on
    the empty subscriber list. *)
module Cell : sig
  type 'a cell

  val create : ?role:cell_role -> ?name:string -> t -> 'a -> 'a cell
  (** [role] defaults to [Data] (the checked discipline); pass
      [~role:Sync] for by-design lock-free coordination state. Create
      cells after attaching the sanitizer so it learns their names. *)

  val name : 'a cell -> string

  val get : 'a cell -> 'a
  (** Read the cell (emits [M_cell_read]). When the payload is itself
      mutable (a [Hashtbl]), mutate it through {!update}, not through
      the alias [get] returns — the [raw-shared-cell] lint flags the
      latter. *)

  val set : 'a cell -> 'a -> unit
  (** Replace the payload (emits [M_cell_write]). *)

  val update : 'a cell -> ('a -> 'a) -> unit
  (** Read-modify-write (emits [M_cell_read] then [M_cell_write]).
      For a mutable payload, [update c (fun h -> mutate h; h)] marks
      the in-place mutation as a write. *)

  val peek : 'a cell -> 'a
  (** Unmonitored read, for reporting/debug paths that must not
      register as accesses. *)
end
