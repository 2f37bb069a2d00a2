(** The RHODOS lock manager (paper sections 6.1-6.5).

    Three lock modes with the Table 1 compatibility matrix:

    {v
      held \ requested   read-only   Iread   Iwrite
      (free)                ok         ok      ok
      read-only             ok         ok      wait
      Iread                wait       wait     wait / converted by
                                               the same transaction
      Iwrite               wait       wait     wait
    v}

    - {e read-only} (RO) locks are shared among readers and with at
      most one Iread;
    - {e Iread} (IR) marks read-with-intent-to-modify; once set, no
      {b new} RO locks are admitted (preventing permanent blocking of
      the writer), and only the holding transaction may convert it to
      Iwrite;
    - {e Iwrite} (IW) is exclusive.

    Three separate lock tables, one per locking level (record, page,
    file), each keeping its waiters in FIFO queues per data item —
    "for each level of locking, a file server maintains a separate
    lock table". Record-level items are byte ranges; two record items
    conflict when their ranges overlap.

    {b Timeouts} (section 6.4): every granted lock is invulnerable
    for LT; at each expiry the lock is renewed if nobody is waiting
    for the item, broken (and the holder's transaction suspected
    deadlocked) if someone is; after N renewals it is broken
    regardless. The suspect callback is responsible for aborting the
    transaction — including the paper's admitted false aborts of
    long-running transactions.

    [acquire] must run inside a [Sim] process. *)

type t

type mode = Read_only | Iread | Iwrite

(** A lockable data item. The level is implied by the constructor;
    each level lives in its own table. *)
type item =
  | File_item of int                  (** whole file *)
  | Page_item of int * int            (** file, page index *)
  | Record_item of int * int * int    (** file, byte offset, length *)

val mode_to_string : mode -> string

val item_to_string : item -> string
(** ["file:3"], ["page:3.1"], ["record:3.0+80"] — for reports. *)

val mode_rank : mode -> int
(** Strength order: read-only < Iread < Iwrite. Conversions only ever
    increase rank. *)

val items_conflict : item -> item -> bool
(** Same-table conflict: equality for file/page items, range overlap
    for record items. Items from different tables never conflict
    (the paper assumes "a file cannot be subjected to more than one
    level of locking by concurrent transactions"). *)

exception Wait_cancelled of int
(** Raised out of a blocked [acquire] whose transaction was aborted
    (argument: the transaction descriptor). *)

type config = {
  lt_ms : float;          (** lock invulnerability period LT *)
  max_renewals : int;     (** N: renewals before unconditional break *)
  search_cost_ms : float;
      (** simulated cost per lock record examined — makes "fewer
          locks to manage" measurable, as the paper argues for file-
          level locking *)
  cross_level : bool;
      (** relax the paper's "a file cannot be subjected to more than
          one level of locking by concurrent transactions": when
          [true], a file-level item conflicts with every page/record
          item of the same file and a page conflicts with the records
          inside it — the extension section 6.1 defers to "a later
          stage" *)
}

val default_config : config
(** LT = 200 ms, N = 5, search cost 0.002 ms/record, cross-level
    off (the paper's stated assumption). *)

val items_conflict_cross : item -> item -> bool
(** The cross-level conflict relation used when [cross_level] is
    on. *)

val create :
  ?config:config ->
  sim:Rhodos_sim.Sim.t ->
  on_suspect:(txn:int -> unit) ->
  unit ->
  t
(** [on_suspect] is called (in a fresh process) when a lock holder is
    suspected deadlocked; it must eventually release the
    transaction's locks ([release_all]) or cancel its waits. *)

val acquire : t -> txn:int -> item -> mode -> unit
(** Block until granted (per the matrix) or until the transaction's
    waits are cancelled. Re-acquiring a held item converts the lock
    when the matrix and other holders permit (IR->IW by the same
    transaction; RO->IR; RO->IW when sole holder), waiting otherwise.
    Acquiring any lock after [release_all] for the same transaction
    counts as a two-phase-locking violation (counter
    ["2pl_violations"]) but is not blocked — tests assert the counter
    stays zero.
    @raise Wait_cancelled if the transaction is aborted mid-wait. *)

val try_acquire : t -> txn:int -> item -> mode -> bool
(** Non-blocking variant. *)

val release_all : t -> txn:int -> unit
(** Phase two of 2PL: release every lock the transaction holds and
    wake compatible waiters in FIFO order. *)

val cancel_waits : t -> txn:int -> unit
(** Abort path: every blocked [acquire] of this transaction raises
    [Wait_cancelled]. *)

val holds : t -> txn:int -> item -> mode option

val held_count : t -> txn:int -> int

val waiter_count : t -> int

val table_size : t -> [ `Record | `Page | `File ] -> int
(** Granted + waiting records in that level's table. *)

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["acquires"], ["grants"], ["waits"], ["conversions"],
    ["renewals"], ["breaks_contested"], ["breaks_expired"],
    ["2pl_violations"]. *)

(** {2 Instrumentation}

    Lock events ride the world's observation stream
    ({!Rhodos_sim.Sim.subscribe}) as {!Lock_event}, synchronously
    inside lock-manager operations. *)

type event =
  | Ev_blocked of { txn : int; item : item; mode : mode }
      (** the transaction enqueued as a waiter *)
  | Ev_granted of { txn : int; item : item; mode : mode }
      (** a grant or conversion took effect, immediate or after a
          wait; [mode] is the mode now held. Re-acquiring at a rank
          already held is a no-op and emits nothing. *)
  | Ev_cancelled of { txn : int }  (** a queued waiter was cancelled *)
  | Ev_released of { txn : int }   (** [release_all] dropped its grants *)
  | Ev_suspected of { txn : int }
      (** a section 6.4 lease break suspected the holder deadlocked;
          emitted synchronously {e before} the abort callback runs, so
          the waits-for graph still shows the contention that caused
          the break *)

type Rhodos_sim.Sim.mon_event += Lock_event of { lm : t; ev : event }
(** [ev] as emitted by [lm]; a consumer attached to one manager
    ignores the others sharing the world. *)

val sim : t -> Rhodos_sim.Sim.t
(** The world whose stream carries this manager's events. *)

val active_grants : t -> (int * item * mode) list
(** Snapshot of every active grant as [(txn, item, mode)], across the
    three tables — the sanitizer's Table 1 compatibility check reads
    this on each [Ev_granted]. Does not register as cell accesses. *)

val waits_for_edges : t -> (int * int) list
(** Snapshot of the waits-for relation as [(waiter, blocker)] pairs:
    a waiter waits for every other transaction holding a conflicting
    grant and for every transaction queued ahead of it in the same
    table (wakeups are strictly FIFO, so head-of-line blocking is real
    waiting). Sorted, duplicate-free. A cycle in this relation is a
    true deadlock; a section 6.4 break with no cycle through the
    suspected transaction is one of the paper's admitted false
    aborts. *)
