(** Race and protocol sanitizers over the deterministic simulator.

    An always-available dynamic-analysis layer: [create] subscribes to
    the world's observation stream ({!Rhodos_sim.Sim.subscribe}) and
    from then on every cross-process interaction — spawn, wakeup,
    mailbox send/receive, ivar fill/read, semaphore acquire/release,
    instrumented {!Rhodos_sim.Sim.Cell} access — feeds a race pass plus
    a set of protocol monitors:

    - {b happens-before (vector clocks)}: each process carries a
      {!Vclock.t}, ticked on its own events and joined across every
      synchronization edge (including lock grant/release once a lock
      manager is attached). Two accesses to the same [Data] cell from
      different processes, at least one a write, whose clocks are
      incomparable, are a data race ([v_kind = "data-race"]). Cells
      with the [Sync] role (lock tables, dedup maps, cache pools:
      lock-free by design in the cooperative simulator) are exempt;
      the protocol monitors cover them.
    - {b protocol monitors}, firing mid-run: Table 1 lock-mode
      compatibility on every grant ([{v "table1" v}]), grants after
      [release_all] ([{v "2pl" v}]), re-grant at a rank already held
      ([{v "double-acquire" v}]), release with nothing held
      ([{v "release-without-hold" v}]), ivar double fill
      ([{v "ivar-double-fill" v}]) and buffer-cache writeback of an
      evicted/replaced buffer ([{v "use-after-evict" v}]).

    Violations deduplicate per (object, kind): a racy cell hammered in
    a loop yields one report, not thousands. Emission never schedules
    simulator events, so an attached sanitizer leaves [Sim.run_digest]
    unchanged — and with nobody subscribed the instrumentation is one
    match on the empty subscriber list per touch point. *)

type access = {
  acc_time : float;
  acc_proc : int;
  acc_proc_name : string;
  acc_cell : int;
  acc_cell_name : string;
  acc_write : bool;
  acc_clock : Vclock.t;
      (** the process clock at the access (after its own tick) *)
  acc_locks : string list;
      (** items held (via bound transactions) at the access, as
          {!Rhodos_txn.Lock_manager.item_to_string}; sorted *)
  acc_span : (int * int) option;
      (** (trace id, span id) of the enclosing span, when a tracer was
          given and a span was open — ties the report to the obs
          timeline *)
}
(** One recorded access to a [Data]-role cell. *)

type violation = { v_kind : string; v_detail : string; v_time : float }
(** [v_kind] is one of ["data-race"], ["table1"],
    ["2pl"], ["double-acquire"], ["release-without-hold"],
    ["ivar-double-fill"], ["use-after-evict"]. *)

type t

val create : ?tracer:Rhodos_obs.Trace.t -> Rhodos_sim.Sim.t -> t
(** Subscribe a sanitizer to the world's stream; other subscribers
    coexist with it. Create it before the structures it should
    observe, so cells register their names. *)

val attach_lock_manager : t -> Rhodos_txn.Lock_manager.t -> unit
(** Follow this lock manager's events (not other managers'):
    grants/releases become happens-before edges (the item's clock is
    joined into the grantee, the releaser's clock into its items), race
    reports name the items each side held, and the Table 1 / 2PL /
    double-acquire / release-without-hold monitors arm. Transactions are bound to the
    process that first blocks on or is immediately granted a lock
    (grants pumped by a releaser are attributed through that
    binding). *)

val attach_cache :
  t ->
  name:string ->
  key_to_string:('k -> string) ->
  'k Rhodos_cache.Buffer_cache.t ->
  unit
(** Arm the buffer-cache protocol monitor for this cache: a batch
    writeback entry persisting a buffer that was evicted or replaced
    mid-batch reports ["use-after-evict"]. *)

val feed_lock_event : t -> Rhodos_txn.Lock_manager.event -> unit
(** Drive the lock-protocol monitors with a synthetic event stream —
    the unit tests use this to exercise violations the real lock
    manager refuses to produce. Table 1 is checked against the
    sanitizer's own grant bookkeeping on this path (against
    [active_grants] on the {!attach_lock_manager} path). *)

val violations : t -> violation list
(** In emission order. *)

val accesses : t -> access list
(** Every recorded [Data]-cell access, in program order — the qcheck
    happens-before property reads the clocks off this. *)

val events_seen : t -> int
(** Simulator-primitive events (not dispatches, lock or cache events)
    processed since [create] — the host-side work the sanitizer
    performed (clock ticks, joins, bookkeeping). The A5 overhead
    ablation reports this against the dispatch count; it is not part
    of any violation logic. *)

val detach : t -> unit
(** Remove this sanitizer's subscription only. Recorded violations
    and accesses survive. *)
