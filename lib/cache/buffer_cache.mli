(** The RHODOS caching module (paper section 5).

    A buffer pool of fixed-size buffers with LRU replacement and a
    configurable modification policy. Recency and the victim choice
    live in {!Rhodos_util.Lru}; the pool adds its capacity rule (make
    room before an insert, skip buffers mid-flush) and writes a dirty
    victim back before dropping it:

    - {b write-through}: a [write] persists immediately via the
      write-back function (the file service uses this for
      transaction-related data);
    - {b delayed-write}: dirty buffers are written back by a periodic
      flusher, on eviction, or on explicit [flush] (the file agent and
      the file service use this for basic-file data).

    The paper sizes its fragment-pool and block-pool "on the basis of
    the amount of main memory available"; here the capacity is given
    in buffers. One cache instance is one pool, so a service holding a
    fragment pool and a block pool owns two instances.

    Keys are polymorphic (the file agent keys by (file, block index),
    the file service by fragment address). All operations must run
    inside a [Sim] process; [create] itself may be called anywhere. *)

type policy =
  | Write_through
  | Delayed_write of { flush_interval_ms : float }
      (** a background flusher writes all dirty buffers back every
          interval; [0.] disables the periodic flusher (writeback then
          happens only on eviction and explicit flush) *)

type 'k t

val create :
  ?name:string ->
  ?writeback_batch:(('k * bytes * (unit -> unit)) list -> unit) ->
  ?on_evict:('k -> unit) ->
  sim:Rhodos_sim.Sim.t ->
  capacity:int ->
  policy:policy ->
  writeback:('k -> bytes -> unit) ->
  unit ->
  'k t
(** [writeback] persists one dirty buffer; it runs inside a [Sim]
    process and may block (e.g. calling the disk service). When
    [writeback_batch] is given, [flush]/[flush_key]/[flush_keys] hand
    it the whole dirty set (oldest first) in one call so the owner can
    coalesce contiguous buffers into range writes; eviction still uses
    the single-buffer [writeback]. Each batch entry carries a
    [written] thunk the writer must invoke just before persisting that
    entry: the buffer is marked clean then, not up front, so a crash
    mid-batch loses only the entries whose thunks never ran (and
    [crash] counts them). [on_evict] is told the key of every buffer
    evicted for capacity (before its writeback, if dirty).

    The pool owns the buffers handed to [insert_clean]/[write];
    callers must not mutate them afterwards.

    Buffers whose bytes are in the hands of a blocking writeback (a
    batch entry not yet persisted, or a single writeback in flight)
    are skipped by eviction: evicting mid-flush persisted the victim's
    current bytes and then let the batch clobber them with its older
    snapshot — a silent lost update. When every candidate is mid-flush
    the pool temporarily exceeds capacity instead.
    @raise Invalid_argument if [capacity <= 0]. *)

val capacity : 'k t -> int

val length : 'k t -> int

val find : 'k t -> 'k -> bytes option
(** Cache lookup; hits refresh LRU recency and are counted. Returns a
    copy of the buffer: mutating it cannot corrupt the pool. *)

val read_into : 'k t -> 'k -> off:int -> len:int -> bytes -> dst_off:int -> bool
(** [read_into t k ~off ~len dst ~dst_off] is [find] for a caller that
    only wants bytes [off, off+len) of the buffer: on a hit they are
    blitted into [dst] at [dst_off] and the result is [true]; on a miss
    [dst] is untouched and the result is [false]. Hits and misses are
    counted and recency refreshed exactly as by [find], and the pool's
    buffer is never exposed, so editing [dst] cannot reach the pool.
    The caller's buffer is then the only copy.
    @raise Invalid_argument if the range is outside the buffer or
    [dst]. *)

val mem : 'k t -> 'k -> bool
(** Pure membership probe: no copy, no LRU touch, no hit/miss
    counting (used by read-ahead to skip already-cached blocks). *)

val insert_clean : 'k t -> 'k -> bytes -> unit
(** Insert data freshly read from below (not dirty). May evict. *)

val write : 'k t -> 'k -> bytes -> unit
(** Insert or update a buffer with new contents. Write-through policy
    persists it immediately; delayed-write marks it dirty. *)

val invalidate : 'k t -> 'k -> unit
(** Drop a buffer without writing it back (even if dirty). *)

val invalidate_all : 'k t -> unit

val flush_key : 'k t -> 'k -> unit
(** Write back the buffer if dirty; keeps it cached. *)

val flush_keys : 'k t -> 'k list -> unit
(** Write back the dirty buffers among [ks] (oldest first), through
    [writeback_batch] when configured, so one file's blocks can go out
    as coalesced range writes. *)

val flush : 'k t -> unit
(** Write back all dirty buffers (oldest first). *)

val dirty_count : 'k t -> int

val dirty_keys : 'k t -> 'k list
(** Keys of the dirty buffers, in polymorphic-compare order (sorted so
    the result is deterministic). Used by the crash-point analysis to
    reconcile the dirty set against durable bytes. *)

val crash : 'k t -> int
(** Volatile memory is lost: drop everything without writeback and
    return the number of dirty buffers that were lost — the
    delayed-write data-loss window measured by experiment E12. *)

val stop : 'k t -> unit
(** Stop the periodic flusher process, if any. *)

val stats : 'k t -> Rhodos_util.Stats.Counter.t
(** Counters: ["hits"], ["misses"], ["writes"], ["writebacks"],
    ["evictions"], ["dirty_evictions"], ["lost_dirty"],
    ["batch_flushes"] (calls into [writeback_batch]). *)

(** {2 Instrumentation} *)

type Rhodos_sim.Sim.mon_event +=
  | Batch_written : { cache : 'k t; key : 'k; stale : bool }
      -> Rhodos_sim.Sim.mon_event
      (** Published on the world's stream when a batch entry's
          [written] thunk runs: [key] is about to be persisted by
          [cache]. [stale]: the buffer is no longer the pool's buffer
          for [key] (invalidated or replaced mid-batch), so the
          snapshot can clobber newer durable bytes. *)

val same : 'k t -> 'j t -> ('k, 'j) Type.eq option
(** [Some Equal] iff both are the same cache (a [Type.Id] witness):
    how a consumer attached to one cache recognises its own
    {!Batch_written} events and reads their key. *)
