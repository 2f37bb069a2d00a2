(** The RHODOS file agent (paper section 3).

    One per client machine: "all client processes acquire the services
    of the distributed file facility through special processes known
    as a file agent". It

    - resolves attributed names through the naming service (with a
      client-side name cache),
    - hands out {e object descriptors} — always greater than 100 000,
      so descriptor values distinguish files from devices; 100 001 to
      100 003 are reserved for standard-stream redirection,
    - keeps per-descriptor state (the seek pointer for [read]/[write]/
      [lseek], the file's system name and cached size), making the
      remote file service "nearly stateless",
    - caches "a substantial amount of file data to avoid trying to
      access the file service for each request" — a block cache with
      the delayed-write modification policy, exactly the client-cache
      design the paper contrasts with Amoeba's Bullet server.

    Concurrent write sharing of a basic file between different
    machines is NOT kept consistent — the paper is explicit that "no
    effort [is] made to check the consistency ... of processes
    concurrently reading and writing data from/to the same file using
    the semantics of the basic file service". *)

type t

type desc = int

exception Bad_descriptor of int

type config = {
  cache_blocks : int;              (** 0 disables the client cache *)
  flush_interval_ms : float;       (** delayed-write period *)
  name_cache_entries : int;
  fetch_window : int;
      (** max concurrent fetch RPCs in flight (pipelining width);
          clamped to at least 1 *)
  max_fetch_blocks : int;
      (** max contiguous missing blocks coalesced into one range
          fetch; 1 reproduces the old per-block convoy *)
  read_ahead_blocks : int;
      (** cap on the adaptive sequential read-ahead window, in blocks;
          0 disables read-ahead. The per-descriptor window doubles on
          each sequential read (starting at 2) and resets on seek. *)
}

val default_config : config
(** 64 blocks, 1000 ms flush, 32 name-cache entries, fetch window 4,
    64-block coalescing, 16-block read-ahead cap. *)

val block_size : int
(** The agent's cache block size (8 KiB) — also the chunk granularity
    of the streamed range read. *)

val create :
  ?config:config ->
  ?tracer:Rhodos_obs.Trace.t ->
  sim:Rhodos_sim.Sim.t ->
  conn:Service_conn.fs_conn ->
  unit ->
  t
(** [tracer] wraps open/create and the data-path operations in
    ["file_agent"] spans; free when no subscriber is attached. *)

(** {1 The paper's file operations} *)

val create_file : t -> path:string -> desc
(** create + bind the name + open. *)

val open_file : t -> path:string -> desc
(** Resolve the attributed name [("type","FILE"); ("path", path)] and
    open. *)

val close : t -> desc -> unit
(** Flush this file's dirty cached blocks, close at the service, and
    retire the descriptor. *)

val delete : t -> path:string -> unit

val read : t -> desc -> int -> bytes
(** Read at the seek pointer, advancing it; short at EOF. Misses are
    fetched as coalesced range reads pipelined under [fetch_window];
    sequential access widens the adaptive read-ahead window. *)

val write : t -> desc -> bytes -> unit
(** Write at the seek pointer, advancing it. *)

val pread : t -> desc -> off:int -> len:int -> bytes
(** Positional read; does not move the seek pointer. *)

val pwrite : t -> desc -> off:int -> data:bytes -> unit

val lseek : t -> desc -> [ `Set of int | `Cur of int | `End of int ] -> int
(** Returns the new position. *)

val get_attribute : t -> desc -> Rhodos_file.Fit.t

val size : t -> desc -> int

(** {1 Redirection support (used by [Process_env])} *)

val open_redirect : t -> path:string -> slot:[ `Stdout | `Stdin | `Stderr ] -> desc
(** Open (creating if needed) at the reserved descriptor 100001 /
    100002 / 100003. *)

val is_file_descriptor : desc -> bool
(** [d > 100_000], the paper's discrimination rule. *)

(** {1 Maintenance} *)

val invalidate_file : t -> file:int -> unit
(** Drop the cached blocks of one file and refresh its cached size
    from the service. Used when the same machine's transaction agent
    commits changes to a file this agent may have cached ("the design
    of the caching module takes into consideration all the aspects of
    basic file and transaction services"). *)

val flush : t -> unit
(** Write every dirty cached block back to the file service. *)

val crash : t -> int
(** Client machine crash: all descriptors and cached data vanish;
    returns the number of dirty blocks lost. *)

val descriptor_file : t -> desc -> int
(** The system name behind a descriptor (for tests). *)

val open_count : t -> int

val stats : t -> Rhodos_util.Stats.Counter.t
(** ["reads"], ["writes"], ["remote_reads"], ["remote_writes"], plus
    the data-path counters: ["coalesced_block_reads"] /
    ["coalesced_block_writes"] (blocks saved a dedicated RPC by range
    coalescing), ["prefetch_issued"], ["prefetch_hits"],
    ["prefetch_wasted"] (read-ahead blocks evicted or invalidated
    unused). Cache counters: [cache_stats]. *)

val cache_stats : t -> Rhodos_util.Stats.Counter.t

val buffer_pool : t -> (int * int) Rhodos_cache.Buffer_cache.t
(** The agent's block pool, keyed by (file, block index) — exposed so
    the sanitizer can attach its cache protocol monitor
    ([Sanitizer.attach_cache]). *)

val name_cache_stats : t -> Rhodos_util.Stats.Counter.t
