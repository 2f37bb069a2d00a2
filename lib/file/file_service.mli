(** The RHODOS basic file service (paper section 5).

    A flat file service: files are uninterpreted byte sequences named
    by {e system identifiers}; all structure (directories, attributed
    names) lives in the naming service. Files are mutable, like NFS
    and LOCUS and unlike Amoeba's immutable Bullet files.

    Key properties reproduced from the paper:

    - the {b file index table} is created dynamically, contiguous with
      the file's first data block ("eliminating the seek time to
      retrieve the first data block"); layout changes are written through
      to stable storage when the disk service has a mirror pair;
    - every block descriptor carries the two-byte contiguity {b count},
      and reads/writes of physically contiguous runs are issued as one
      [get_block]/[put_block] — so a file up to half a megabyte that
      was allocated contiguously costs {e two} disk references to read
      cold: one for the FIT, one for the data;
    - a file's blocks may be {b partitioned over several disks}
      (placement policies below), and transfers to distinct disks
      proceed in parallel;
    - the service keeps a {b block cache} whose modification policy is
      configurable: write-through (safe, the default, used for
      transaction-related data) or delayed-write (the paper's policy
      for basic files cached by agents).

    The service is "nearly stateless": everything durable lives in the
    FITs; a freshly created service over the same attached disks sees
    the same files. Open/close only count references, in memory.

    All operations must run inside a [Sim] process. *)

type t

type file_id
(** A system identifier; encodes the home disk and FIT location, so
    no extra mapping table is needed. *)

val id_to_int : file_id -> int
val id_of_int : int -> file_id
val pp_id : Format.formatter -> file_id -> unit

exception File_not_found of int
exception File_busy of int
(** Deleting a file whose reference count is non-zero. *)

type placement =
  | Fill_first     (** extend on the home disk while space lasts *)
  | Round_robin    (** each new extent goes to the next disk *)
  | Striped of { stripe_blocks : int }
      (** fixed-size stripes rotated across all disks *)

type data_policy = Write_through | Delayed_write of { flush_interval_ms : float }

type config = {
  placement : placement;
  data_policy : data_policy;
  data_cache_blocks : int;     (** capacity of the service block cache *)
  fit_cache_entries : int;
      (** capacity of the FIT cache (the paper's fragment pool for
          structural information); layout changes are written
          through, so eviction is free *)
  exploit_contiguity : bool;
      (** use the FIT count field to transfer whole runs in one disk
          reference; [false] degrades to per-block transfers (the
          ablation measured by experiment E3) *)
}

val default_config : config
(** Fill-first, write-through, 128-block cache, 256 cached FITs,
    contiguity on. *)

val create :
  ?name:string ->
  ?config:config ->
  ?tracer:Rhodos_obs.Trace.t ->
  disks:Rhodos_block.Block_service.t array ->
  unit ->
  t
(** A file service over one or more formatted/attached disk
    services. [tracer] wraps [pread]/[pwrite] and cold FIT loads in
    ["file_service"] spans; free when no subscriber is attached. *)

val name : t -> string

val sim : t -> Rhodos_sim.Sim.t

val disk_count : t -> int

val block_service : t -> int -> Rhodos_block.Block_service.t

(** {1 File operations (paper's list)} *)

val create_file :
  ?service_type:Fit.service_type ->
  ?locking_level:Fit.locking_level ->
  ?home_disk:int ->
  t ->
  file_id
(** Allocate a FIT and, contiguously, the file's first data block.
    Defaults: [Basic], [Page_level], home disk 0. *)

val open_file : t -> file_id -> unit
(** Increment the reference count (in memory only). @raise File_not_found. *)

val close_file : t -> file_id -> unit
(** Decrement the reference count (in memory only) and flush this
    file's dirty cached blocks. *)

val delete : t -> file_id -> unit
(** Free all data blocks, indirect blocks and the FIT.
    @raise File_busy if the file is open. *)

val pread : t -> file_id -> off:int -> len:int -> bytes
(** Read up to [len] bytes at [off]; short at end-of-file. Contiguous
    runs are fetched in single disk references; extents on different
    disks are fetched in parallel. The result is a fresh buffer owned
    by the caller, never a block of the data cache. *)

val pwrite : t -> file_id -> off:int -> bytes -> unit
(** Write at [off], extending (and zero-filling any gap) as needed;
    the FIT is stored only if the file grows or gains blocks.
    @raise Rhodos_block.Block_service.No_space if the disks are full. *)

val get_attributes : t -> file_id -> Fit.t
(** A snapshot copy of the file's index-table attributes and runs. *)

val file_size : t -> file_id -> int

val truncate : t -> file_id -> int -> unit
(** Shrink (freeing now-unused blocks, keeping at least the first) or
    grow (zero-filled) to the given size. *)

val set_service_type : t -> file_id -> Fit.service_type -> unit

val set_locking_level : t -> file_id -> Fit.locking_level -> unit

(** {1 Transaction-service hooks} *)

val block_location : t -> file_id -> block_index:int -> (int * int) option
(** Physical (disk, fragment) of the file's [block_index]-th logical
    block, if allocated. *)

val replace_block : t -> file_id -> block_index:int -> disk:int -> frag:int -> unit
(** The shadow-page descriptor swap (paper section 6.7): point the
    FIT's logical block at the already-written shadow block
    [(disk, frag)] and free the original. The original is free on
    disk before the FIT is stored ([Block_service.retire]) and free in
    memory after; if it is free already (a redo after a crash), it is
    left alone. Splits the containing run, so it destroys contiguity —
    exactly the cost the paper attributes to shadow paging. The caller
    owns the shadow block (allocated via the block service) until this
    call, which transfers it to the file. *)

(** {1 Introspection} *)

val file_runs : t -> file_id -> Fit.run list

val extent_count : t -> file_id -> int
(** Physical extents; 1 means perfectly contiguous. *)

val flush : t -> unit
(** Write back all dirty cached data and FITs. *)

val drop_caches : t -> unit
(** Flush, then empty the data cache, the FIT cache and the disk
    services' track caches (open counts too) — for cold-read runs. *)

val crash : t -> int
(** Lose all volatile state without writeback (dirty cached blocks,
    open counts, unstored timestamps); returns the number of dirty
    data blocks lost. Every file's layout survives on disk. *)

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["fit_loads"], ["fit_stores"], ["extent_reads"],
    ["extent_writes"], ["parallel_fetches"]. Cache counters live in
    the data cache; see [cache_stats]. *)

val cache_stats : t -> Rhodos_util.Stats.Counter.t

val cached_fits : t -> int
(** FIT-cache occupancy (bounded by [config.fit_cache_entries] except
    for pinned/open entries). *)
