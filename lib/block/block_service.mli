(** The RHODOS disk service (paper section 4).

    One disk server per disk. Storage is addressed in {e fragments} of
    2 KiB; four contiguous fragments make one 8 KiB {e block}.
    Fragments hold small structural information (file index tables,
    directories); blocks hold file data.

    The server maintains:

    - a {b bitmap} of the disk (one bit per fragment), mirrored to
      stable storage so that free-space information survives crashes;
    - the {b 64x64 free-extent array}: row [r] caches references to
      free extents of exactly [r+1] contiguous fragments (the last row
      also holds longer runs). It is maintained incrementally and can
      always be rebuilt by scanning the bitmap, which is the ground
      truth;
    - a {b track cache}: a read that misses fetches the whole
      track(s) containing the request in one disk reference and keeps
      them, so later reads from the same track are served from
      memory — the paper's "caches the rest of the data from the same
      track". Track reads are single-flight: a miss whose tracks are
      all cached or already being read waits for those reads instead
      of queueing another reference. A read that a write overtakes
      does not cache the bytes from before the write.

    The service functions are the paper's five:
    [allocate_block], [free_block], [get_block], [put_block],
    [flush_block] — plus [format]/[attach] for initialisation and
    crash recovery. Any operation on a set of contiguous
    fragments/blocks costs one single disk reference.

    All operations must run inside a [Sim] process. *)

val fragment_bytes : int
(** 2048. *)

val block_bytes : int
(** 8192. *)

val fragments_per_block : int
(** 4. *)

type t

exception No_space of { wanted_fragments : int; free_fragments : int }

exception Not_formatted of string

(** Where [put_block] writes (paper: syntax of put-block). *)
type dest =
  | Original              (** main storage only (default) *)
  | Stable_only           (** exclusively stable storage — shadow pages *)
  | Original_and_stable   (** both — e.g. the file index table *)

(** Whether a stable write blocks the caller (paper: "whether call
    should be returned before saving the data on stable storage or
    after"). *)
type wait = Wait_stable | Return_early

(** Where [get_block] reads from. *)
type source = Main | Stable

type config = {
  track_cache_tracks : int;
      (** capacity of the track cache; 0 disables it. When on, a miss
          reads the whole track(s) in the same disk reference and
          caches them — the paper's "caches the rest of the data from
          the same track" *)
  bitmap_write_through : bool;
      (** persist the bitmap to stable storage on every allocate/free
          (otherwise only on [sync]) *)
}

val default_config : config

val create :
  ?name:string ->
  ?config:config ->
  ?tracer:Rhodos_obs.Trace.t ->
  disk:Rhodos_disk.Disk.t ->
  ?stable:Rhodos_disk.Disk.t * Rhodos_disk.Disk.t ->
  unit ->
  t
(** A disk server for [disk]. When [stable] supplies a mirror pair,
    every fragment address also has a stable-storage slot (full
    mirror), enabling [Stable_only] / [Original_and_stable] writes and
    crash-proof metadata. Call [format] (new disk) or [attach]
    (existing disk) before anything else. [tracer] wraps [get_block] /
    [put_block] in ["block_service"] spans; free when no subscriber is
    attached. *)

val format : t -> unit
(** Initialise the on-disk structures: superblock, empty bitmap with
    the metadata region marked allocated, extent array. *)

val attach : t -> unit
(** Re-open a formatted disk after a crash: read the superblock,
    restore the bitmap (stable copy preferred, main copy as fallback),
    run stable-storage recovery, rebuild the extent array by scanning
    the bitmap.
    @raise Not_formatted if the disk has no valid superblock. *)

val name : t -> string

val disk : t -> Rhodos_disk.Disk.t

val sim : t -> Rhodos_sim.Sim.t

val has_stable : t -> bool

val total_fragments : t -> int

val data_fragments : t -> int
(** Fragments available for allocation (total minus metadata). *)

val free_fragments : t -> int

(** {1 Allocation} *)

val allocate : t -> fragments:int -> int
(** [allocate t ~fragments] finds [fragments] contiguous free
    fragments, marks them allocated and returns the address of the
    first. Exact-fit extents are preferred, then the smallest
    sufficient extent is split; the bitmap is scanned only when the
    extent array has no answer.
    @raise No_space when no contiguous run exists. *)

val allocate_block : t -> blocks:int -> int
(** [allocate t ~fragments:(4 * blocks)]. *)

val allocate_near : t -> hint:int -> fragments:int -> int
(** Like [allocate] but prefers the free extent closest to [hint] —
    used to place a file index table next to its first data block. *)

val allocate_at : t -> pos:int -> fragments:int -> bool
(** Claim exactly [pos, pos+fragments) if it is entirely free;
    [false] otherwise. Used by the file service to extend a file's
    last run in place, preserving contiguity. *)

val free : t -> pos:int -> fragments:int -> unit
(** Return a run to the free pool, coalescing with free neighbours.
    @raise Invalid_argument if any fragment in the run is already
    free or in the metadata region. *)

val free_block : t -> pos:int -> blocks:int -> unit

(** {1 Data transfer} *)

val get_block : ?source:source -> t -> pos:int -> fragments:int -> bytes
(** Read contiguous fragments in one disk reference (or from the
    track cache). [source = Stable] reads the stable copy. *)

val put_block : ?dest:dest -> ?wait:wait -> t -> pos:int -> bytes -> unit
(** Write contiguous fragments (length must be a positive multiple of
    the fragment size) in one disk reference. [wait] only matters for
    destinations involving stable storage; with [Return_early] the
    stable write completes in the background. *)

val flush_block : t -> pos:int -> fragments:int -> unit
(** Drop any cached tracks overlapping the run, and any track reads in
    flight for them, forcing the next read to hit the disk. *)

val sync : t -> unit
(** Persist the bitmap (main copy and, if configured, stable copy) and
    wait for outstanding background stable writes. *)

(** {1 Introspection (tests and benchmarks)} *)

val extent_array_entries : t -> (int * int) list
(** All (position, length) extents currently cached in the 64x64
    array. *)

val rebuild_extent_array : t -> unit
(** Rebuild the array by scanning the bitmap (the paper's
    initialisation path). *)

val extent_array_consistent : t -> bool
(** Every cached extent is genuinely free in the bitmap and maximal
    entries do not overlap. *)

val is_free : t -> pos:int -> fragments:int -> bool

val bitmap_snapshot : t -> Rhodos_util.Bitset.t
(** A copy of the current allocation bitmap (bit set = allocated).
    For integrity checking (fsck). *)

val metadata_fragments : t -> int
(** Fragments reserved for the superblock and bitmap at the start of
    the disk. *)

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["foreground_refs"], ["prefetch_sectors"],
    ["cache_hits"], ["cache_misses"], ["track_joins"] (misses served
    by a track read already in flight; also counted in
    ["cache_misses"]), ["allocs"], ["frees"], ["bitmap_fallbacks"],
    ["extent_hits"], ["stable_writes"]. *)

val reset_stats : t -> unit
