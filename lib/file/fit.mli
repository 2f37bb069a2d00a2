(** The file index table (paper section 5) — on-disk codec.

    One FIT occupies a single 2 KiB fragment. It records the
    file-specific attributes the paper lists (size, creation date,
    last read access, reference count, service type, locking level,
    extra attribute space) and a table of {e block descriptors}, each
    carrying "a two byte count to indicate the number of contiguous
    successive disk blocks" — the field that lets a whole contiguous
    run be fetched with one [get_block].

    A descriptor also names the disk holding the run, so "a file can
    be partitioned and therefore its contents can reside on more than
    one disk" (section 7).

    The FIT holds up to 64 direct run descriptors (with contiguous
    allocation that alone covers far more than the paper's half
    megabyte) and up to 16 references to {e indirect blocks}, each an
    8 KiB block holding up to 1024 further run descriptors — enough
    that file size is limited by disk space, not metadata. *)

type run = { disk : int; frag : int; blocks : int }
(** [blocks] successive 8 KiB blocks starting at fragment address
    [frag] of disk [disk]. *)

type service_type = Basic | Transaction

type locking_level = Record_level | Page_level | File_level

type t = {
  mutable size : int;            (** file size in bytes *)
  created_at : float;
  mutable last_read : float;
  mutable last_write : float;
  mutable ref_count : int;
      (** [last_read], [last_write] and [ref_count] live in memory and
          reach disk only with the next layout store or a flush; a FIT
          read from disk starts with [ref_count = 0]. *)
  mutable service_type : service_type;
  mutable locking_level : locking_level;
  mutable runs : run list;       (** all runs, in file order *)
  mutable indirect : (int * int) list;
      (** (disk, frag) of each allocated indirect block, in order *)
}

val max_direct_runs : int
(** 64. *)

val max_indirect_blocks : int
(** 16. *)

val runs_per_indirect : int
(** 1024. *)

val max_runs : t -> int

val fresh : now:float -> service_type -> locking_level -> t

val total_blocks : t -> int
(** Sum of run lengths. *)

val run_count : t -> int

val direct_runs : t -> run list
(** The first [max_direct_runs] runs (stored in the FIT fragment
    itself). *)

val overflow_runs : t -> run list list
(** Remaining runs chunked per indirect block. *)

val indirect_blocks_needed : t -> int

(** {1 Codec} *)

exception Corrupt of string

val encode : t -> bytes
(** 2048 bytes: attributes + direct runs + indirect references. The
    overflow runs are NOT here — encode them with
    [encode_indirect]. *)

val decode : bytes -> t
(** Decodes attributes, direct runs and indirect references; the
    caller appends overflow runs decoded from the indirect blocks.
    @raise Corrupt on bad magic. *)

val encode_indirect : run list -> bytes
(** 8192 bytes holding up to [runs_per_indirect] descriptors. *)

val decode_indirect : bytes -> run list

(** {1 Run arithmetic} *)

val locate : t -> block_index:int -> run option
(** The run containing the file's [block_index]-th logical block
    (0-based), with [frag] adjusted to that block's address and
    [blocks] the number of successive blocks available from there to
    the end of the run — i.e. how much one [get_block] can fetch. *)

val append_blocks : t -> disk:int -> frag:int -> blocks:int -> unit
(** Extend the file: merges with the final run when physically
    adjacent on the same disk (the contiguity optimisation), else
    appends a new descriptor.
    @raise Corrupt if the run table is full. *)

val extent_count : t -> int
(** Number of physically discontiguous extents — the contiguity
    metric used by experiment E7. *)
