(** Stable storage (careful mirrored pages).

    The paper requires "the concept of stable storage to maintain
    mirror images of all the vital structural information" (design
    goals, section 2.1) and uses it for the file index table, the
    bitmap and intentions-list records. This is the classic
    Lampson/Sturgis construction: every logical page is stored twice,
    on two independent disks, each copy prefixed by a header sector
    carrying a CRC of the payload and a monotonically increasing
    sequence number.

    - [write] performs a careful write: primary copy first, then the
      mirror. A crash between the two leaves exactly one newer valid
      copy, which [recover] propagates. The copy is encoded and
      checksummed once; both replicas get the same bytes.
    - [read] tries the primary; on media failure or checksum mismatch
      it falls back to the mirror. [read_range] applies the same rule
      to a range, a chunk of pages per reference pair.
    - [recover_range] scans the page pairs of a range and repairs
      decayed or torn copies so that both mirrors agree afterwards;
      the two replicas are read at the same time. A caller that knows
      which pages hold live data scans only those, and sets the
      sequence-number floor itself ([raise_seq_floor]). [recover] is
      the full scan, which the scrubber runs.

    All operations cost simulated disk time and must run inside a
    [Sim] process. *)

type t

exception Unrecoverable_page of int
(** Both copies of the page are unreadable or corrupt. *)

val create :
  primary:Rhodos_disk.Disk.t ->
  primary_sector:int ->
  mirror:Rhodos_disk.Disk.t ->
  mirror_sector:int ->
  page_bytes:int ->
  npages:int ->
  t
(** A store of [npages] pages of [page_bytes] payload each. Each copy
    of a page occupies one header sector plus the payload sectors,
    laid out contiguously from the given start sectors. [page_bytes]
    must be a positive multiple of the disks' sector size (the two
    disks must share a sector size).
    @raise Invalid_argument if the regions do not fit the disks. *)

val npages : t -> int

val page_bytes : t -> int

val sectors_needed : page_bytes:int -> npages:int -> sector_bytes:int -> int
(** Room one replica of such a store needs on its disk. *)

val write : t -> page:int -> bytes -> unit
(** Careful write of a full page (payload must be exactly
    [page_bytes]). *)

val read : t -> page:int -> bytes
(** @raise Unrecoverable_page if neither copy is valid. *)

val is_initialized : t -> page:int -> bool
(** [true] once the page has been written at least once (either copy
    valid). Costs disk reads. *)

type page_repair =
  | Repaired_primary   (** primary was bad/stale, fixed from mirror *)
  | Repaired_mirror    (** mirror was bad/stale, fixed from primary *)
  | Lost               (** both copies bad *)

type recovery_report = {
  pages_scanned : int;
  repairs : (int * page_repair) list;  (** page index, action *)
}

val chunk_pages : int
(** 64: the pages [read_range] and [recover_range] read in one
    reference per replica. *)

val read_range : t -> first:int -> count:int -> bytes
(** The payloads of pages [first, first+count), concatenated. Each
    chunk of [chunk_pages] pages is read as one reference per replica,
    both at once, as [recover_range] reads it. A page reads as its
    valid primary copy, else its valid mirror copy; a page with no
    valid copy and no device fault on either replica was never written
    and reads as zeros.
    @raise Unrecoverable_page for a page with no valid copy and a
    device fault on either replica.
    @raise Invalid_argument if the range is not inside the store. *)

val recover_range : t -> first:int -> count:int -> recovery_report
(** Scan and repair pages [first, first+count). The range is read in
    chunks of [chunk_pages] pages; each chunk's primary and mirror copies are
    read concurrently (the mirror in a spawned process), so a chunk
    costs one replica's read time. Repairs run after the whole range
    is read, in page order. Sequence numbers issued afterwards are
    above every one seen in the range. Never raises on a bad page:
    unrecoverable pages are reported as [Lost].
    @raise Invalid_argument if the range is not inside the store. *)

val recover : t -> recovery_report
(** [recover_range ~first:0 ~count:(npages t)]: scan and repair every
    page. *)

val raise_seq_floor : t -> int64 -> unit
(** Make every sequence number issued from now on at least the given
    floor (never lowers it). A caller that scans only part of the
    store cannot learn the highest sequence number on disk, so a stale
    copy in an unscanned page could outrank a later write to it; a
    floor above every sequence number of earlier lives (e.g. a boot
    count shifted left) restores "newer copy wins". *)

val start_scrubber : interval_ms:float -> t -> Rhodos_sim.Sim.pid * (unit -> int)
(** Background media scrubbing: run [recover] every [interval_ms] so
    silently decayed sectors are repaired from the mirror before the
    second copy can decay too — the standard operational complement to
    mirrored stable storage. Returns the scrubber process (kill it to
    stop) and a counter of repairs performed so far. *)

(** {1 Test hooks} *)

val write_torn : t -> page:int -> bytes -> unit
(** Write only the primary copy — models a crash between the two
    careful writes, for recovery tests. *)
