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
      it falls back to the mirror.
    - [recover] scans every page pair and repairs decayed or torn
      copies so that both mirrors agree afterwards.

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

val recover : t -> recovery_report
(** Scan and repair all pages. Never raises: unrecoverable pages are
    reported as [Lost]. *)

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
