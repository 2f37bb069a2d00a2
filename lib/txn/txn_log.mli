(** The intentions list (paper sections 6.6-6.7), persisted on stable
    storage.

    An append-only log of fixed-framing records living in a
    pre-allocated fragment region of one disk service, written with
    [put_block ~dest:Original_and_stable] (or plain [Original] when
    the disk has no mirror pair). Records:

    - [Write]: a WAL intention — the tentative bytes for a byte range
      of a file ("the wal technique does not change the sequence of
      disk blocks which stores the file's data");
    - [Shadow]: a shadow-page intention — the descriptor swap to
      perform, pointing a logical block at an already-written shadow
      block. The data itself is NOT logged: the shadow block was
      written directly, which is exactly why "the shadow page
      technique requires lesser I/O overhead";
    - [Commit]: the intention flag flip — everything before it for
      this transaction must be applied;
    - [Done]: all intentions of the transaction have been made
      permanent ("after making the changes permanent the records from
      the intentions list are deleted").

    A commit costs one forced put: a transaction's intentions and its
    [Commit] go to disk together ([append]), so intentions without a
    [Commit] can only be a torn put. Its [Done] is staged in the
    in-memory image ([stage_done]) and reaches disk with the next put,
    or is erased by the next [checkpoint]; the log keeps room for it
    from the [append] on, so it is never dropped. Every put writes all bytes
    from the durable watermark up to the cursor it captured, so a
    durable [Commit] implies that every [Done] staged before it is
    durable too. A transaction stages its [Done] before releasing its
    locks, so the transactions a recovery redoes never conflict.

    Recovery ([scan]) returns the parsed records; the transaction
    service redoes committed-but-not-done transactions (both intention
    kinds are idempotent) and discards the rest. A live commit never
    reads the log back: it applies the records it appended itself.

    The paper's operations get-intention / set-intention /
    remove-intention map to [scan] / [append] / [checkpoint]. *)

type t

type record =
  | Write of { txn : int; file : int; off : int; data : bytes }
  | Shadow of {
      txn : int;
      file : int;
      block_index : int;
      shadow_disk : int;
      shadow_frag : int;
    }
  | Commit of { txn : int }
  | Done of { txn : int }

exception Log_full

val create : Rhodos_block.Block_service.t -> fragments:int -> t
(** Allocate a [fragments]-sized log region on the disk service (own
    the space for the service's lifetime). *)

val attach : Rhodos_block.Block_service.t -> region:int -> fragments:int -> t
(** Re-adopt an existing log region after a crash (the region address
    is recorded by the transaction service's superblock or, in tests,
    remembered by the caller). With stable storage the log is its
    stable copy, read one chunk of
    [Rhodos_stable.Stable_store.chunk_pages] fragments per reference
    pair up to the chunk that holds its terminator; only a chunk whose
    stable copies a device fault took is read from main storage.
    Without, the whole region is read from main storage. *)

val region : t -> int
(** First fragment of the log region. *)

val fragments : t -> int

val append : t -> record list -> unit
(** Persist records (set-intention) in one put; a committing
    transaction passes its intentions followed by its [Commit]. The
    put also carries every record staged or appended before them.
    Durable when the call returns. Puts are serialized, one in flight
    per log: a caller that finds one in flight waits for it, and
    returns without a put of its own if that put covered its records
    (group commit). From here on the log keeps room for the caller's
    [Done], so [stage_done] never runs out of room.
    @raise Log_full before encoding anything when the region cannot
    hold them and a [Done] — callers should [checkpoint] when
    [used_bytes] approaches capacity. *)

val stage_done : t -> txn:int -> unit
(** Write [Done] into the in-memory image only, in the room [append]
    kept for it; it reaches disk with the next put. Call once per
    [append]. *)

val flush : t -> unit
(** Put whatever is staged, unless a put already covers it; returns at
    once when nothing is staged. *)

val scan : t -> record list
(** All records currently in the log, oldest first, stopping at the
    first invalid frame (get-intention, used for recovery). *)

val checkpoint : t -> unit
(** Discard all records (remove-intention): resets the log head, and
    erases every staged [Done] with the rest. It runs under the same
    writer as the puts. Callers must only do this when no transaction
    is between [append] and [stage_done]. *)

val used_bytes : t -> int

val capacity_bytes : t -> int
