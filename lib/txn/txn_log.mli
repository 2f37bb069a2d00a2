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
      the intentions list are deleted");
    - [Abort]: the transaction's intentions are void.

    Recovery ([scan]) returns the parsed records; the transaction
    service redoes committed-but-not-done transactions (both record
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
  | Abort of { txn : int }

exception Log_full

val create : Rhodos_block.Block_service.t -> fragments:int -> t
(** Allocate a [fragments]-sized log region on the disk service (own
    the space for the service's lifetime). *)

val attach : Rhodos_block.Block_service.t -> region:int -> fragments:int -> t
(** Re-adopt an existing log region after a crash (the region address
    is recorded by the transaction service's superblock or, in tests,
    remembered by the caller). *)

val region : t -> int
(** First fragment of the log region. *)

val fragments : t -> int

val append : t -> record -> unit
(** Persist one record (set-intention). Durable when the call
    returns.
    @raise Log_full when the region cannot hold it — callers should
    [checkpoint] when [used_bytes] approaches capacity. *)

val scan : t -> record list
(** All records currently in the log, oldest first, stopping at the
    first invalid frame (get-intention, used for recovery). *)

val checkpoint : t -> unit
(** Discard all records (remove-intention): resets the log head.
    Callers must only do this when no transaction is between [Commit]
    and [Done]. *)

val used_bytes : t -> int

val capacity_bytes : t -> int
