(** The RHODOS transaction service (paper section 6).

    A transaction-oriented file service layered beside the basic file
    service: the same files, but operations carry transaction
    semantics — two-phase locking for concurrency control, an
    intentions list on stable storage for recovery, and a hybrid
    commit that picks write-ahead logging or shadow paging per
    intention.

    Lifecycle: [tbegin] opens a transaction; [topen]/[tcreate] attach
    files; [tread]/[twrite] operate under locks whose granularity
    follows each file's locking level (record / page / file);
    [tend] runs the two commit phases; [tabort] discards everything.
    A transaction suspected deadlocked (its lock lease expired N
    times, or expired while contested — section 6.4) is aborted
    asynchronously: its next operation raises {!Aborted}.

    Writes are buffered as {e tentative data items}, invisible to
    other transactions until commit ("its contents are invisible to
    other transactions"); reads see the transaction's own tentative
    writes overlaid on the committed state.

    Commit (section 6.7): intentions are recorded on the stable
    intentions list, the [Commit] flag is forced, then each intention
    is made permanent — by {b WAL} (in-place write, preserving block
    contiguity) when the affected blocks are contiguous or the file
    uses record-level locking, by {b shadow page} (block already
    written at a fresh location, descriptor swap in the FIT)
    otherwise. The commit applies the intentions it has just logged,
    held in memory; only recovery reads the intentions list back.
    After a crash, [recover_service] redoes committed-but-unDone
    transactions and discards the rest.

    All operations must run inside a [Sim] process. *)

type t

type txn
(** A transaction handle (the paper's transaction descriptor). *)

val txn_id : txn -> int

exception Aborted of { txn : int; reason : string }

exception No_such_transaction of int

type commit_technique = Wal | Shadow_page

type config = {
  lock_config : Lock_manager.config;
  log_fragments : int;        (** size of the intentions-list region *)
  force_technique : commit_technique option;
      (** override the per-intention WAL/shadow choice — the ablation
          of experiment E7; [None] = the paper's hybrid rule *)
}

val default_config : config

val create :
  ?config:config ->
  ?tracer:Rhodos_obs.Trace.t ->
  fs:Rhodos_file.File_service.t ->
  unit ->
  t
(** The intentions-list region is allocated on disk 0 of [fs].
    [tracer] wraps the transaction operations in ["txn_service"]
    spans; free when no subscriber is attached. *)

val log_region : t -> int * int
(** (first fragment, fragment count) of the intentions list on disk 0
    — pass to [recover_service] after a crash. *)

(** {1 Transaction operations (paper's set)} *)

val tbegin : t -> txn

val tcreate :
  ?locking_level:Rhodos_file.Fit.locking_level ->
  t ->
  txn ->
  Rhodos_file.File_service.file_id
(** Create a file under the transaction: aborting undoes the
    creation. The file is created with the [Transaction] service
    type. *)

val topen : t -> txn -> Rhodos_file.File_service.file_id -> unit

val tdelete : t -> txn -> Rhodos_file.File_service.file_id -> unit
(** Deletion intention: takes a file-level Iwrite lock; the actual
    delete happens at commit. *)

val tread :
  ?intent:[ `Query | `Update ] ->
  t ->
  txn ->
  Rhodos_file.File_service.file_id ->
  off:int ->
  len:int ->
  bytes
(** Locked read ([`Query] takes read-only locks, [`Update] takes
    Iread locks so the later [twrite] can convert them); sees the
    transaction's own tentative writes. *)

val twrite :
  t -> txn -> Rhodos_file.File_service.file_id -> off:int -> bytes -> unit
(** Locked tentative write (Iwrite locks). *)

val tget_attribute :
  t -> txn -> Rhodos_file.File_service.file_id -> Rhodos_file.Fit.t

val tclose : t -> txn -> Rhodos_file.File_service.file_id -> unit

val tend : t -> txn -> unit
(** Commit. @raise Aborted if the transaction was suspected
    deadlocked before the commit point. *)

val tabort : t -> txn -> unit
(** Abort and release; idempotent. *)

val shutdown : t -> unit
(** Mark the service dead (its hosting server crashed): every
    lingering timer or background callback becomes a no-op so the old
    instance cannot touch the disks while a recovered instance owns
    them. *)

val active_count : t -> int

val is_active : t -> txn -> bool

(** {1 Recovery} *)

type recovery_report = {
  redone_transactions : int list;   (** committed but not Done: redone *)
  discarded_transactions : int list; (** in flight at the crash *)
}

val recover_service :
  ?config:config ->
  ?tracer:Rhodos_obs.Trace.t ->
  fs:Rhodos_file.File_service.t ->
  log_region:int * int ->
  unit ->
  t * recovery_report
(** Build a fresh service over recovered disks, replaying the
    intentions list: transactions with a [Commit] but no [Done]
    record are redone (idempotently); all others are discarded. *)

(** {1 Adaptive default locking level} *)

val suggest_locking_level :
  t -> Rhodos_file.File_service.file_id -> Rhodos_file.Fit.locking_level
(** The paper's conclusion: "to support [a] default level of locking
    it exploits the knowledge of how frequently a file is used." The
    service tracks how many distinct transactions touched each file
    in the recent window (1 s of simulated time): 3 or more suggests
    record-level locks (updates are small and contended — maximise
    concurrency), 2 suggests page level, otherwise file level
    (fewest locks to manage). *)

val apply_suggested_locking :
  t -> Rhodos_file.File_service.file_id -> Rhodos_file.Fit.locking_level
(** Compute the suggestion and store it in the file's index table as
    the new default. Must not be called while transactions hold locks
    on the file (the paper's one-level-at-a-time assumption). *)

(** {1 Introspection} *)

val lock_manager : t -> Lock_manager.t

val stats : t -> Rhodos_util.Stats.Counter.t
(** Counters: ["begins"], ["commits"], ["aborts"], ["timeout_aborts"],
    ["wal_intentions"], ["shadow_intentions"], ["tentative_reads"],
    ["log_checkpoints"]. *)
