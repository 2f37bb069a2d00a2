(** The RHODOS distributed file facility, assembled (paper Fig. 1).

    A cluster is one simulated distributed system:

    - a {b server node} carrying the disks, their disk (block)
      services with stable-storage mirror pairs, the basic file
      service, the transaction service, the naming service and
      optionally a replication group;
    - any number of {b client nodes}, each with its device agent, file
      agent and (dynamic) transaction agent, talking to the server
      either by direct calls (co-located, [remote = false]) or through
      the simulated network's idempotent RPC ([remote = true]);
    - fault injection at every level: crash a client (volatile caches
      lost), crash the server (all service state lost; recover with
      [recover_server]), decay disk sectors, lose/duplicate messages.

    This is the layer examples and benchmarks program against. *)

type t

type client

type config = {
  nservers : int;
      (** file servers; files and transactions are placed round-robin,
          each object managed by exactly one server (the first of the
          paper's three location steps: "locate the file service which
          manages the file") *)
  ndisks : int;                     (** disks per server *)
  disk_capacity_bytes : int;
  with_stable : bool;               (** mirror pairs for every disk *)
  remote : bool;                    (** services behind RPC *)
  placement : Rhodos_file.File_service.placement;
  fs_data_policy : Rhodos_file.File_service.data_policy;
  client_cache_blocks : int;        (** 0 = no client caching (Bullet-style) *)
  client_flush_interval_ms : float;
  client_fetch_window : int;
      (** max concurrent fetch RPCs per file agent (pipelining) *)
  client_max_fetch_blocks : int;
      (** blocks coalesced into one range fetch; 1 = per-block convoy *)
  client_read_ahead_blocks : int;
      (** adaptive sequential read-ahead cap, in blocks; 0 = off *)
  lock_config : Rhodos_txn.Lock_manager.config;
  net_latency_ms : float;
  net_bandwidth_bytes_per_ms : float;
  seed : int;
}

val default_config : config
(** 1 disk x 32 MiB with stable mirrors, remote services, fill-first
    placement, write-through at the service, 64-block client cache
    (fetch window 4, 64-block coalescing, 16-block read-ahead cap),
    0.5 ms / 1000 B-per-ms LAN. *)

val create : ?config:config -> Rhodos_sim.Sim.t -> t

val run :
  ?config:config ->
  (Rhodos_sim.Sim.t -> t -> 'a) ->
  'a
(** Create a simulation (default [Fifo] tie-breaking) and a cluster,
    run the function inside a simulated process, drive the simulation
    to completion and return the result. *)

(** {1 Components (Fig. 1 layers)} *)

val sim : t -> Rhodos_sim.Sim.t
val net : t -> Rhodos_net.Net.t

val tracer : t -> Rhodos_obs.Trace.t
(** The cluster-wide span tracer. Every layer (agents, RPC, services,
    block services, disks) is wired to it; attach a subscriber — e.g.
    [Rhodos_obs.Trace.collect] — to record spans. With no subscriber
    tracing costs nothing and the simulation is bit-identical to an
    untraced run. *)

val metrics : t -> Rhodos_obs.Metrics.t
(** The unified metrics registry. Per-node sources for every disk,
    block service, file service, transaction service, lock manager,
    the network and each client's agent caches are pre-registered;
    [Rhodos_obs.Metrics.snapshot] flattens them all. *)

val server_count : t -> int

val server_node : t -> Rhodos_net.Net.node
(** Server 0 (also the naming server). *)

val server_node_of : t -> int -> Rhodos_net.Net.node
val naming : t -> Rhodos_naming.Name_service.t

val file_service : t -> Rhodos_file.File_service.t
(** Server 0's basic file service. *)

val file_service_of : t -> int -> Rhodos_file.File_service.t
val txn_service : t -> Rhodos_txn.Txn_service.t
val txn_service_of : t -> int -> Rhodos_txn.Txn_service.t

val block_services : t -> Rhodos_block.Block_service.t array
(** Server 0's disk services. *)

val disks : t -> Rhodos_disk.Disk.t array
(** Every disk of every server, server-major. *)

(** {1 Clients} *)

val add_client : t -> name:string -> client

val client_name : client -> string
val client_node : client -> Rhodos_net.Net.node
val env : client -> Rhodos_agent.Process_env.t
val file_agent : client -> Rhodos_agent.File_agent.t
val device_agent : client -> Rhodos_agent.Device_agent.t
val transaction_agent : client -> Rhodos_agent.Transaction_agent.t
val fs_conn : client -> Rhodos_agent.Service_conn.fs_conn
(** The raw connection (bypasses the agent cache) — what a
    Bullet-style uncached client uses. *)

(** {1 Convenience file API (through the client's agents)} *)

val mkdir : client -> string -> unit
val create_file : client -> string -> Rhodos_agent.File_agent.desc
val open_file : client -> string -> Rhodos_agent.File_agent.desc
val write : client -> Rhodos_agent.File_agent.desc -> bytes -> unit
val read : client -> Rhodos_agent.File_agent.desc -> int -> bytes
val pwrite : client -> Rhodos_agent.File_agent.desc -> off:int -> data:bytes -> unit
val pread : client -> Rhodos_agent.File_agent.desc -> off:int -> len:int -> bytes
val lseek :
  client -> Rhodos_agent.File_agent.desc -> [ `Set of int | `Cur of int | `End of int ] -> int
val close : client -> Rhodos_agent.File_agent.desc -> unit
val delete : client -> string -> unit

val with_transaction :
  client -> (Rhodos_agent.Transaction_agent.t -> Rhodos_agent.Transaction_agent.tdesc -> 'a) -> 'a
(** Run under a transaction: commits on return, aborts on
    exception. Re-raises [Txn_service.Aborted] to the caller. *)

(** {1 Fault injection and recovery} *)

val crash_client : t -> client -> int
(** Kill the client's processes and lose its agent caches; returns
    dirty blocks lost. The client object remains usable (reboot). *)

val crash_server : t -> int
(** Kill every server's processes, lose all service caches and
    volatile state. Returns dirty blocks lost. Call
    [recover_server]. *)

val recover_server : t -> Rhodos_txn.Txn_service.recovery_report
(** Re-attach the disks (stable-storage recovery, bitmap restore),
    rebuild the services, replay the intentions list, re-register the
    RPC ports. Existing clients keep working (their next calls reach
    the new ports). *)

val set_message_loss : t -> float -> unit
val set_message_duplication : t -> float -> unit

(** {1 Integrity} *)

val fsck : t -> Rhodos_file.Fsck.report
(** Cross-validate the allocation bitmaps against every file bound in
    the namespace (plus the namespace file and the intentions-list
    region): no leaks, no references into free space, no double
    allocations. Run it after crash/recovery sequences. *)
