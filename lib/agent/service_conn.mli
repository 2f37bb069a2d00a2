(** Connections from client agents to the remote services.

    The paper's agents (file agent, transaction agent) run on the
    client's machine and talk to the naming, file and transaction
    services, which "can either co-exist on the same machine or be
    located separately on different machines". Agents therefore
    depend only on these records of functions; the facade fills them
    in either with direct calls (co-located) or with RPC stubs over
    the simulated network (separate machines). *)

type fs_conn = {
  resolve : Rhodos_naming.Name_service.attributed_name -> int;
      (** attributed name -> system name (file id), via the naming
          service *)
  bind : path:string -> file_id:int -> unit;
  unbind : string -> unit;
  mkdir : string -> unit;
  create_file : unit -> int;
  open_file : int -> Rhodos_file.Fit.t;
      (** increments the reference count; returns the attributes *)
  close_file : int -> unit;
  delete_file : int -> unit;
  pread : int -> off:int -> len:int -> bytes;
      (** The result is a fresh buffer owned by the caller: no one else
          holds or edits it, so the file agent caches a one-block
          reply as it is. *)
  pread_stream :
    (int -> off:int -> len:int -> on_chunk:(off:int -> bytes -> unit) -> unit)
    option;
      (** Streamed range read: the server pushes the range back as
          block-aligned chunks as it reads them, each delivered to
          [on_chunk] (at-least-once, any order; the completion of the
          call itself is the end-of-stream marker). Chunks overlap the
          server's disk time with the wire, so one invocation replaces
          a per-block RPC convoy. [None] when the transport has no
          one-way channel (e.g. the co-located direct-call facade may
          instead deliver the whole range as a single chunk). Callers
          must tolerate missing chunks (message loss) by re-fetching
          the holes with plain [pread]. *)
  pwrite : int -> off:int -> data:bytes -> unit;
  get_attributes : int -> Rhodos_file.Fit.t;
  truncate : int -> size:int -> unit;
}

type txn_handle = int

type txn_conn = {
  tbegin : unit -> txn_handle;
  tcreate : locking:Rhodos_file.Fit.locking_level -> txn_handle -> int;
  topen : txn_handle -> int -> unit;
  tclose : txn_handle -> int -> unit;
  tdelete : txn_handle -> int -> unit;
  tread : txn_handle -> int -> off:int -> len:int -> intent_update:bool -> bytes;
  twrite : txn_handle -> int -> off:int -> data:bytes -> unit;
  tget_attribute : txn_handle -> int -> Rhodos_file.Fit.t;
  tend : txn_handle -> unit;
  tabort : txn_handle -> unit;
}
