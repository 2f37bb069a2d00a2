module Sim = Rhodos_sim.Sim
module Net = Rhodos_net.Net
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Ns = Rhodos_naming.Name_service
module Fit = Rhodos_file.Fit
module Fs = Rhodos_file.File_service
module Txn = Rhodos_txn.Txn_service
module Lm = Rhodos_txn.Lock_manager
module Conn = Rhodos_agent.Service_conn
module File_agent = Rhodos_agent.File_agent
module Device_agent = Rhodos_agent.Device_agent
module Transaction_agent = Rhodos_agent.Transaction_agent
module Process_env = Rhodos_agent.Process_env
module Trace = Rhodos_obs.Trace
module Metrics = Rhodos_obs.Metrics

module L = (val Logs.src_log (Rhodos_util.Logging.src "cluster") : Logs.LOG)

type config = {
  nservers : int;
  ndisks : int;                 (* per server *)
  disk_capacity_bytes : int;
  with_stable : bool;
  remote : bool;
  placement : Fs.placement;
  fs_data_policy : Fs.data_policy;
  client_cache_blocks : int;
  client_flush_interval_ms : float;
  client_fetch_window : int;
  client_max_fetch_blocks : int;
  client_read_ahead_blocks : int;
  lock_config : Lm.config;
  net_latency_ms : float;
  net_bandwidth_bytes_per_ms : float;
  seed : int;
}

let default_config =
  {
    nservers = 1;
    ndisks = 1;
    disk_capacity_bytes = 32 * 1024 * 1024;
    with_stable = true;
    remote = true;
    placement = Fs.Fill_first;
    fs_data_policy = Fs.Write_through;
    client_cache_blocks = 64;
    client_flush_interval_ms = 1000.;
    client_fetch_window = 4;
    client_max_fetch_blocks = 64;
    client_read_ahead_blocks = 16;
    lock_config = Lm.default_config;
    net_latency_ms = 0.5;
    net_bandwidth_bytes_per_ms = 1000.;
    seed = 1;
  }

(* ------------------------------------------------------------------ *)
(* Global identifiers                                                  *)
(* ------------------------------------------------------------------ *)

(* Files may live on any file server ("the design does not take into
   account the physical location of the ... file and disk [services]").
   A system name therefore carries its server: the high bits of the
   integer id. With one server the encoding is the identity, so local
   ids and global ids coincide. Transaction handles are tagged the
   same way. *)
let server_shift = 48
let local_mask = (1 lsl server_shift) - 1
let gid ~server local = (server lsl server_shift) lor local
let gid_server g = g lsr server_shift
let gid_local g = g land local_mask

(* ------------------------------------------------------------------ *)
(* RPC protocol                                                        *)
(* ------------------------------------------------------------------ *)

type remote_error =
  | E_file_not_found of int
  | E_file_busy of int
  | E_name_not_found of string
  | E_already_bound of string
  | E_unresolvable of string
  | E_txn_aborted of int * string
  | E_no_space
  | E_no_such_txn of int
  | E_io of string
  | E_other of string

type remote_failure =
  | Storage_fault of string
  | Server_not_running
  | Server_error of string

exception Remote_failure of remote_failure

let to_remote_error = function
  | Fs.File_not_found id -> E_file_not_found id
  | Fs.File_busy id -> E_file_busy id
  | Ns.Name_not_found p -> E_name_not_found p
  | Ns.Already_bound p -> E_already_bound p
  | Ns.Unresolvable p | Ns.Not_a_directory p | Ns.Is_a_directory p -> E_unresolvable p
  | Txn.Aborted { txn; reason } -> E_txn_aborted (txn, reason)
  | Txn.No_such_transaction h -> E_no_such_txn h
  | Block.No_space _ -> E_no_space
  (* Storage-layer faults: the client cannot retry these into success,
     but it must be able to tell "the server's disk is sick" from an
     anonymous failure. *)
  | ( Disk.Disk_failed _ | Rhodos_stable.Stable_store.Unrecoverable_page _
    | Block.Not_formatted _ | Fit.Corrupt _ ) as e ->
    E_io (Printexc.to_string e)
  | e -> E_other (Printexc.to_string e)

let raise_remote = function
  | E_file_not_found id -> raise (Fs.File_not_found id)
  | E_file_busy id -> raise (Fs.File_busy id)
  | E_name_not_found p -> raise (Ns.Name_not_found p)
  | E_already_bound p -> raise (Ns.Already_bound p)
  | E_unresolvable p -> raise (Ns.Unresolvable p)
  | E_txn_aborted (txn, reason) -> raise (Txn.Aborted { txn; reason })
  | E_no_space -> raise (Block.No_space { wanted_fragments = 0; free_fragments = 0 })
  | E_no_such_txn h -> raise (Txn.No_such_transaction h)
  | E_io s -> raise (Remote_failure (Storage_fault s))
  | E_other s -> raise (Remote_failure (Server_error s))

type request =
  (* naming (always served by server 0) *)
  | R_resolve of (string * string) list
  | R_bind of string * int
  | R_unbind of string
  | R_mkdir of string
  (* basic file service (routed by the id's server bits) *)
  | R_create
  | R_open of int
  | R_close of int
  | R_delete of int
  | R_pread of int * int * int
  | R_pread_stream of int * int * int * (int * bytes) Net.endpoint
      (* (id, off, len, chunk sink): the server pushes block-sized
         (off, data) chunks to the sink as it reads them, so the wire
         transfer overlaps the remaining disk time; the response
         Ok_int counts the chunks sent (the end-of-stream marker). *)
  | R_pwrite of int * int * bytes
  | R_getattr of int
  | R_truncate of int * int
  (* transaction service (routed by the handle's server bits) *)
  | R_tbegin
  | R_tcreate of int * Fit.locking_level
  | R_topen of int * int
  | R_tclose of int * int
  | R_tdelete of int * int
  | R_tread of int * int * int * int * bool
  | R_twrite of int * int * int * bytes
  | R_tgetattr of int * int
  | R_tend of int
  | R_tabort of int

type response =
  | Ok_unit
  | Ok_int of int
  | Ok_bytes of bytes
  | Ok_attrs of Fit.t
  | Err of remote_error

(* ------------------------------------------------------------------ *)
(* Cluster state                                                       *)
(* ------------------------------------------------------------------ *)

type server = {
  s_index : int;
  s_node : Net.node;
  s_disks : Disk.t array;
  s_stable_disks : (Disk.t * Disk.t) array;
  mutable s_bss : Block.t array;
  mutable s_fs : Fs.t;
  mutable s_ts : Txn.t;
  s_log_region : int * int;
  mutable s_port : (request, response) Net.Rpc.port option;
  s_txn_handles : (int, Txn.txn) Hashtbl.t;
}

type client = {
  c_name : string;
  c_node : Net.node;
  c_env : Process_env.t;
  c_files : File_agent.t;
  c_devices : Device_agent.t;
  c_txn : Transaction_agent.t;
  c_fs_conn : Conn.fs_conn;
  c_tracer : Trace.t;
}

type t = {
  cfg : config;
  t_sim : Sim.t;
  t_net : Net.t;
  t_servers : server array;
  mutable t_ns : Ns.t;
  t_naming_file : Fs.file_id; (* on server 0 *)
  mutable t_rr : int;         (* round-robin cursor for creations *)
  mutable t_clients : client list;
  t_tracer : Trace.t;
  t_metrics : Metrics.t;
}

let sim t = t.t_sim
let net t = t.t_net
let tracer t = t.t_tracer
let metrics t = t.t_metrics
let server_count t = Array.length t.t_servers
let server_node t = t.t_servers.(0).s_node
let server_node_of t i = t.t_servers.(i).s_node
let naming t = t.t_ns
let file_service t = t.t_servers.(0).s_fs
let file_service_of t i = t.t_servers.(i).s_fs
let txn_service t = t.t_servers.(0).s_ts
let txn_service_of t i = t.t_servers.(i).s_ts
let block_services t = t.t_servers.(0).s_bss
let disks t = Array.concat (Array.to_list (Array.map (fun s -> s.s_disks) t.t_servers))

(* ------------------------------------------------------------------ *)
(* Namespace persistence                                               *)
(* ------------------------------------------------------------------ *)

(* Directories are "structural information of fairly small size": the
   whole namespace is serialised into a reserved file (on server 0) so
   that it survives a server crash like any other file. Paths must not
   contain newlines or spaces (a documented simplification). *)
let serialise_namespace ns =
  let buf = Buffer.create 256 in
  let rec walk path =
    List.iter
      (fun (name, kind) ->
        let p = (if path = "/" then "" else path) ^ "/" ^ name in
        match kind with
        | Ns.Directory ->
          Buffer.add_string buf (Printf.sprintf "D %s\n" p);
          walk p
        | Ns.File | Ns.Device ->
          let sysname = Ns.resolve_path ns p in
          let tag = if kind = Ns.File then "F" else "V" in
          Buffer.add_string buf
            (Printf.sprintf "%s %s %s %d\n" tag p sysname.Ns.service sysname.Ns.id))
      (Ns.list_dir ns path)
  in
  walk "/";
  Buffer.to_bytes buf

let deserialise_namespace data =
  let ns = Ns.create () in
  String.split_on_char '\n' (Bytes.to_string data)
  |> List.iter (fun line ->
         match String.split_on_char ' ' line with
         | [ "D"; path ] -> Ns.mkdir_p ns path
         | [ tag; path; service; id ] when tag = "F" || tag = "V" ->
           let kind = if tag = "F" then Ns.File else Ns.Device in
           Ns.bind ns ~path ~kind { Ns.service; id = int_of_string id }
         | _ -> ());
  ns

let persist_namespace t =
  let data = serialise_namespace t.t_ns in
  let fs0 = t.t_servers.(0).s_fs in
  Fs.truncate fs0 t.t_naming_file 0;
  if Bytes.length data > 0 then Fs.pwrite fs0 t.t_naming_file ~off:0 data

(* ------------------------------------------------------------------ *)
(* Server-side request handling                                        *)
(* ------------------------------------------------------------------ *)

(* Translate a global file id to this server's local id. Locating "the
   file service which manages the file" is the first of the paper's
   three steps; a misrouted id is a client bug. *)
let local_fid server g =
  if gid_server g <> server.s_index then
    failwith
      (Printf.sprintf "file %d belongs to server %d, not %d" g (gid_server g)
         server.s_index)
  else Fs.id_of_int (gid_local g)

let global_fid server id = gid ~server:server.s_index (Fs.id_to_int id)

let txn_of server handle =
  match Hashtbl.find_opt server.s_txn_handles (gid_local handle) with
  | Some txn -> txn
  | None -> raise (Txn.No_such_transaction handle)

(* Short op labels for the RPC trace spans. *)
let request_name = function
  | R_resolve _ -> "resolve"
  | R_bind _ -> "bind"
  | R_unbind _ -> "unbind"
  | R_mkdir _ -> "mkdir"
  | R_create -> "create"
  | R_open _ -> "open"
  | R_close _ -> "close"
  | R_delete _ -> "delete"
  | R_pread _ -> "pread"
  | R_pread_stream _ -> "pread_stream"
  | R_pwrite _ -> "pwrite"
  | R_getattr _ -> "getattr"
  | R_truncate _ -> "truncate"
  | R_tbegin -> "tbegin"
  | R_tcreate _ -> "tcreate"
  | R_topen _ -> "topen"
  | R_tclose _ -> "tclose"
  | R_tdelete _ -> "tdelete"
  | R_tread _ -> "tread"
  | R_twrite _ -> "twrite"
  | R_tgetattr _ -> "tgetattr"
  | R_tend _ -> "tend"
  | R_tabort _ -> "tabort"

let naming_span t op path f =
  Trace.maybe (Some t.t_tracer) ~service:"naming" ~op
    ~attrs:(fun () -> [ ("path", Trace.Str path) ])
    f

let handle_request t server request =
  try
    match request with
    | R_resolve aname ->
      naming_span t "resolve"
        (try List.assoc "path" aname with Not_found -> "?")
        (fun () -> Ok_int (Ns.resolve t.t_ns aname).Ns.id)
    | R_bind (path, id) ->
      naming_span t "bind" path (fun () ->
          Ns.bind t.t_ns ~path ~kind:Ns.File
            { Ns.service = Printf.sprintf "fs%d" (gid_server id); id };
          persist_namespace t;
          Ok_unit)
    | R_unbind path ->
      naming_span t "unbind" path (fun () ->
          Ns.unbind t.t_ns path;
          persist_namespace t;
          Ok_unit)
    | R_mkdir path ->
      naming_span t "mkdir" path (fun () ->
          Ns.mkdir_p t.t_ns path;
          persist_namespace t;
          Ok_unit)
    | R_create -> Ok_int (global_fid server (Fs.create_file server.s_fs))
    | R_open id ->
      let f = local_fid server id in
      Fs.open_file server.s_fs f;
      Ok_attrs (Fs.get_attributes server.s_fs f)
    | R_close id ->
      Fs.close_file server.s_fs (local_fid server id);
      Ok_unit
    | R_delete id ->
      Txn.sync_log server.s_ts;
      Fs.delete server.s_fs (local_fid server id);
      Ok_unit
    | R_pread (id, off, len) ->
      Ok_bytes (Fs.pread server.s_fs (local_fid server id) ~off ~len)
    | R_pread_stream (id, off, len, sink) ->
      (* Read the range block by block, pushing each chunk onto the
         wire as soon as the file service hands it over: the next
         block's disk time overlaps the previous chunk's transfer. *)
      let f = local_fid server id in
      let chunk = File_agent.block_size in
      let stop = off + len in
      let n = ref 0 in
      let pos = ref off in
      while !pos < stop do
        let chunk_end = min stop ((((!pos / chunk) + 1) * chunk)) in
        let data = Fs.pread server.s_fs f ~off:!pos ~len:(chunk_end - !pos) in
        Net.send ~size_bytes:(64 + Bytes.length data) t.t_net
          ~from:server.s_node sink (!pos, data);
        incr n;
        (* A short read means EOF: nothing further to stream. *)
        if Bytes.length data < chunk_end - !pos then pos := stop
        else pos := chunk_end
      done;
      Ok_int !n
    | R_pwrite (id, off, data) ->
      Txn.sync_log server.s_ts;
      Fs.pwrite server.s_fs (local_fid server id) ~off data;
      Ok_unit
    | R_getattr id -> Ok_attrs (Fs.get_attributes server.s_fs (local_fid server id))
    | R_truncate (id, size) ->
      Txn.sync_log server.s_ts;
      Fs.truncate server.s_fs (local_fid server id) size;
      Ok_unit
    | R_tbegin ->
      let txn = Txn.tbegin server.s_ts in
      Hashtbl.replace server.s_txn_handles (Txn.txn_id txn) txn;
      Ok_int (gid ~server:server.s_index (Txn.txn_id txn))
    | R_tcreate (h, locking) ->
      Ok_int
        (global_fid server (Txn.tcreate ~locking_level:locking server.s_ts (txn_of server h)))
    | R_topen (h, id) ->
      Txn.topen server.s_ts (txn_of server h) (local_fid server id);
      Ok_unit
    | R_tclose (h, id) ->
      Txn.tclose server.s_ts (txn_of server h) (local_fid server id);
      Ok_unit
    | R_tdelete (h, id) ->
      Txn.tdelete server.s_ts (txn_of server h) (local_fid server id);
      Ok_unit
    | R_tread (h, id, off, len, update) ->
      let intent = if update then `Update else `Query in
      Ok_bytes (Txn.tread ~intent server.s_ts (txn_of server h) (local_fid server id) ~off ~len)
    | R_twrite (h, id, off, data) ->
      Txn.twrite server.s_ts (txn_of server h) (local_fid server id) ~off data;
      Ok_unit
    | R_tgetattr (h, id) ->
      Ok_attrs (Txn.tget_attribute server.s_ts (txn_of server h) (local_fid server id))
    | R_tend h ->
      let txn = txn_of server h in
      Hashtbl.remove server.s_txn_handles (gid_local h);
      Txn.tend server.s_ts txn;
      Ok_unit
    | R_tabort h ->
      let txn = txn_of server h in
      Hashtbl.remove server.s_txn_handles (gid_local h);
      Txn.tabort server.s_ts txn;
      Ok_unit
  with
  | Sim.Killed as k -> raise k
  | e -> Err (to_remote_error e)

let serve_rpc t server =
  server.s_port <-
    Some
      (Net.Rpc.serve
         ~name:(Printf.sprintf "rhodos-services-%d" server.s_index)
         t.t_net server.s_node
         (handle_request t server))

(* ------------------------------------------------------------------ *)
(* Client connections                                                  *)
(* ------------------------------------------------------------------ *)

let request_size = function
  | R_pwrite (_, _, data) | R_twrite (_, _, _, data) -> 128 + Bytes.length data
  | _ -> 128

let response_size = function
  | R_pread (_, _, len) | R_tread (_, _, _, len, _) -> 128 + len
  | _ -> 128

(* Step one of the paper's three-step location procedure: find the
   file service that manages the object of the request. *)
let route t request =
  let by_id id = gid_server id mod Array.length t.t_servers in
  match request with
  | R_resolve _ | R_bind _ | R_unbind _ | R_mkdir _ -> 0
  | R_create | R_tbegin ->
    (* New objects rotate across the file servers. *)
    let s = t.t_rr mod Array.length t.t_servers in
    t.t_rr <- t.t_rr + 1;
    s
  | R_open id | R_close id | R_delete id | R_pread (id, _, _)
  | R_pread_stream (id, _, _, _) | R_pwrite (id, _, _) | R_getattr id
  | R_truncate (id, _) ->
    by_id id
  | R_tcreate (h, _) | R_topen (h, _) | R_tclose (h, _) | R_tdelete (h, _)
  | R_tread (h, _, _, _, _) | R_twrite (h, _, _, _) | R_tgetattr (h, _)
  | R_tend h | R_tabort h ->
    by_id h

(* Dispatch a request either directly (co-located services) or via RPC
   from the client's node. *)
let call t ~from request =
  let server = t.t_servers.(route t request) in
  let response =
    if not t.cfg.remote then handle_request t server request
    else begin
      let port =
        match server.s_port with
        | Some port -> port
        | None -> raise (Remote_failure Server_not_running)
      in
      let size_bytes = request_size request in
      let resp_size_bytes = response_size request in
      let payload =
        match request with
        (* The streamed range travels as one-way chunks, not in the
           response, but the call must still wait out the full
           transfer before declaring a timeout. *)
        | R_pread_stream (_, _, len, _) -> max (max size_bytes resp_size_bytes) len
        | _ -> max size_bytes resp_size_bytes
      in
      let timeout_ms =
        200. +. (4. *. float_of_int payload /. t.cfg.net_bandwidth_bytes_per_ms)
      in
      Net.Rpc.call ~timeout_ms ~max_retries:8 ~size_bytes ~resp_size_bytes
        ~op:("rpc:" ^ request_name request) t.t_net ~from port request
    end
  in
  match response with Err e -> raise_remote e | ok -> ok

let expect_unit = function Ok_unit -> () | _ -> failwith "rhodos: protocol mismatch"
let expect_int = function Ok_int i -> i | _ -> failwith "rhodos: protocol mismatch"
let expect_bytes = function Ok_bytes b -> b | _ -> failwith "rhodos: protocol mismatch"
let expect_attrs = function Ok_attrs a -> a | _ -> failwith "rhodos: protocol mismatch"

let make_fs_conn t ~from : Conn.fs_conn =
  {
    (* static-ok: leak-on-raise branch-union artifact: holds-on-return of handle_request is unioned over all request arms, but the naming arms these stubs invoke take no locks *)
    Conn.resolve = (fun aname -> expect_int (call t ~from (R_resolve aname)));
    bind = (fun ~path ~file_id -> expect_unit (call t ~from (R_bind (path, file_id))));
    unbind = (fun path -> expect_unit (call t ~from (R_unbind path)));
    mkdir = (fun path -> expect_unit (call t ~from (R_mkdir path)));
    create_file = (fun () -> expect_int (call t ~from R_create));
    open_file = (fun id -> expect_attrs (call t ~from (R_open id)));
    close_file = (fun id -> expect_unit (call t ~from (R_close id)));
    delete_file = (fun id -> expect_unit (call t ~from (R_delete id)));
    pread = (fun id ~off ~len -> expect_bytes (call t ~from (R_pread (id, off, len))));
    pread_stream =
      Some
        (fun id ~off ~len ~on_chunk ->
          if not t.cfg.remote then
            (* Co-located services: no wire to overlap with — deliver
               the whole range as a single chunk. *)
            on_chunk ~off (expect_bytes (call t ~from (R_pread (id, off, len))))
          else begin
            let sink = Net.endpoint t.t_net from in
            let expected =
              expect_int (call t ~from (R_pread_stream (id, off, len, sink)))
            in
            (* The response follows the last chunk, so normally every
               chunk is already buffered; the timeout only matters
               when chunks were lost (or on a response replayed by the
               server's dedup after a retry, where they may still be
               in flight). Deduplicate: sends can be duplicated too. *)
            let chunk = File_agent.block_size in
            let grace =
              4.
              *. (t.cfg.net_latency_ms
                 +. (float_of_int (chunk + 64) /. t.cfg.net_bandwidth_bytes_per_ms))
            in
            let seen = Hashtbl.create 8 in
            let missing = ref (max 0 expected) in
            let timed_out = ref false in
            while (not !timed_out) && !missing > 0 do
              (* static-ok: may-block-under-lock branch-union artifact: holds-on-return of handle_request is unioned over all request arms, but the R_pread_stream arm this stub just invoked takes no locks *)
              match Net.recv_timeout sink grace with
              | None -> timed_out := true
              | Some (coff, data) ->
                if not (Hashtbl.mem seen coff) then begin
                  Hashtbl.replace seen coff ();
                  decr missing;
                  on_chunk ~off:coff data
                end
            done
          end);
    pwrite =
      (fun id ~off ~data -> expect_unit (call t ~from (R_pwrite (id, off, data))));
    get_attributes = (fun id -> expect_attrs (call t ~from (R_getattr id)));
    truncate = (fun id ~size -> expect_unit (call t ~from (R_truncate (id, size))));
  }

let make_txn_conn t ~from : Conn.txn_conn =
  {
    (* static-ok: leak-on-raise branch-union artifact: holds-on-return of handle_request is unioned over all request arms; 2PL grants taken by the txn arms are released by tend/tabort, not by this stub *)
    Conn.tbegin = (fun () -> expect_int (call t ~from R_tbegin));
    tcreate = (fun ~locking h -> expect_int (call t ~from (R_tcreate (h, locking))));
    topen = (fun h id -> expect_unit (call t ~from (R_topen (h, id))));
    tclose = (fun h id -> expect_unit (call t ~from (R_tclose (h, id))));
    tdelete = (fun h id -> expect_unit (call t ~from (R_tdelete (h, id))));
    tread =
      (fun h id ~off ~len ~intent_update ->
        expect_bytes (call t ~from (R_tread (h, id, off, len, intent_update))));
    twrite =
      (fun h id ~off ~data -> expect_unit (call t ~from (R_twrite (h, id, off, data))));
    tget_attribute = (fun h id -> expect_attrs (call t ~from (R_tgetattr (h, id))));
    tend = (fun h -> expect_unit (call t ~from (R_tend h)));
    tabort = (fun h -> expect_unit (call t ~from (R_tabort h)));
  }

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let build_block_services ~cfg ~sidx ~tracer ~disks ~stable_disks =
  Array.mapi
    (fun i disk ->
      let stable = if cfg.with_stable then Some stable_disks.(i) else None in
      Block.create ~name:(Printf.sprintf "bs%d-%d" sidx i) ~tracer ~disk
        ?stable ())
    disks

let fs_config cfg =
  {
    Fs.default_config with
    Fs.placement = cfg.placement;
    data_policy = cfg.fs_data_policy;
  }

let build_server ~cfg ~sim ~net ~tracer sidx =
  let node =
    Net.add_node net (if sidx = 0 then "server" else Printf.sprintf "server%d" sidx)
  in
  let geometry = Disk.geometry_with_capacity cfg.disk_capacity_bytes in
  let disks =
    Array.init cfg.ndisks (fun i ->
        Disk.create ~name:(Printf.sprintf "d%d-%d" sidx i) ~tracer sim geometry)
  in
  let stable_geometry = Disk.geometry_with_capacity (cfg.disk_capacity_bytes * 2) in
  let stable_disks =
    if cfg.with_stable then
      Array.init cfg.ndisks (fun i ->
          ( Disk.create ~name:(Printf.sprintf "st%d-%da" sidx i) ~tracer sim
              stable_geometry,
            Disk.create ~name:(Printf.sprintf "st%d-%db" sidx i) ~tracer sim
              stable_geometry ))
    else [||]
  in
  let bss = build_block_services ~cfg ~sidx ~tracer ~disks ~stable_disks in
  Array.iter Block.format bss;
  let fs = Fs.create ~config:(fs_config cfg) ~tracer ~disks:bss () in
  (* The reserved namespace file must be the very first file created on
     server 0, so its id is deterministic across restarts. *)
  let naming_file = if sidx = 0 then Some (Fs.create_file fs) else None in
  let ts =
    Txn.create
      ~config:{ Txn.default_config with Txn.lock_config = cfg.lock_config }
      ~tracer ~fs ()
  in
  ( {
      s_index = sidx;
      s_node = node;
      s_disks = disks;
      s_stable_disks = stable_disks;
      s_bss = bss;
      s_fs = fs;
      s_ts = ts;
      s_log_region = Txn.log_region ts;
      s_port = None;
      (* Per-tid handle table: each transaction id is minted once and only
         its owning client's handler touches that key; keyed add/remove on
         distinct tids commute.
         static-ok: static-race keyed entries commute *)
      s_txn_handles = Hashtbl.create 16;
    },
    naming_file )

(* Adopt the per-service counter tables into the unified registry.
   Sources close over the mutable [server] record (not the service
   values), so they keep reading the live services after
   [recover_server] replaces them. *)
let disk_source d () =
  let s = Disk.stats d in
  [
    ("references", float_of_int s.Disk.references);
    ("reads", float_of_int s.Disk.reads);
    ("writes", float_of_int s.Disk.writes);
    ("sectors_read", float_of_int s.Disk.sectors_read);
    ("sectors_written", float_of_int s.Disk.sectors_written);
    ("seeks", float_of_int s.Disk.seeks);
    ("busy_ms", s.Disk.busy_ms);
  ]

let register_server_metrics metrics server =
  let node = Net.node_name server.s_node in
  Array.iter
    (fun d ->
      Metrics.register_source metrics ~node ~name:("disk." ^ Disk.name d)
        (disk_source d))
    server.s_disks;
  Array.iteri
    (fun i _ ->
      Metrics.register_source metrics ~node ~name:(Printf.sprintf "block.%d" i)
        (fun () -> Metrics.of_counter_table (Block.stats server.s_bss.(i)) ()))
    server.s_bss;
  Metrics.register_source metrics ~node ~name:"fs" (fun () ->
      Metrics.of_counter_table (Fs.stats server.s_fs) ());
  Metrics.register_source metrics ~node ~name:"fs.cache" (fun () ->
      Metrics.of_counter_table (Fs.cache_stats server.s_fs) ());
  Metrics.register_source metrics ~node ~name:"txn" (fun () ->
      Metrics.of_counter_table (Txn.stats server.s_ts) ());
  Metrics.register_source metrics ~node ~name:"locks" (fun () ->
      Metrics.of_counter_table (Lm.stats (Txn.lock_manager server.s_ts)) ())

let create ?(config = default_config) sim =
  let cfg = config in
  if cfg.nservers < 1 then invalid_arg "Cluster.create: nservers";
  let tracer = Trace.create sim in
  let metrics = Metrics.create () in
  let net =
    Net.create ~seed:cfg.seed ~latency_ms:cfg.net_latency_ms
      ~bandwidth_bytes_per_ms:cfg.net_bandwidth_bytes_per_ms ~tracer sim
  in
  Metrics.register_source metrics ~name:"net" (fun () ->
      Metrics.of_counter_table (Net.stats net) ());
  let naming_file = ref None in
  let servers =
    Array.init cfg.nservers (fun sidx ->
        let server, nf = build_server ~cfg ~sim ~net ~tracer sidx in
        if sidx = 0 then naming_file := nf;
        register_server_metrics metrics server;
        server)
  in
  let t =
    {
      cfg;
      t_sim = sim;
      t_net = net;
      t_servers = servers;
      t_ns = Ns.create ();
      t_naming_file = Option.get !naming_file;
      t_rr = 0;
      t_clients = [];
      t_tracer = tracer;
      t_metrics = metrics;
    }
  in
  if cfg.remote then Array.iter (serve_rpc t) t.t_servers;
  t

let run ?config f =
  let sim = Sim.create () in
  let result = ref None in
  let _ =
    Sim.spawn ~name:"main" sim (fun () ->
        let t = create ?config sim in
        result := Some (f sim t))
  in
  (* Periodic background processes (cache flushers, agents) keep the
     event queue non-empty forever; stop as soon as the driver
     function has returned. *)
  while !result = None && Sim.step sim do
    ()
  done;
  match !result with
  | Some r -> r
  | None -> failwith "Cluster.run: simulation stalled before completion"

(* ------------------------------------------------------------------ *)
(* Clients                                                             *)
(* ------------------------------------------------------------------ *)

let add_client t ~name =
  let node = Net.add_node t.t_net name in
  let fs_conn = make_fs_conn t ~from:node in
  let txn_conn = make_txn_conn t ~from:node in
  let files =
    File_agent.create
      ~config:
        {
          File_agent.default_config with
          File_agent.cache_blocks = t.cfg.client_cache_blocks;
          flush_interval_ms = t.cfg.client_flush_interval_ms;
          fetch_window = t.cfg.client_fetch_window;
          max_fetch_blocks = t.cfg.client_max_fetch_blocks;
          read_ahead_blocks = t.cfg.client_read_ahead_blocks;
        }
      ~tracer:t.t_tracer ~sim:t.t_sim ~conn:fs_conn ()
  in
  let devices = Device_agent.create t.t_sim in
  let txn_agent =
    Transaction_agent.create
      ~on_commit:(fun ~file -> File_agent.invalidate_file files ~file)
      ~tracer:t.t_tracer ~sim:t.t_sim ~fs_conn ~txn_conn ()
  in
  Metrics.register_source t.t_metrics ~node:name ~name:"agent" (fun () ->
      Metrics.of_counter_table (File_agent.stats files) ());
  Metrics.register_source t.t_metrics ~node:name ~name:"agent.cache" (fun () ->
      Metrics.of_counter_table (File_agent.cache_stats files) ());
  Metrics.register_source t.t_metrics ~node:name ~name:"agent.names" (fun () ->
      Metrics.of_counter_table (File_agent.name_cache_stats files) ());
  let env = Process_env.create ~devices ~files ~transactions:txn_agent () in
  let client =
    {
      c_name = name;
      c_node = node;
      c_env = env;
      c_files = files;
      c_devices = devices;
      c_txn = txn_agent;
      c_fs_conn = fs_conn;
      c_tracer = t.t_tracer;
    }
  in
  t.t_clients <- client :: t.t_clients;
  client

let client_name c = c.c_name
let client_node c = c.c_node
let env c = c.c_env
let file_agent c = c.c_files
let device_agent c = c.c_devices
let transaction_agent c = c.c_txn
let fs_conn c = c.c_fs_conn

(* Convenience wrappers. Each opens a root ["client"] span, so a whole
   user-level operation renders as one causal tree: client -> agent ->
   net -> service -> block service -> disk. *)

let client_span c op attrs f =
  Trace.maybe (Some c.c_tracer) ~service:"client" ~op
    ~attrs:(fun () -> ("client", Trace.Str c.c_name) :: attrs ())
    f

let path_attr path () = [ ("path", Trace.Str path) ]
let desc_attr d () = [ ("desc", Trace.Int d) ]

let mkdir c path =
  client_span c "mkdir" (path_attr path) (fun () -> c.c_fs_conn.Conn.mkdir path)

let create_file c path =
  client_span c "create" (path_attr path) (fun () ->
      File_agent.create_file c.c_files ~path)

let open_file c path =
  client_span c "open" (path_attr path) (fun () ->
      File_agent.open_file c.c_files ~path)

let write c d data =
  client_span c "write"
    (fun () -> [ ("desc", Trace.Int d); ("len", Trace.Int (Bytes.length data)) ])
    (fun () -> File_agent.write c.c_files d data)

let read c d n =
  client_span c "read"
    (fun () -> [ ("desc", Trace.Int d); ("len", Trace.Int n) ])
    (fun () -> File_agent.read c.c_files d n)

let pwrite c d ~off ~data =
  client_span c "pwrite"
    (fun () ->
      [ ("desc", Trace.Int d); ("off", Trace.Int off);
        ("len", Trace.Int (Bytes.length data)) ])
    (fun () -> File_agent.pwrite c.c_files d ~off ~data)

let pread c d ~off ~len =
  client_span c "pread"
    (fun () ->
      [ ("desc", Trace.Int d); ("off", Trace.Int off); ("len", Trace.Int len) ])
    (fun () -> File_agent.pread c.c_files d ~off ~len)

let lseek c d whence = File_agent.lseek c.c_files d whence

let close c d =
  client_span c "close" (desc_attr d) (fun () -> File_agent.close c.c_files d)

let delete c path =
  client_span c "delete" (path_attr path) (fun () ->
      File_agent.delete c.c_files ~path)

let with_transaction_impl c f =
  let td = Transaction_agent.tbegin c.c_txn in
  match f c.c_txn td with
  | result ->
    Transaction_agent.tend c.c_txn td;
    result
  | exception e ->
    (* Best-effort abort: the service may already have aborted the
       transaction (lock timeout), lost the handle, or be unreachable.
       Anything else — Sim.Killed above all — must propagate. *)
    (try Transaction_agent.tabort c.c_txn td
     with
    | Txn.Aborted _ | Txn.No_such_transaction _
    | Transaction_agent.Bad_transaction _
    | Remote_failure _ | Net.Rpc.Timeout _ ->
      ());
    raise e

let with_transaction c f =
  client_span c "transaction"
    (fun () -> [])
    (fun () -> with_transaction_impl c f)

(* ------------------------------------------------------------------ *)
(* Faults and recovery                                                 *)
(* ------------------------------------------------------------------ *)

let crash_client t client =
  ignore (Net.crash_node t.t_net client.c_node);
  File_agent.crash client.c_files

let crash_server t =
  L.warn (fun m -> m "server crash at t=%.1fms" (Sim.now t.t_sim));
  Array.fold_left
    (fun lost server ->
      ignore (Net.crash_node t.t_net server.s_node);
      (match server.s_port with Some port -> Net.Rpc.stop port | None -> ());
      server.s_port <- None;
      Hashtbl.reset server.s_txn_handles;
      Txn.shutdown server.s_ts;
      lost + Fs.crash server.s_fs)
    0 t.t_servers

let recover_server t =
  (* Re-attach every disk service of every server: stable-storage
     recovery, bitmap restore, extent array rebuild; then replay each
     server's intentions list. *)
  let reports =
    Array.map
      (fun server ->
        server.s_bss <-
          build_block_services ~cfg:t.cfg ~sidx:server.s_index ~tracer:t.t_tracer
            ~disks:server.s_disks ~stable_disks:server.s_stable_disks;
        Array.iter Block.attach server.s_bss;
        server.s_fs <-
          Fs.create ~config:(fs_config t.cfg) ~tracer:t.t_tracer
            ~disks:server.s_bss ();
        let ts, report =
          Txn.recover_service
            ~config:{ Txn.default_config with Txn.lock_config = t.cfg.lock_config }
            ~tracer:t.t_tracer ~fs:server.s_fs ~log_region:server.s_log_region ()
        in
        server.s_ts <- ts;
        report)
      t.t_servers
  in
  (* Reload the namespace from its reserved file on server 0. *)
  let fs0 = t.t_servers.(0).s_fs in
  let size = Fs.file_size fs0 t.t_naming_file in
  let data = Fs.pread fs0 t.t_naming_file ~off:0 ~len:size in
  t.t_ns <- deserialise_namespace data;
  if t.cfg.remote then Array.iter (serve_rpc t) t.t_servers;
  L.info (fun m -> m "server recovered at t=%.1fms" (Sim.now t.t_sim));
  {
    Txn.redone_transactions =
      Array.to_list reports
      |> List.concat_map (fun r -> r.Txn.redone_transactions);
    discarded_transactions =
      Array.to_list reports
      |> List.concat_map (fun r -> r.Txn.discarded_transactions);
  }

let set_message_loss t rate = Net.set_loss_rate t.t_net rate
let set_message_duplication t rate = Net.set_duplicate_rate t.t_net rate

(* ------------------------------------------------------------------ *)
(* Integrity checking                                                  *)
(* ------------------------------------------------------------------ *)

(* Every file id bound somewhere in the namespace, as global ids. *)
let bound_files t =
  let acc = ref [] in
  let rec walk path =
    List.iter
      (fun (name, kind) ->
        let p = (if path = "/" then "" else path) ^ "/" ^ name in
        match kind with
        | Ns.Directory -> walk p
        | Ns.File -> acc := (Ns.resolve_path t.t_ns p).Ns.id :: !acc
        | Ns.Device -> ())
      (Ns.list_dir t.t_ns path)
  in
  walk "/";
  !acc

let fsck t =
  let by_server = Array.make (Array.length t.t_servers) [] in
  List.iter
    (fun g ->
      let s = gid_server g in
      by_server.(s) <- Fs.id_of_int (gid_local g) :: by_server.(s))
    (bound_files t);
  by_server.(0) <- t.t_naming_file :: by_server.(0);
  let reports =
    Array.mapi
      (fun sidx server ->
        let log_frag, log_len = server.s_log_region in
        Rhodos_file.Fsck.check server.s_fs
          ~files:(List.sort_uniq compare by_server.(sidx))
          ~regions:[ ("intentions-list", 0, log_frag, log_len) ]
          ())
      t.t_servers
  in
  (* Merge: per-server (disk, frag) pairs are disambiguated by
     offsetting the disk index with the server index. *)
  let shift sidx (disk, frag) = ((sidx * 1000) + disk, frag) in
  let shift3 sidx (disk, frag, o) = ((sidx * 1000) + disk, frag, o) in
  let shift4 sidx (disk, frag, a, b) = ((sidx * 1000) + disk, frag, a, b) in
  Array.to_list reports
  |> List.mapi (fun sidx r -> (sidx, r))
  |> List.fold_left
       (fun (acc : Rhodos_file.Fsck.report) (sidx, (r : Rhodos_file.Fsck.report)) ->
         {
           Rhodos_file.Fsck.files_checked = acc.files_checked + r.files_checked;
           fragments_allocated = acc.fragments_allocated + r.fragments_allocated;
           fragments_reachable = acc.fragments_reachable + r.fragments_reachable;
           leaked = acc.leaked @ List.map (shift sidx) r.leaked;
           phantom = acc.phantom @ List.map (shift3 sidx) r.phantom;
           double_allocated =
             acc.double_allocated @ List.map (shift4 sidx) r.double_allocated;
           unreadable_fits = acc.unreadable_fits @ r.unreadable_fits;
         })
       {
         Rhodos_file.Fsck.files_checked = 0;
         fragments_allocated = 0;
         fragments_reachable = 0;
         leaked = [];
         phantom = [];
         double_allocated = [];
         unreadable_fits = [];
       }
