module Sim = Rhodos_sim.Sim
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Fit = Rhodos_file.Fit
module Counter = Rhodos_util.Stats.Counter
module Trace = Rhodos_obs.Trace

let log_src = Rhodos_util.Logging.src "txn"

module L = (val Logs.src_log log_src : Logs.LOG)

let block_size = Block.block_bytes

exception Aborted of { txn : int; reason : string }
exception No_such_transaction of int

type commit_technique = Wal | Shadow_page

type config = {
  lock_config : Lock_manager.config;
  log_fragments : int;
  force_technique : commit_technique option;
}

let default_config =
  { lock_config = Lock_manager.default_config; log_fragments = 256; force_technique = None }

type txn_state = Active | Committing | Finished

type txn = {
  id : int;
  (* Per-txn record: mutated by the owning client's handler, and by [tend]
     only after the suspect timeout declares that owner dead — the two
     writers are separated in time, not by a lock.
     static-ok: static-race single owner, tend after suspect timeout *)
  mutable state : txn_state;
  mutable abort_reason : string option;  (* set when suspected/aborted *)
  mutable writes : (int * int * bytes) list; (* (file, off, data) reversed *)
  mutable created : Fs.file_id list;
  (* Per-txn work list, same single-owner contract as [state]; the 2PL
     items the owner holds don't surface in the meet.
     static-ok: static-race single-owner work list *)
  mutable deleted : Fs.file_id list;
  (* Per-txn work list, same single-owner contract as [state] and [deleted].
     static-ok: static-race single-owner work list *)
  mutable opened : Fs.file_id list;
  mutable shadow_allocs : (int * int) list;
      (* shadow blocks allocated during commit phase 1; freed if the
         commit fails before its Commit record lands *)
}

let txn_id txn = txn.id

type t = {
  sim : Sim.t;
  fs : Fs.t;
  config : config;
  lm : Lock_manager.t;
  log : Txn_log.t;
  txns : (int, txn) Hashtbl.t;
  mutable next_id : int;
  (* (txn, when) touches per file, for the adaptive locking level *)
  usage : (int, (int * float) list ref) Hashtbl.t;
  counters : Counter.t;
  tracer : Trace.t option;
  mutable dead : bool;
      (* set when the hosting server crashes: lingering lease timers
         and background work must not touch the disks any more *)
}

let usage_window_ms = 1000.

let note_usage t txn file =
  let fid = Fs.id_to_int file in
  let entry =
    match Hashtbl.find_opt t.usage fid with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.replace t.usage fid r;
      r
  in
  let cutoff = Sim.now t.sim -. usage_window_ms in
  entry := (txn.id, Sim.now t.sim) :: List.filter (fun (_, at) -> at >= cutoff) !entry

let recent_sharers t file =
  let fid = Fs.id_to_int file in
  match Hashtbl.find_opt t.usage fid with
  | None -> 0
  | Some r ->
    let cutoff = Sim.now t.sim -. usage_window_ms in
    List.filter (fun (_, at) -> at >= cutoff) !r
    |> List.map fst |> List.sort_uniq compare |> List.length

(* ------------------------------------------------------------------ *)
(* Abort machinery                                                     *)
(* ------------------------------------------------------------------ *)

let finish_txn t txn =
  txn.state <- Finished;
  Lock_manager.cancel_waits t.lm ~txn:txn.id;
  Lock_manager.release_all t.lm ~txn:txn.id

let abort_internal t txn ~reason ~log_it =
  if txn.state = Active then begin
    txn.abort_reason <- Some reason;
    L.info (fun m -> m "txn %d aborted: %s" txn.id reason);
    Counter.incr t.counters "aborts";
    (* Undo creations; tentative writes were never applied. *)
    List.iter
      (fun id -> try Fs.delete t.fs id with Fs.File_not_found _ | Fs.File_busy _ -> ())
      txn.created;
    List.iter
      (fun id -> try Fs.close_file t.fs id with Fs.File_not_found _ -> ())
      txn.opened;
    txn.writes <- [];
    if log_it then (try Txn_log.append t.log (Txn_log.Abort { txn = txn.id }) with Txn_log.Log_full -> ());
    finish_txn t txn
  end

let suspect_abort t id =
  if t.dead then ()
  else
  match Hashtbl.find_opt t.txns id with
  | Some txn when txn.state = Active ->
    Counter.incr t.counters "timeout_aborts";
    abort_internal t txn ~reason:"suspected deadlocked (lock timeout)" ~log_it:true
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let build ?(config = default_config) ?tracer ~fs ~log () =
  let sim = Fs.sim fs in
  let holder = ref None in
  let on_suspect ~txn =
    match !holder with Some t -> suspect_abort t txn | None -> ()
  in
  let lm = Lock_manager.create ~config:config.lock_config ~sim ~on_suspect () in
  let t =
    {
      sim;
      fs;
      config;
      lm;
      log;
      (* Per-tid transaction table: ids are minted sequentially and each
         entry is touched by its owner (or by [tend] after the owner is
         declared dead); distinct-key ops commute.
         static-ok: static-race keyed entries commute *)
      txns = Hashtbl.create 32;
      next_id = 1;
      usage = Hashtbl.create 32;
      counters = Counter.create ();
      tracer;
      dead = false;
    }
  in
  holder := Some t;
  t

let create ?(config = default_config) ?tracer ~fs () =
  let log = Txn_log.create (Fs.block_service fs 0) ~fragments:config.log_fragments in
  build ~config ?tracer ~fs ~log ()

let log_region t = (Txn_log.region t.log, Txn_log.fragments t.log)

let lock_manager t = t.lm
let stats t = t.counters

let active_count t =
  Hashtbl.fold (fun _ txn acc -> if txn.state = Active then acc + 1 else acc) t.txns 0

let is_active _t txn = txn.state = Active && txn.abort_reason = None

(* ------------------------------------------------------------------ *)
(* Operation plumbing                                                  *)
(* ------------------------------------------------------------------ *)

let check_active t txn =
  match txn.abort_reason with
  | Some reason ->
    Hashtbl.remove t.txns txn.id;
    raise (Aborted { txn = txn.id; reason })
  | None ->
    if txn.state <> Active then
      raise (Aborted { txn = txn.id; reason = "transaction already finished" })

(* Lock items for a byte range, per the file's locking level. *)
let items_for t file ~off ~len =
  let fid = Fs.id_to_int file in
  match (Fs.get_attributes t.fs file).Fit.locking_level with
  | Fit.File_level -> [ Lock_manager.File_item fid ]
  | Fit.Page_level ->
    let b0 = off / block_size and b1 = (off + max 1 len - 1) / block_size in
    List.init (b1 - b0 + 1) (fun i -> Lock_manager.Page_item (fid, b0 + i))
  | Fit.Record_level -> [ Lock_manager.Record_item (fid, off, max 1 len) ]

let acquire_all t txn items mode =
  try List.iter (fun item -> Lock_manager.acquire t.lm ~txn:txn.id item mode) items
  with Lock_manager.Wait_cancelled _ ->
    let reason =
      match txn.abort_reason with Some r -> r | None -> "wait cancelled"
    in
    Hashtbl.remove t.txns txn.id;
    raise (Aborted { txn = txn.id; reason })

(* Tentative view: the transaction's own writes overlaid on the
   committed bytes. *)
let tentative_end txn ~file =
  List.fold_left
    (fun acc (f, off, data) ->
      if f = file then max acc (off + Bytes.length data) else acc)
    0 txn.writes

let overlay txn ~file ~off buf =
  let len = Bytes.length buf in
  List.iter
    (fun (f, woff, data) ->
      if f = file then begin
        let s = max off woff and e = min (off + len) (woff + Bytes.length data) in
        if s < e then Bytes.blit data (s - woff) buf (s - off) (e - s)
      end)
    (List.rev txn.writes)

(* ------------------------------------------------------------------ *)
(* Transaction operations                                              *)
(* ------------------------------------------------------------------ *)

let shutdown t =
  t.dead <- true;
  Hashtbl.iter (fun _ txn -> txn.state <- Finished) t.txns;
  Hashtbl.reset t.txns

let tbegin t =
  if t.dead then failwith "transaction service is down";
  let txn =
    {
      id = t.next_id;
      state = Active;
      abort_reason = None;
      writes = [];
      created = [];
      deleted = [];
      opened = [];
      shadow_allocs = [];
    }
  in
  t.next_id <- t.next_id + 1;
  Hashtbl.replace t.txns txn.id txn;
  Counter.incr t.counters "begins";
  txn

let tcreate ?(locking_level = Fit.Page_level) t txn =
  check_active t txn;
  let id = Fs.create_file ~service_type:Fit.Transaction ~locking_level t.fs in
  txn.created <- id :: txn.created;
  acquire_all t txn [ Lock_manager.File_item (Fs.id_to_int id) ] Lock_manager.Iwrite;
  id

let topen t txn file =
  check_active t txn;
  note_usage t txn file;
  Fs.open_file t.fs file;
  txn.opened <- file :: txn.opened

let tclose t txn file =
  check_active t txn;
  Fs.close_file t.fs file;
  txn.opened <- List.filter (fun f -> f <> file) txn.opened

let tdelete t txn file =
  check_active t txn;
  acquire_all t txn [ Lock_manager.File_item (Fs.id_to_int file) ] Lock_manager.Iwrite;
  txn.deleted <- file :: txn.deleted

let tread_impl ~intent t txn file ~off ~len =
  check_active t txn;
  note_usage t txn file;
  let mode =
    match intent with `Query -> Lock_manager.Read_only | `Update -> Lock_manager.Iread
  in
  acquire_all t txn (items_for t file ~off ~len) mode;
  check_active t txn;
  let fid = Fs.id_to_int file in
  (* static-ok: may-block-under-lock 2PL by design: a tread holds its page/file grants across the committed-state disk read; deadlock is covered by the 6.4 lock-wait timeouts *)
  let committed_size = Fs.file_size t.fs file in
  let eff_size = max committed_size (tentative_end txn ~file:fid) in
  let len = max 0 (min len (eff_size - off)) in
  if len = 0 then Bytes.empty
  else begin
    let buf = Bytes.make len '\000' in
    (* static-ok: may-block-under-lock 2PL by design: a tread holds its page/file grants across the committed-state disk read; deadlock is covered by the 6.4 lock-wait timeouts *)
    let committed = Fs.pread t.fs file ~off ~len in
    Bytes.blit committed 0 buf 0 (Bytes.length committed);
    if txn.writes <> [] then Counter.incr t.counters "tentative_reads";
    overlay txn ~file:fid ~off buf;
    buf
  end

let tread ?(intent = `Query) t txn file ~off ~len =
  Trace.maybe t.tracer ~service:"txn_service" ~op:"tread"
    ~attrs:(fun () ->
      [ ("txn", Trace.Int txn.id); ("file", Trace.Int (Fs.id_to_int file));
        ("off", Trace.Int off); ("len", Trace.Int len) ])
    (fun () -> tread_impl ~intent t txn file ~off ~len)

let twrite_impl t txn file ~off data =
  check_active t txn;
  note_usage t txn file;
  if off < 0 then invalid_arg "twrite: negative offset";
  acquire_all t txn (items_for t file ~off ~len:(Bytes.length data)) Lock_manager.Iwrite;
  check_active t txn;
  txn.writes <- (Fs.id_to_int file, off, Bytes.copy data) :: txn.writes

let twrite t txn file ~off data =
  Trace.maybe t.tracer ~service:"txn_service" ~op:"twrite"
    ~attrs:(fun () ->
      [ ("txn", Trace.Int txn.id); ("file", Trace.Int (Fs.id_to_int file));
        ("off", Trace.Int off); ("len", Trace.Int (Bytes.length data)) ])
    (fun () -> twrite_impl t txn file ~off data)

let tget_attribute t txn file =
  check_active t txn;
  let a = Fs.get_attributes t.fs file in
  let eff = max a.Fit.size (tentative_end txn ~file:(Fs.id_to_int file)) in
  { a with Fit.size = eff }

(* ------------------------------------------------------------------ *)
(* Commit (section 6.7)                                                *)
(* ------------------------------------------------------------------ *)

(* Are logical blocks [b0..b1] of the file inside a single physical
   extent? Then WAL keeps them contiguous; otherwise shadow pages are
   cheaper (no data copied through the log). *)
let range_is_contiguous t file ~b0 ~b1 =
  let runs = Fs.file_runs t.fs file in
  let rec walk skipped = function
    | [] -> false
    | (r : Fit.run) :: rest ->
      if b0 < skipped + r.Fit.blocks then b1 < skipped + r.Fit.blocks
      else walk (skipped + r.Fit.blocks) rest
  in
  walk 0 runs

(* Merge a transaction's write intervals per file: sorted, coalesced
   (off, len) pairs. *)
let merged_intervals writes ~file =
  let mine =
    List.filter_map
      (fun (f, off, data) -> if f = file then Some (off, Bytes.length data) else None)
      writes
    |> List.sort compare
  in
  let rec merge = function
    | (o1, l1) :: (o2, l2) :: rest when o2 <= o1 + l1 ->
      merge ((o1, max l1 (o2 + l2 - o1)) :: rest)
    | x :: rest -> x :: merge rest
    | [] -> []
  in
  merge mine

(* The final tentative bytes for [off, off+len): committed content
   overlaid with every write of the transaction, in order. *)
let tentative_bytes t txn file ~off ~len =
  let buf = Bytes.make len '\000' in
  let committed = Fs.pread t.fs file ~off ~len in
  Bytes.blit committed 0 buf 0 (Bytes.length committed);
  overlay txn ~file:(Fs.id_to_int file) ~off buf;
  buf

(* Record the transaction's intentions: per merged write interval,
   either one WAL record carrying the final bytes, or per-block shadow
   records pointing at already-written shadow blocks. The part
   extending the file is always WAL (a shadow swap needs an existing
   descriptor to replace). All post-images come from the full
   tentative overlay, so overlapping writes by the same transaction
   commit correctly. Returns the records appended, oldest first: the
   commit applies exactly these, so it never reads the log back. *)
let log_intentions t txn =
  let appended = ref [] in
  let append r =
    Txn_log.append t.log r;
    appended := r :: !appended
  in
  let writes = List.rev txn.writes in
  let files = List.sort_uniq compare (List.map (fun (f, _, _) -> f) writes) in
  List.iter
    (fun fid ->
      let file = Fs.id_of_int fid in
      let committed_size = Fs.file_size t.fs file in
      let level = (Fs.get_attributes t.fs file).Fit.locking_level in
      let technique ~b0 ~b1 =
        match t.config.force_technique with
        | Some tech -> tech
        | None ->
          if level = Fit.Record_level then Wal
          else if range_is_contiguous t file ~b0 ~b1 then Wal
          else Shadow_page
      in
      List.iter
        (fun (off, len) ->
          let in_place_end = min (off + len) committed_size in
          if off < in_place_end then begin
            let b0 = off / block_size and b1 = (in_place_end - 1) / block_size in
            match technique ~b0 ~b1 with
            | Wal ->
              Counter.incr t.counters "wal_intentions";
              append
                (Txn_log.Write
                   {
                     txn = txn.id;
                     file = fid;
                     off;
                     data = tentative_bytes t txn file ~off ~len:(in_place_end - off);
                   })
            | Shadow_page ->
              for bi = b0 to b1 do
                let block_off = bi * block_size in
                let post = Bytes.make block_size '\000' in
                let old = Fs.pread t.fs file ~off:block_off ~len:block_size in
                Bytes.blit old 0 post 0 (Bytes.length old);
                overlay txn ~file:fid ~off:block_off post;
                let disk =
                  match Fs.block_location t.fs file ~block_index:bi with
                  | Some (disk, _) -> disk
                  | None -> 0
                in
                let bs = Fs.block_service t.fs disk in
                let frag = Block.allocate_block bs ~blocks:1 in
                txn.shadow_allocs <- (disk, frag) :: txn.shadow_allocs;
                Block.put_block bs ~pos:frag post;
                Counter.incr t.counters "shadow_intentions";
                append
                  (Txn_log.Shadow
                     {
                       txn = txn.id;
                       file = fid;
                       block_index = bi;
                       shadow_disk = disk;
                       shadow_frag = frag;
                     })
              done
          end;
          if off + len > committed_size then begin
            let ext_off = max off committed_size in
            Counter.incr t.counters "wal_intentions";
            append
              (Txn_log.Write
                 {
                   txn = txn.id;
                   file = fid;
                   off = ext_off;
                   data = tentative_bytes t txn file ~off:ext_off ~len:(off + len - ext_off);
                 })
          end)
        (merged_intervals writes ~file:fid))
    files;
  List.rev !appended

let apply_record t = function
  | Txn_log.Write { file; off; data; _ } -> Fs.pwrite t.fs (Fs.id_of_int file) ~off data
  | Txn_log.Shadow { file; block_index; shadow_disk; shadow_frag; _ } ->
    let file = Fs.id_of_int file in
    (* Idempotent: skip if the descriptor already points at the
       shadow block (a redo after a crash mid-apply). *)
    (match Fs.block_location t.fs file ~block_index with
    | Some (d, f) when d = shadow_disk && f = shadow_frag -> ()
    | Some _ | None ->
      Fs.replace_block t.fs file ~block_index ~disk:shadow_disk ~frag:shadow_frag)
  | Txn_log.Commit _ | Txn_log.Done _ | Txn_log.Abort _ -> ()

let maybe_checkpoint t =
  if
    active_count t = 0
    && (not (Hashtbl.fold (fun _ txn acc -> acc || txn.state = Committing) t.txns false))
    && Txn_log.used_bytes t.log > Txn_log.capacity_bytes t.log / 2
  then begin
    Counter.incr t.counters "log_checkpoints";
    Txn_log.checkpoint t.log
  end

let tend_impl t txn =
  check_active t txn;
  txn.state <- Committing;
  (* A read-only transaction (no writes, no deletions) commits without
     touching the intentions list. *)
  if txn.writes = [] && txn.deleted = [] then begin
    List.iter
      (fun id -> try Fs.close_file t.fs id with Fs.File_not_found _ -> ())
      txn.opened;
    Counter.incr t.counters "commits";
    finish_txn t txn;
    Hashtbl.remove t.txns txn.id
  end
  else begin
  (match
     (* Phase boundary: record every intention, then the commit flag.
        Everything before the Commit record is tentative. *)
     (let intentions = log_intentions t txn in
      Txn_log.append t.log (Txn_log.Commit { txn = txn.id });
      (* Make permanent (the second phase of the intentions list). *)
      List.iter (apply_record t) intentions;
      Txn_log.append t.log (Txn_log.Done { txn = txn.id }))
   with
  | () -> ()
  | exception Txn_log.Log_full ->
    (* The commit never reached its Commit record: shadow blocks
       already allocated and written would leak. *)
    List.iter
      (fun (disk, frag) ->
        Block.free_block (Fs.block_service t.fs disk) ~pos:frag ~blocks:1)
      txn.shadow_allocs;
    txn.shadow_allocs <- [];
    txn.state <- Active;
    abort_internal t txn ~reason:"intentions list full" ~log_it:false;
    Hashtbl.remove t.txns txn.id;
    raise (Aborted { txn = txn.id; reason = "intentions list full" }));
  (* Deferred deletions: applied once the transaction is durable. *)
  List.iter
    (fun id ->
      match Fs.delete t.fs id with
      | () -> ()
      | exception (Fs.File_not_found _ | Fs.File_busy _) -> ())
    txn.deleted;
  List.iter
    (fun id -> try Fs.close_file t.fs id with Fs.File_not_found _ -> ())
    txn.opened;
  L.debug (fun m -> m "txn %d committed" txn.id);
  Counter.incr t.counters "commits";
  finish_txn t txn;
  Hashtbl.remove t.txns txn.id;
  maybe_checkpoint t
  end

let tend t txn =
  Trace.maybe t.tracer ~service:"txn_service" ~op:"tend"
    ~attrs:(fun () -> [ ("txn", Trace.Int txn.id) ])
    (fun () -> tend_impl t txn)

let tabort t txn =
  Trace.maybe t.tracer ~service:"txn_service" ~op:"tabort"
    ~attrs:(fun () -> [ ("txn", Trace.Int txn.id) ])
    (fun () ->
      match txn.state with
      | Active ->
        abort_internal t txn ~reason:"aborted by client" ~log_it:true;
        Hashtbl.remove t.txns txn.id
      | Committing | Finished -> Hashtbl.remove t.txns txn.id)

(* ------------------------------------------------------------------ *)
(* Adaptive default locking level (paper conclusions)                  *)
(* ------------------------------------------------------------------ *)

let suggest_locking_level t file =
  match recent_sharers t file with
  | n when n >= 3 -> Fit.Record_level
  | 2 -> Fit.Page_level
  | _ -> Fit.File_level

let apply_suggested_locking t file =
  let level = suggest_locking_level t file in
  Fs.set_locking_level t.fs file level;
  level

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)
(* ------------------------------------------------------------------ *)

type recovery_report = {
  redone_transactions : int list;
  discarded_transactions : int list;
}

let recover_service ?(config = default_config) ?tracer ~fs
    ~log_region:(region, fragments) () =
  let log = Txn_log.attach (Fs.block_service fs 0) ~region ~fragments in
  let t = build ~config ?tracer ~fs ~log () in
  let records = Txn_log.scan log in
  let committed = Hashtbl.create 8 and done_ = Hashtbl.create 8 in
  let aborted = Hashtbl.create 8 in
  (* One pass groups each transaction's intentions, newest first. *)
  let intentions = Hashtbl.create 8 in
  let max_logged = ref 0 in
  List.iter
    (fun r ->
      let txn =
        match r with
        | Txn_log.Commit { txn } -> Hashtbl.replace committed txn (); txn
        | Txn_log.Done { txn } -> Hashtbl.replace done_ txn (); txn
        | Txn_log.Abort { txn } -> Hashtbl.replace aborted txn (); txn
        | Txn_log.Write { txn; _ } | Txn_log.Shadow { txn; _ } ->
          let mine = Option.value (Hashtbl.find_opt intentions txn) ~default:[] in
          Hashtbl.replace intentions txn (r :: mine);
          txn
      in
      max_logged := max !max_logged txn)
    records;
  let to_redo =
    Hashtbl.fold
      (fun txn () acc -> if Hashtbl.mem done_ txn then acc else txn :: acc)
      committed []
    |> List.sort compare
  in
  List.iter
    (fun id ->
      (match Hashtbl.find_opt intentions id with
      | Some mine -> List.iter (apply_record t) (List.rev mine)
      | None -> ());
      Txn_log.append log (Txn_log.Done { txn = id }))
    to_redo;
  let discarded =
    Hashtbl.fold
      (fun txn _ acc ->
        if Hashtbl.mem committed txn || Hashtbl.mem aborted txn then acc
        else txn :: acc)
      intentions []
    |> List.sort compare
  in
  (* Shadow blocks written for transactions that never committed (or
     that aborted) are allocated but referenced by nothing: free them,
     or they leak forever. *)
  List.iter
    (fun r ->
      match r with
      | Txn_log.Shadow { txn; shadow_disk; shadow_frag; _ }
        when not (Hashtbl.mem committed txn) ->
        let bs = Fs.block_service fs shadow_disk in
        if
          not
            (Block.is_free bs ~pos:shadow_frag
               ~fragments:Block.fragments_per_block)
        then Block.free_block bs ~pos:shadow_frag ~blocks:1
      | _ -> ())
    records;
  (* The log can be cleared: every committed transaction is applied. *)
  Txn_log.checkpoint log;
  (* Fresh transaction ids must not collide with logged ones. *)
  t.next_id <- !max_logged + 1;
  L.info (fun m ->
      m "recovery: %d transaction(s) redone, %d discarded" (List.length to_redo)
        (List.length discarded));
  (t, { redone_transactions = to_redo; discarded_transactions = discarded })
