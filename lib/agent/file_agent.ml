module Sim = Rhodos_sim.Sim
module Cache = Rhodos_cache.Buffer_cache
module Fit = Rhodos_file.Fit
module Counter = Rhodos_util.Stats.Counter
module Trace = Rhodos_obs.Trace

let block_size = 8192

type desc = int

exception Bad_descriptor of int

type config = {
  cache_blocks : int;
  flush_interval_ms : float;
  name_cache_entries : int;
  fetch_window : int;
  max_fetch_blocks : int;
  read_ahead_blocks : int;
}

let default_config =
  {
    cache_blocks = 64;
    flush_interval_ms = 1000.;
    name_cache_entries = 32;
    fetch_window = 4;
    max_fetch_blocks = 64;
    read_ahead_blocks = 16;
  }

type open_state = {
  file : int;
  mutable pos : int;
  (* static-ok: static-race per-descriptor read-ahead state: open_file hands each client a fresh descriptor, so the pread RMW window only ever spans one owner's own reads *)
  mutable seq_next : int; (* offset the next read must start at to count as sequential *)
  mutable ra_window : int; (* current read-ahead width in blocks; 0 = cold *)
}

(* One in-flight block fetch; concurrent readers of the same block all
   wait on the same cell (single-flight dedup). *)
type fetch = (bytes, exn) result Sim.Ivar.ivar

(* [inflight] and [prefetched] are the prefetch bookkeeping that
   fetcher processes, readers and writers all race on — the hottest
   cross-process state in the agent. They live in instrumented
   [Sim.Cell]s (Sync role: single-flight dedup is lock-free by design
   in the cooperative simulator) so the sanitizer observes every
   access. *)
type t = {
  sim : Sim.t;
  conn : Service_conn.fs_conn;
  config : config;
  descs : (desc, open_state) Hashtbl.t;
  sizes : (int, int ref) Hashtbl.t; (* file -> cached size *)
  cache : (int * int) Cache.t;      (* (file, block index) -> 8 KiB *)
  inflight : (int * int, fetch) Hashtbl.t Sim.Cell.cell;
  prefetched : (int * int, unit) Hashtbl.t Sim.Cell.cell;
      (* read-ahead blocks not yet consumed *)
  fetch_slots : Sim.Semaphore.sem;  (* bounds concurrent fetch RPCs *)
  name_cache : (string, int) Hashtbl.t Sim.Cell.cell;
      (* path -> file id; racy lookup/RPC/insert windows, so the cell
         keeps every access on the sanitizer's books *)
  mutable next_desc : desc;
  counters : Counter.t;
  name_counters : Counter.t;
  tracer : Trace.t option;
}

(* Read / mutate a tracking table through its cell; [mut] runs the
   in-place mutation under an [update] so it registers as a write. *)
let tbl = Sim.Cell.get

let mut c f =
  Sim.Cell.update c (fun h ->
      f h;
      h)

(* Reserved redirection descriptors (paper section 3). *)
let stdout_redirect = 100_001
let stdin_redirect = 100_002
let stderr_redirect = 100_003
let first_dynamic_desc = 100_004

let is_file_descriptor d = d > 100_000

let size_ref t file =
  match Hashtbl.find_opt t.sizes file with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace t.sizes file r;
    r

(* Write one contiguous run of dirty blocks as a single range pwrite,
   trimmed to the file's logical size so a partial tail block does not
   extend the file with padding. [blocks] is ascending and contiguous;
   each carries the cache's mark-written thunk, invoked just before
   the run goes on the wire so a crash loses at most this one run. *)
let flush_run ~sizes ~counters ~(conn : Service_conn.fs_conn) file blocks =
  match blocks with
  | [] -> ()
  | (b0, _, _) :: _ ->
    let size = match Hashtbl.find_opt sizes file with Some r -> !r | None -> 0 in
    let bl = List.length blocks - 1 + b0 in
    let start = b0 * block_size in
    let stop = min ((bl + 1) * block_size) size in
    if stop > start then begin
      let out = Bytes.create (stop - start) in
      List.iter
        (fun (bi, data, _) ->
          let s = bi * block_size in
          let len = min block_size (stop - s) in
          if len > 0 then Bytes.blit data 0 out (s - start) len)
        blocks;
      Counter.incr counters "remote_writes";
      if List.length blocks > 1 then
        Counter.add counters "coalesced_block_writes" (List.length blocks - 1);
      List.iter (fun (_, _, written) -> written ()) blocks;
      conn.Service_conn.pwrite file ~off:start ~data:out
    end
    else
      (* Entirely beyond the logical size: nothing to persist. *)
      List.iter (fun (_, _, written) -> written ()) blocks

(* Regroup the dirty set into per-file runs of contiguous blocks, one
   range pwrite per run. Entries arrive oldest-dirty-first; files go
   out in order of their oldest dirty block, each file's runs in block
   order — so across flushes the oldest data still leaves first. *)
let writeback_batch ~sizes ~counters ~conn entries =
  let files = ref [] in
  let by_file = Hashtbl.create 8 in
  List.iter
    (fun ((file, bi), data, written) ->
      if not (Hashtbl.mem by_file file) then begin
        files := file :: !files;
        Hashtbl.replace by_file file []
      end;
      Hashtbl.replace by_file file
        ((bi, data, written) :: Hashtbl.find by_file file))
    entries;
  List.iter
    (fun file ->
      let blocks =
        List.sort
          (fun (a, _, _) (b, _, _) -> compare a b)
          (Hashtbl.find by_file file)
      in
      let rec runs acc cur = function
        | [] -> List.rev (List.rev cur :: acc)
        | (bi, data, written) :: rest -> (
          match cur with
          | (prev, _, _) :: _ when bi = prev + 1 ->
            runs acc ((bi, data, written) :: cur) rest
          | [] -> runs acc [ (bi, data, written) ] rest
          | _ -> runs (List.rev cur :: acc) [ (bi, data, written) ] rest)
      in
      List.iter (flush_run ~sizes ~counters ~conn file) (runs [] [] blocks))
    (List.rev !files)

let create ?(config = default_config) ?tracer ~sim
    ~(conn : Service_conn.fs_conn) () =
  let sizes = Hashtbl.create 16 in
  let counters = Counter.create () in
  let prefetched =
    Sim.Cell.create ~role:Sim.Sync ~name:"file_agent:prefetched" sim
      (Hashtbl.create 16)
  in
  (* Write back one dirty block (eviction path), trimmed like a run;
     the cache has already marked it clean. *)
  let writeback (file, bi) data =
    flush_run ~sizes ~counters ~conn file [ (bi, data, fun () -> ()) ]
  in
  let writeback_batch entries =
    Trace.maybe tracer ~service:"file_agent" ~op:"flush_batch"
      ~attrs:(fun () -> [ ("dirty", Trace.Int (List.length entries)) ])
      (fun () -> writeback_batch ~sizes ~counters ~conn entries)
  in
  let on_evict key =
    if Hashtbl.mem (tbl prefetched) key then begin
      mut prefetched (fun h -> Hashtbl.remove h key);
      Counter.incr counters "prefetch_wasted"
    end
  in
  {
    sim;
    conn;
    config;
    descs = Hashtbl.create 16;
    sizes;
    cache =
      Cache.create ~name:"file-agent-cache" ~writeback_batch ~on_evict ~sim
        ~capacity:(max 1 config.cache_blocks)
        ~policy:
          (if config.cache_blocks = 0 then Cache.Write_through
           else Cache.Delayed_write { flush_interval_ms = config.flush_interval_ms })
        ~writeback ();
    inflight =
      Sim.Cell.create ~role:Sim.Sync ~name:"file_agent:inflight" sim
        (Hashtbl.create 16);
    prefetched;
    fetch_slots = Sim.Semaphore.create sim (max 1 config.fetch_window);
    name_cache =
      Sim.Cell.create ~role:Sim.Sync ~name:"file_agent:name-cache" sim
        (Hashtbl.create 16);
    next_desc = first_dynamic_desc;
    counters;
    name_counters = Counter.create ();
    tracer;
  }

let stats t = t.counters
let cache_stats t = Cache.stats t.cache
let buffer_pool t = t.cache
let name_cache_stats t = t.name_counters
let open_count t = Hashtbl.length t.descs

let state t d =
  match Hashtbl.find_opt t.descs d with
  | Some s -> s
  | None -> raise (Bad_descriptor d)

let descriptor_file t d = (state t d).file

let resolve_path t path =
  match Hashtbl.find_opt (tbl t.name_cache) path with
  | Some id ->
    Counter.incr t.name_counters "hits";
    id
  | None ->
    Counter.incr t.name_counters "misses";
    let id = t.conn.Service_conn.resolve [ ("type", "FILE"); ("path", path) ] in
    mut t.name_cache (fun h ->
        if Hashtbl.length h >= t.config.name_cache_entries then
          Hashtbl.reset h;
        Hashtbl.replace h path id);
    id

let install t ~desc file attrs =
  (size_ref t file) := attrs.Fit.size;
  Hashtbl.replace t.descs desc { file; pos = 0; seq_next = 0; ra_window = 0 }

let fresh_desc t =
  let d = t.next_desc in
  t.next_desc <- d + 1;
  d

let open_file t ~path =
  Trace.maybe t.tracer ~service:"file_agent" ~op:"open"
    ~attrs:(fun () -> [ ("path", Trace.Str path) ])
    (fun () ->
      let file = resolve_path t path in
      let attrs = t.conn.Service_conn.open_file file in
      let d = fresh_desc t in
      install t ~desc:d file attrs;
      d)

let create_file_impl t ~path =
  let file = t.conn.Service_conn.create_file () in
  t.conn.Service_conn.bind ~path ~file_id:file;
  let attrs = t.conn.Service_conn.open_file file in
  let d = fresh_desc t in
  install t ~desc:d file attrs;
  d

let create_file t ~path =
  Trace.maybe t.tracer ~service:"file_agent" ~op:"create"
    ~attrs:(fun () -> [ ("path", Trace.Str path) ])
    (fun () -> create_file_impl t ~path)

let open_redirect t ~path ~slot =
  let d =
    match slot with
    | `Stdout -> stdout_redirect
    | `Stdin -> stdin_redirect
    | `Stderr -> stderr_redirect
  in
  let file =
    match resolve_path t path with
    | id -> id
    | exception
        Rhodos_naming.Name_service.(Name_not_found _ | Unresolvable _) ->
      let id = t.conn.Service_conn.create_file () in
      t.conn.Service_conn.bind ~path ~file_id:id;
      id
  in
  let attrs = t.conn.Service_conn.open_file file in
  (match Hashtbl.find_opt t.descs d with
  | Some old -> t.conn.Service_conn.close_file old.file
  | None -> ());
  install t ~desc:d file attrs;
  d

(* ------------------------------------------------------------------ *)
(* Cached data path: coalesced, pipelined, single-flight fetches        *)
(* ------------------------------------------------------------------ *)

let pad_block fetched =
  if Bytes.length fetched = block_size then fetched
  else begin
    let b = Bytes.make block_size '\000' in
    Bytes.blit fetched 0 b 0 (Bytes.length fetched);
    b
  end

(* Publish a fetched block: insert into the cache and wake the waiters.
   The inflight registration is re-checked by physical identity — a
   crash or invalidation between issue and completion clears it, and a
   superseded fetch must not resurrect stale data into the cache (its
   waiters still get the bytes they asked for). *)
let complete_block t iv file bi block =
  (match Hashtbl.find_opt (tbl t.inflight) (file, bi) with
  | Some iv' when iv' == iv ->
    mut t.inflight (fun h -> Hashtbl.remove h (file, bi));
    Cache.insert_clean t.cache (file, bi) block
  | Some _ | None -> ());
  Sim.Ivar.fill iv (Ok block)

let fail_block t iv file bi e =
  (match Hashtbl.find_opt (tbl t.inflight) (file, bi) with
  | Some iv' when iv' == iv ->
    mut t.inflight (fun h -> Hashtbl.remove h (file, bi));
    (* A failed read-ahead delivered nothing: drop its reservation so
       a later demand read of the block cannot count a phantom
       prefetch hit (counted as neither hit nor waste). *)
    mut t.prefetched (fun h -> Hashtbl.remove h (file, bi))
  | Some _ | None -> ());
  if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill iv (Error e)

(* Fetch one contiguous run [c0..c1] whose cells are already registered
   in [t.inflight]. One remote read per run: streamed when the
   connection supports it and the run spans several blocks (the server
   pushes chunks as it reads, overlapping disk and wire), a plain range
   pread otherwise. Lost stream chunks are re-fetched individually.
   Failures are delivered through the cells, never raised: this runs in
   detached fetcher processes. *)
let run_fetch t file ivars c0 c1 =
  let nblocks = c1 - c0 + 1 in
  let deliver_range ~off data =
    if off mod block_size = 0 then begin
      let nb = (Bytes.length data + block_size - 1) / block_size in
      for k = 0 to nb - 1 do
        let bi = (off / block_size) + k in
        match List.assoc_opt bi ivars with
        | Some iv when not (Sim.Ivar.is_filled iv) ->
          let boff = k * block_size in
          let avail = min block_size (Bytes.length data - boff) in
          complete_block t iv file bi (pad_block (Bytes.sub data boff avail))
        | Some _ | None -> ()
      done
    end
  in
  try
    (match t.conn.Service_conn.pread_stream with
    | Some stream when nblocks > 1 ->
      Counter.incr t.counters "remote_reads";
      stream file ~off:(c0 * block_size) ~len:(nblocks * block_size)
        ~on_chunk:deliver_range;
      (* Holes (lost chunks) fall back to plain per-block preads. *)
      List.iter
        (fun (bi, iv) ->
          if not (Sim.Ivar.is_filled iv) then begin
            Counter.incr t.counters "remote_reads";
            let data =
              t.conn.Service_conn.pread file ~off:(bi * block_size)
                ~len:block_size
            in
            if not (Sim.Ivar.is_filled iv) then
              complete_block t iv file bi (pad_block data)
          end)
        ivars
    | Some _ | None ->
      Counter.incr t.counters "remote_reads";
      let data =
        t.conn.Service_conn.pread file ~off:(c0 * block_size)
          ~len:(nblocks * block_size)
      in
      deliver_range ~off:(c0 * block_size) data;
      (* A short read (range beyond EOF) leaves tail cells unfilled:
         publish them as zero blocks, as the per-block path did. *)
      List.iter
        (fun (bi, iv) ->
          if not (Sim.Ivar.is_filled iv) then
            complete_block t iv file bi (Bytes.make block_size '\000'))
        ivars);
    if nblocks > 1 then Counter.add t.counters "coalesced_block_reads" (nblocks - 1)
  with
  | Sim.Killed as e ->
    List.iter
      (fun (bi, iv) ->
        fail_block t iv file bi (Failure "file_agent: fetch aborted"))
      ivars;
    raise e
  | e -> List.iter (fun (bi, iv) -> fail_block t iv file bi e) ivars

(* Register cells for [c0..c1], split by [max_fetch_blocks], and spawn
   one fetcher process per piece; the window semaphore bounds how many
   fetch RPCs are actually in flight. Returns every (block, cell)
   registered, in ascending block order. *)
let issue_fetch t file c0 c1 ~prefetch =
  let maxb = max 1 t.config.max_fetch_blocks in
  let pieces = ref [] in
  let p0 = ref c0 in
  while !p0 <= c1 do
    let p1 = min c1 (!p0 + maxb - 1) in
    let ivars =
      List.init (p1 - !p0 + 1) (fun i ->
          let bi = !p0 + i in
          let iv = Sim.Ivar.create t.sim in
          mut t.inflight (fun h -> Hashtbl.replace h (file, bi) iv);
          (bi, iv))
    in
    if prefetch then begin
      Counter.add t.counters "prefetch_issued" (List.length ivars);
      mut t.prefetched (fun h ->
          List.iter (fun (bi, _) -> Hashtbl.replace h (file, bi) ()) ivars)
    end;
    pieces := (!p0, p1, ivars) :: !pieces;
    p0 := p1 + 1
  done;
  let pieces = List.rev !pieces in
  List.iter
    (fun (p0, p1, ivars) ->
      ignore
        (Sim.spawn ~name:"fa-fetch" t.sim (fun () ->
             let fetch () =
               Sim.Semaphore.with_acquire t.fetch_slots (fun () ->
                   run_fetch t file ivars p0 p1)
             in
             if prefetch then
               Trace.maybe t.tracer ~service:"file_agent" ~op:"read_ahead"
                 ~attrs:(fun () ->
                   [ ("file", Trace.Int file); ("first_block", Trace.Int p0);
                     ("blocks", Trace.Int (p1 - p0 + 1)) ])
                 fetch
             else fetch ())))
    pieces;
  List.concat_map (fun (_, _, ivars) -> ivars) pieces

let await iv =
  match Sim.Ivar.read iv with Ok data -> data | Error e -> raise e

let note_prefetch_hit t file bi =
  if Hashtbl.mem (tbl t.prefetched) (file, bi) then begin
    mut t.prefetched (fun h -> Hashtbl.remove h (file, bi));
    Counter.incr t.counters "prefetch_hits"
  end

(* Forget everything tracked about a block that is being superseded
   (written over, invalidated, deleted): the in-flight registration —
   so a fetch completing later fails complete_block's identity check
   instead of clobbering newer data — and any unconsumed read-ahead
   reservation, which is now wasted. *)
let drop_block_tracking t file bi =
  mut t.inflight (fun h -> Hashtbl.remove h (file, bi));
  if Hashtbl.mem (tbl t.prefetched) (file, bi) then begin
    mut t.prefetched (fun h -> Hashtbl.remove h (file, bi));
    Counter.incr t.counters "prefetch_wasted"
  end

(* Issue read-ahead for up to [ra] blocks past [b1], skipping anything
   cached or already in flight. Fire-and-forget: the reader never waits
   on these. *)
let issue_read_ahead t file ~b1 ~ra ~size =
  if ra > 0 && size > 0 then begin
    let last_block = (size - 1) / block_size in
    let p0 = b1 + 1 and p1 = min (b1 + ra) last_block in
    let i = ref p0 in
    while !i <= p1 do
      if Cache.mem t.cache (file, !i) || Hashtbl.mem (tbl t.inflight) (file, !i)
      then incr i
      else begin
        let j = ref !i in
        while
          !j + 1 <= p1
          && (not (Cache.mem t.cache (file, !j + 1)))
          && not (Hashtbl.mem (tbl t.inflight) (file, !j + 1))
        do
          incr j
        done;
        ignore (issue_fetch t file !i !j ~prefetch:true);
        i := !j + 1
      end
    done
  end

(* The read path: classify every needed block (cached / in flight /
   missing), issue one coalesced fetch per missing run, kick off
   read-ahead, then assemble — waiting only on the cells this read
   needs. Independent runs fetch concurrently under the window. *)
let pread_core t file ~off ~len ~ra =
  Counter.incr t.counters "reads";
  let size = !(size_ref t file) in
  let len = max 0 (min len (size - off)) in
  if len = 0 then Bytes.empty
  else if t.config.cache_blocks = 0 then begin
    Counter.incr t.counters "remote_reads";
    t.conn.Service_conn.pread file ~off ~len
  end
  else begin
    let b0 = off / block_size and b1 = (off + len - 1) / block_size in
    let n = b1 - b0 + 1 in
    let slots = Array.make n `Miss in
    for i = 0 to n - 1 do
      let bi = b0 + i in
      note_prefetch_hit t file bi;
      match Cache.find t.cache (file, bi) with
      | Some data -> slots.(i) <- `Have data
      | None -> (
        match Hashtbl.find_opt (tbl t.inflight) (file, bi) with
        | Some iv -> slots.(i) <- `Wait iv
        | None -> ())
    done;
    let i = ref 0 in
    while !i < n do
      match slots.(!i) with
      | `Miss ->
        let j = ref !i in
        while
          !j + 1 < n && (match slots.(!j + 1) with `Miss -> true | _ -> false)
        do
          incr j
        done;
        List.iter
          (fun (bi, iv) -> slots.(bi - b0) <- `Wait iv)
          (issue_fetch t file (b0 + !i) (b0 + !j) ~prefetch:false);
        i := !j + 1
      | _ -> incr i
    done;
    issue_read_ahead t file ~b1 ~ra ~size;
    let out = Bytes.create len in
    for i = 0 to n - 1 do
      let bi = b0 + i in
      let data =
        match slots.(i) with
        | `Have data -> data
        | `Wait iv -> await iv
        | `Miss -> assert false
      in
      let file_start = bi * block_size in
      let s = max off file_start
      and e = min (off + len) (file_start + block_size) in
      Bytes.blit data (s - file_start) out (s - off) (e - s)
    done;
    out
  end

let pread_file_ra t file ~off ~len ~ra =
  Trace.maybe t.tracer ~service:"file_agent" ~op:"pread"
    ~attrs:(fun () ->
      [ ("file", Trace.Int file); ("off", Trace.Int off);
        ("len", Trace.Int len) ])
    (fun () -> pread_core t file ~off ~len ~ra)

(* Per-descriptor adaptive read-ahead: a read starting exactly where
   the previous one ended doubles the window (capped by the config); a
   seek anywhere else resets it to cold. *)
let pread_desc t s ~off ~len =
  (if off = s.seq_next then
     s.ra_window <- min t.config.read_ahead_blocks (max 2 (s.ra_window * 2))
   else s.ra_window <- 0);
  let out = pread_file_ra t s.file ~off ~len ~ra:s.ra_window in
  s.seq_next <- off + Bytes.length out;
  out

(* Fetch a single block through the same single-flight machinery (used
   by partial-block writes that must read-modify-write). Consuming a
   read-ahead block as the RMW base counts as a prefetch hit. *)
let load_block t file bi =
  let data =
    match Cache.find t.cache (file, bi) with
    | Some data -> data
    | None -> (
      match Hashtbl.find_opt (tbl t.inflight) (file, bi) with
      | Some iv -> await iv
      | None -> (
        match issue_fetch t file bi bi ~prefetch:false with
        | [ (_, iv) ] -> await iv
        | _ -> assert false))
  in
  note_prefetch_hit t file bi;
  data

let pwrite_file_impl t file ~off ~data =
  Counter.incr t.counters "writes";
  let len = Bytes.length data in
  if len > 0 then begin
    let size = size_ref t file in
    let old_size = !size in
    if t.config.cache_blocks = 0 then begin
      Counter.incr t.counters "remote_writes";
      t.conn.Service_conn.pwrite file ~off ~data;
      if off + len > old_size then size := off + len
    end
    else begin
      (* Raise the logical size before the loop: a flush that runs
         while [Cache.write] waits on an eviction trims dirty blocks to
         it, and would drop the blocks this write adds. *)
      if off + len > old_size then size := off + len;
      let b0 = off / block_size and b1 = (off + len - 1) / block_size in
      for bi = b0 to b1 do
        let file_start = bi * block_size in
        let s = max off file_start and e = min (off + len) (file_start + block_size) in
        let block =
          if s = file_start && e = file_start + block_size then
            Bytes.sub data (s - off) block_size
          else begin
            (* Partial block: start from the old content when the
               block already has bytes inside the file. *)
            let base =
              if file_start < old_size then Bytes.copy (load_block t file bi)
              else Bytes.make block_size '\000'
            in
            Bytes.blit data (s - off) base (s - file_start) (e - s);
            base
          end
        in
        (* The write supersedes any fetch still in flight for this
           block (e.g. a read-ahead): deregister it so its completion
           cannot replace the new dirty data with stale bytes — it
           would insert as clean while leaving the block marked dirty,
           losing this write on the next flush. Waiters on the old
           cell still get the bytes they asked for. *)
        drop_block_tracking t file bi;
        Cache.write t.cache (file, bi) block
      done
    end
  end

let pwrite_file t file ~off ~data =
  Trace.maybe t.tracer ~service:"file_agent" ~op:"pwrite"
    ~attrs:(fun () ->
      [ ("file", Trace.Int file); ("off", Trace.Int off);
        ("len", Trace.Int (Bytes.length data)) ])
    (fun () -> pwrite_file_impl t file ~off ~data)

(* ------------------------------------------------------------------ *)
(* Descriptor operations                                               *)
(* ------------------------------------------------------------------ *)

let read t d len =
  let s = state t d in
  let out = pread_desc t s ~off:s.pos ~len in
  s.pos <- s.pos + Bytes.length out;
  out

let write t d data =
  let s = state t d in
  pwrite_file t s.file ~off:s.pos ~data;
  s.pos <- s.pos + Bytes.length data

let pread t d ~off ~len =
  let s = state t d in
  pread_desc t s ~off ~len

let pwrite t d ~off ~data = pwrite_file t (state t d).file ~off ~data

let size t d = !(size_ref t (state t d).file)

let lseek t d whence =
  let s = state t d in
  let target =
    match whence with
    | `Set p -> p
    | `Cur delta -> s.pos + delta
    | `End delta -> !(size_ref t s.file) + delta
  in
  if target < 0 then invalid_arg "lseek: negative position";
  s.pos <- target;
  target

let get_attribute t d =
  let s = state t d in
  let a = t.conn.Service_conn.get_attributes s.file in
  (* The agent may hold newer (not yet flushed) size information. *)
  { a with Fit.size = max a.Fit.size !(size_ref t s.file) }

let flush_file t file =
  let size = !(size_ref t file) in
  let blocks = (size + block_size - 1) / block_size in
  Cache.flush_keys t.cache (List.init blocks (fun bi -> (file, bi)))

let close t d =
  let s = state t d in
  flush_file t s.file;
  t.conn.Service_conn.close_file s.file;
  Hashtbl.remove t.descs d

let delete t ~path =
  let file = resolve_path t path in
  let size = !(size_ref t file) in
  for bi = 0 to ((size + block_size - 1) / block_size) - 1 do
    Cache.invalidate t.cache (file, bi);
    drop_block_tracking t file bi
  done;
  mut t.name_cache (fun h -> Hashtbl.remove h path);
  Hashtbl.remove t.sizes file;
  t.conn.Service_conn.delete_file file;
  t.conn.Service_conn.unbind path

let invalidate_file t ~file =
  match Hashtbl.find_opt t.sizes file with
  | None -> () (* nothing of this file is cached *)
  | Some size ->
    for bi = 0 to ((!size + block_size - 1) / block_size) - 1 do
      Cache.invalidate t.cache (file, bi);
      drop_block_tracking t file bi
    done;
    (match t.conn.Service_conn.get_attributes file with
    | attrs -> size := attrs.Fit.size
    | exception (Sim.Killed as k) -> raise k
    | exception _ -> Hashtbl.remove t.sizes file)

let flush t = Cache.flush t.cache

let crash t =
  let lost = Cache.crash t.cache in
  Hashtbl.reset t.descs;
  Hashtbl.reset t.sizes;
  mut t.name_cache (fun h -> Hashtbl.reset h);
  (* In-flight fetches may still complete; clearing the registrations
     keeps them from resurrecting pre-crash data into the fresh cache. *)
  mut t.inflight (fun h -> Hashtbl.reset h);
  mut t.prefetched (fun h -> Hashtbl.reset h);
  lost
