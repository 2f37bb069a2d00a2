module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Stable = Rhodos_stable.Stable_store
module Bitset = Rhodos_util.Bitset
module Counter = Rhodos_util.Stats.Counter
module Lru = Rhodos_util.Lru
module Trace = Rhodos_obs.Trace

module L = (val Logs.src_log (Rhodos_util.Logging.src "block") : Logs.LOG)

let fragment_bytes = 2048
let fragments_per_block = 4
let block_bytes = fragment_bytes * fragments_per_block

exception No_space of { wanted_fragments : int; free_fragments : int }
exception Not_formatted of string

type dest = Original | Stable_only | Original_and_stable
type wait = Wait_stable | Return_early
type source = Main | Stable

type config = { track_cache_tracks : int; bitmap_write_through : bool }

let default_config = { track_cache_tracks = 32; bitmap_write_through = true }

(* The 64x64 free-extent array of the paper: row [r] caches free
   extents of exactly [r+1] fragments; the last row also accepts
   longer runs. Entries are (position, length). The bitmap remains the
   ground truth: a full row silently drops the reference. *)
let array_rows = 64
let row_capacity = 64

(* What the superblock holds besides the geometry: the boot count and
   the chunk map, one bit per [Stable.chunk_pages] fragments, set when
   the chunk may hold a stable copy (see [attach]). *)
type superblock = { boots : int64; chunks : Bitset.t }

(* One whole-track disk read in flight. Its buffer starts at track
   [first_track]; the ivar carries it, or [None] when the read failed
   or its issuer died, which sends the joined readers to the disk
   themselves. *)
type track_read = { first_track : int; buf : bytes option Sim.Ivar.ivar }

type t = {
  name : string;
  sim : Sim.t;
  disk : Disk.t;
  stable : Stable.t option;
  tracer : Trace.t option;
  config : config;
  sectors_per_fragment : int;
  total_fragments : int;
  bitmap_start : int;          (* first bitmap fragment *)
  bitmap_fragments : int;
  data_start : int;            (* first allocatable fragment *)
  mutable bitmap : Bitset.t;   (* bit set = fragment allocated *)
  masked : (int, int) Hashtbl.t;
      (* pos -> fragments: allocated in [bitmap] but persisted as free
         (see [reserve_block] and [retire]) *)
  extent_rows : (int * int) list array;
  (* Write-once format latch: [format] flips it before any client traffic
     exists; every access from a conn root only reads.
     static-ok: static-race write-once latch *)
  mutable formatted : bool;
  (* track cache *)
  tracks : (int, bytes) Lru.t;
  track_gen : (int, int) Hashtbl.t;  (* bumped by every write to the track *)
  inflight : (int, track_read) Hashtbl.t Sim.Cell.cell;
      (* track -> the read that will deliver it; concurrent misses on a
         track join it instead of queueing their own (single-flight) *)
  (* background stable writes outstanding *)
  mutable pending_background : int;
  background_done : Sim.Condition.cond;
  durable_sb : superblock Sim.Cell.cell;
      (* The superblock as it is on disk. [mark_chunks] replaces it
         under [sb_writer] and reads it without, to skip the writer
         when its chunks are marked already: only [format] and
         [attach], before anything else runs, clear bits. The metadata
         chunks are always set. *)
  sb_writer : Sim.Semaphore.sem; (* one superblock write in flight *)
  counters : Counter.t;
}

let superblock_magic = 0x524B4C42l (* "BLKR" *)

let bits_per_fragment = fragment_bytes * 8

(* The chunk map starts at this superblock byte. *)
let chunk_map_offset = 40

let chunk_of frag = frag / Stable.chunk_pages

(* The chunks that hold fragments [0, n). *)
let chunks_below n = chunk_of (n + Stable.chunk_pages - 1)

(* A map with only the chunks holding [0, data_start) set. *)
let metadata_chunk_map ~total_fragments ~data_start =
  let chunks = Bitset.create (chunks_below total_fragments) in
  Bitset.set_range chunks ~pos:0 ~len:(chunks_below data_start);
  chunks

let create ?(name = "blocksrv") ?(config = default_config) ?tracer ~disk ?stable () =
  let g = Disk.geometry disk in
  if fragment_bytes mod g.sector_bytes <> 0 then
    invalid_arg "Block_service: sector size must divide the fragment size";
  let sectors_per_fragment = fragment_bytes / g.sector_bytes in
  let total_fragments = Disk.capacity_sectors disk / sectors_per_fragment in
  if total_fragments < 8 then invalid_arg "Block_service: disk too small";
  if (chunks_below total_fragments + 7) / 8 > fragment_bytes - chunk_map_offset then
    invalid_arg "Block_service: disk too large for the superblock's chunk map";
  let bitmap_fragments = (total_fragments + bits_per_fragment - 1) / bits_per_fragment in
  let data_start = 1 + bitmap_fragments in
  let stable =
    Option.map
      (fun (primary, mirror) ->
        Stable.create ~primary ~primary_sector:0 ~mirror ~mirror_sector:0
          ~page_bytes:fragment_bytes ~npages:total_fragments)
      stable
  in
  let sim = Disk.sim disk in
  {
    name;
    sim;
    disk;
    stable;
    tracer;
    config;
    sectors_per_fragment;
    total_fragments;
    bitmap_start = 1;
    bitmap_fragments;
    data_start;
    bitmap = Bitset.create total_fragments;
    masked = Hashtbl.create 8;
    extent_rows = Array.make array_rows [];
    formatted = false;
    tracks = Lru.create 64;
    track_gen = Hashtbl.create 64;
    inflight =
      Sim.Cell.create ~role:Sim.Sync ~name:"block_service:inflight" sim
        (Hashtbl.create 16);
    pending_background = 0;
    background_done = Sim.Condition.create sim;
    durable_sb =
      Sim.Cell.create ~role:Sim.Sync ~name:"block_service:superblock" sim
        { boots = 0L; chunks = metadata_chunk_map ~total_fragments ~data_start };
    sb_writer = Sim.Semaphore.create sim 1;
    counters = Counter.create ();
  }

let name t = t.name
let disk t = t.disk
let sim t = t.sim
let has_stable t = t.stable <> None
let total_fragments t = t.total_fragments
let data_fragments t = t.total_fragments - t.data_start
let free_fragments t = Bitset.count_clear t.bitmap
let stats t = t.counters
let reset_stats t = Counter.reset t.counters

let check_formatted t =
  if not t.formatted then raise (Not_formatted t.name)

let check_run t ~pos ~fragments =
  if fragments <= 0 || pos < 0 || pos + fragments > t.total_fragments then
    invalid_arg
      (Printf.sprintf "%s: fragment run [%d,+%d) out of range" t.name pos fragments)

(* ------------------------------------------------------------------ *)
(* Extent array                                                        *)
(* ------------------------------------------------------------------ *)

let row_for_length len = min len array_rows - 1

let insert_extent t ~pos ~len =
  if len > 0 then begin
    let row = row_for_length len in
    if List.length t.extent_rows.(row) < row_capacity then
      t.extent_rows.(row) <- (pos, len) :: t.extent_rows.(row)
    else Counter.incr t.counters "extent_overflow"
  end

let remove_overlapping_extents t ~pos ~len =
  let overlaps (p, l) = p < pos + len && pos < p + l in
  Array.iteri
    (fun i row -> t.extent_rows.(i) <- List.filter (fun e -> not (overlaps e)) row)
    t.extent_rows

let rebuild_extent_array t =
  Array.fill t.extent_rows 0 array_rows [];
  Bitset.iter_clear_runs t.bitmap (fun ~pos ~len -> insert_extent t ~pos ~len)

let extent_array_entries t =
  Array.to_list t.extent_rows |> List.concat
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let extent_array_consistent t =
  let entries = extent_array_entries t in
  let free_ok =
    List.for_all (fun (pos, len) -> Bitset.range_all_clear t.bitmap ~pos ~len) entries
  in
  let rec no_overlap = function
    | (p1, l1) :: ((p2, _) :: _ as rest) -> p1 + l1 <= p2 && no_overlap rest
    | _ -> true
  in
  free_ok && no_overlap entries

let is_free t ~pos ~fragments =
  check_run t ~pos ~fragments;
  Bitset.range_all_clear t.bitmap ~pos ~len:fragments

let metadata_fragments t = t.data_start

(* ------------------------------------------------------------------ *)
(* Track cache                                                         *)
(* ------------------------------------------------------------------ *)

let sectors_per_track t = (Disk.geometry t.disk).sectors_per_track
let sector_bytes t = (Disk.geometry t.disk).sector_bytes

(* The in-flight table lives in a cell; [mut] runs an in-place
   mutation under an [update] so it registers as a write. *)
let mut c f =
  Sim.Cell.update c (fun h ->
      f h;
      h)

(* Writes call this on every put: skip the allocating update when
   nothing is in flight. *)
let drop_inflight t ~first_track ~last_track =
  if Hashtbl.length (Sim.Cell.get t.inflight) > 0 then
    mut t.inflight (fun h ->
        for tr = first_track to last_track do
          Hashtbl.remove h tr
        done)

let evict_if_needed t =
  while Lru.length t.tracks > t.config.track_cache_tracks do
    match Lru.lru t.tracks with
    | Some (key, _) -> Lru.remove t.tracks key
    | None -> ()
  done

let bump_gen t track_idx =
  let g = match Hashtbl.find_opt t.track_gen track_idx with Some g -> g | None -> 0 in
  Hashtbl.replace t.track_gen track_idx (g + 1)

let gen_of t track_idx =
  match Hashtbl.find_opt t.track_gen track_idx with Some g -> g | None -> 0

let cache_insert t track_idx data =
  if t.config.track_cache_tracks > 0 then begin
    Lru.replace t.tracks track_idx data;
    evict_if_needed t
  end

(* Copy track [tr]'s share of [sector, sector+count) into [out] from
   [src], a buffer of whole tracks that starts at track [src_track]. *)
let blit_track t ~src ~src_track ~tr ~sector ~count out =
  let spt = sectors_per_track t in
  let sb = sector_bytes t in
  let tr_first_sector = tr * spt in
  let lo = max sector tr_first_sector in
  let hi = min (sector + count) (tr_first_sector + spt) in
  Bytes.blit src ((lo - (src_track * spt)) * sb) out ((lo - sector) * sb)
    ((hi - lo) * sb)

(* Overlay freshly written data onto any cached track it touches. A
   track read already in flight may predate the write: bumping the
   generation stops it from caching its bytes, and dropping its
   in-flight entry stops new readers from joining it. *)
let cache_update_on_write t ~sector data =
  let spt = sectors_per_track t in
  let sb = sector_bytes t in
  let count = Bytes.length data / sb in
  let first_track = sector / spt and last_track = (sector + count - 1) / spt in
  drop_inflight t ~first_track ~last_track;
  for tr = first_track to last_track do
    bump_gen t tr;
    match Lru.peek t.tracks tr with
    | None -> ()
    | Some track ->
      let tr_first_sector = tr * spt in
      let lo = max sector tr_first_sector in
      let hi = min (sector + count) (tr_first_sector + spt) in
      Bytes.blit data ((lo - sector) * sb) track ((lo - tr_first_sector) * sb)
        ((hi - lo) * sb)
  done

let background_started t = t.pending_background <- t.pending_background + 1

let background_finished t =
  t.pending_background <- t.pending_background - 1;
  if t.pending_background = 0 then Sim.Condition.broadcast t.background_done

(* ------------------------------------------------------------------ *)
(* Data transfer                                                       *)
(* ------------------------------------------------------------------ *)

let stable_exn t =
  match t.stable with
  | Some s -> s
  | None -> invalid_arg (t.name ^ ": no stable storage configured")

let exact_read t ~sector ~count =
  let data = Disk.read t.disk ~sector ~count in
  Counter.incr t.counters "foreground_refs";
  data

(* The paper's disk-service caching: fetch what the request needs and
   "the rest of the data from the same track", all as one trip to the
   disk. Tracks [first_track, last_track] are read whole in a single
   reference and cached; the buffer comes back, or [None] when a
   decayed sector failed the read. While the read runs it is
   registered in [t.inflight] for misses on the same tracks to join. A
   track written meanwhile keeps the bytes of the write, not the
   read's: its generation moved, so it is not cached.

   A one-track read's buffer becomes the cached track as it is, with no
   copy; a multi-track read copies each track out. Sharing is safe for
   three reasons. [Disk.read] returns a fresh buffer no one else holds.
   [read_tracks] copies out of it before anything can block, and every
   [get_block] result is a fresh buffer, never the cached track. And
   the only in-place edit of a cached track is [cache_update_on_write]'s
   overlay: a reader that joined the read and wakes after a later write
   copies the written bytes, which is the track's content at the moment
   it copies, just what a cached-track hit returns then. *)
let issue_track_read t ~sector ~count ~first_track ~last_track =
  let spt = sectors_per_track t in
  let sb = sector_bytes t in
  let read_start = first_track * spt in
  let read_count = (last_track - first_track + 1) * spt in
  let gens =
    List.init (last_track - first_track + 1) (fun i -> gen_of t (first_track + i))
  in
  let r = { first_track; buf = Sim.Ivar.create t.sim } in
  mut t.inflight (fun h ->
      for tr = first_track to last_track do
        Hashtbl.replace h tr r
      done);
  let fetched = ref None in
  Fun.protect
    ~finally:(fun () ->
      Sim.Ivar.fill r.buf !fetched;
      mut t.inflight (fun h ->
          for tr = first_track to last_track do
            match Hashtbl.find_opt h tr with
            | Some r' when r' == r -> Hashtbl.remove h tr
            | Some _ | None -> ()
          done))
    (fun () ->
      match Disk.read t.disk ~sector:read_start ~count:read_count with
      | data -> fetched := Some data
      | exception Disk.Media_failure _ -> ());
  (match !fetched with
  | Some data ->
    let wanted = min (sector + count) (read_start + read_count) - max sector read_start in
    Counter.incr t.counters "foreground_refs";
    Counter.add t.counters "prefetch_sectors" (read_count - wanted);
    List.iteri
      (fun i gen ->
        let tr = first_track + i in
        if gen_of t tr = gen then
          cache_insert t tr
            (if first_track = last_track then data
             else Bytes.sub data (i * spt * sb) (spt * sb)))
      gens
  | None -> ());
  !fetched

(* One read plan per request. Each track of [sector, sector+count) is
   cached, in flight, or missing; the request is a hit when every track
   is cached. Cached tracks outside [lo, hi], the smallest run holding
   every missing track, are copied at once: waiting could let them be
   evicted, so every cache access comes before the first call that may
   block. One track read then covers [lo, hi]; when that is the whole
   request, its buffer is sliced with no output buffer. Last, the reads
   in flight outside the run are joined. If any read failed or its
   issuer died, read exactly the needed sectors, as a failed issuer
   does. *)
let read_tracks t ~sector ~count =
  let spt = sectors_per_track t and sb = sector_bytes t in
  let first_track = sector / spt and last_track = (sector + count - 1) / spt in
  (* Read only once some track proves uncached, so a hit emits no
     monitor event for the in-flight table. *)
  let inflight = lazy (Sim.Cell.get t.inflight) in
  let missing tr =
    not (Lru.mem t.tracks tr || Hashtbl.mem (Lazy.force inflight) tr)
  in
  let lo = ref first_track and hi = ref last_track in
  while !lo <= last_track && not (missing !lo) do incr lo done;
  while !hi >= !lo && not (missing !hi) do decr hi done;
  let lo = !lo and hi = !hi in
  let whole = lo = first_track && hi = last_track in
  let out = if whole then Bytes.empty else Bytes.create (count * sb) in
  let waits = ref [] in
  for tr = first_track to last_track do
    if tr < lo || tr > hi then
      match Lru.find t.tracks tr with
      | Some src -> blit_track t ~src ~src_track:tr ~tr ~sector ~count out
      | None -> waits := (tr, Hashtbl.find (Lazy.force inflight) tr) :: !waits
  done;
  let hit = lo > hi && !waits = [] in
  Counter.incr t.counters (if hit then "cache_hits" else "cache_misses");
  let run =
    if lo > hi then None
    else issue_track_read t ~sector ~count ~first_track:lo ~last_track:hi
  in
  match run with
  | _ when hit -> out
  | Some data when whole -> Bytes.sub data ((sector - (lo * spt)) * sb) (count * sb)
  | _ ->
    let copied ~src_track first last = function
      | Some src ->
        for tr = first to last do
          blit_track t ~src ~src_track ~tr ~sector ~count out
        done;
        true
      | None -> false
    in
    let own = lo > hi || copied ~src_track:lo lo hi run in
    if !waits <> [] then Counter.incr t.counters "track_joins";
    let joined (tr, r) = copied ~src_track:r.first_track tr tr (Sim.Ivar.read r.buf) in
    if own && List.for_all joined (List.rev !waits) then out else exact_read t ~sector ~count

let get_block_impl ~source t ~pos ~fragments =
  check_run t ~pos ~fragments;
  match source with
  | Stable ->
    let out = Stable.read_range (stable_exn t) ~first:pos ~count:fragments in
    Counter.add t.counters "stable_pages_read" fragments;
    out
  | Main ->
    let sector = pos * t.sectors_per_fragment in
    let count = fragments * t.sectors_per_fragment in
    if t.config.track_cache_tracks = 0 then begin
      Counter.incr t.counters "cache_misses";
      exact_read t ~sector ~count
    end
    else read_tracks t ~sector ~count

let get_block ?(source = Main) t ~pos ~fragments =
  Trace.maybe t.tracer ~service:"block_service" ~op:"get_block"
    ~attrs:(fun () ->
      [ ("server", Trace.Str t.name); ("pos", Trace.Int pos);
        ("fragments", Trace.Int fragments) ])
    (fun () -> get_block_impl ~source t ~pos ~fragments)

let write_main t ~pos data =
  let sector = pos * t.sectors_per_fragment in
  cache_update_on_write t ~sector data;
  Disk.write t.disk ~sector data;
  Counter.incr t.counters "foreground_refs"

let write_stable_pages t s ~pos data nfrags =
  for i = 0 to nfrags - 1 do
    Stable.write s ~page:(pos + i) (Bytes.sub data (i * fragment_bytes) fragment_bytes)
  done;
  Counter.add t.counters "stable_writes" nfrags

(* Superblock fields, little-endian: magic(4) version(4)
   total_fragments(8) bitmap_start(8) bitmap_fragments(8) boots(8),
   then the chunk map from [chunk_map_offset]. *)
let encode_superblock t sb =
  let b = Bytes.make fragment_bytes '\000' in
  Bytes.set_int32_le b 0 superblock_magic;
  Bytes.set_int32_le b 4 2l (* version *);
  Bytes.set_int64_le b 8 (Int64.of_int t.total_fragments);
  Bytes.set_int64_le b 16 (Int64.of_int t.bitmap_start);
  Bytes.set_int64_le b 24 (Int64.of_int t.bitmap_fragments);
  Bytes.set_int64_le b 32 sb.boots;
  let map = Bitset.to_bytes sb.chunks in
  Bytes.blit map 0 b chunk_map_offset (Bytes.length map);
  b

(* Carefully: main storage, then both stable copies; then it is the
   durable superblock. *)
let write_superblock t sb =
  let data = encode_superblock t sb in
  write_main t ~pos:0 data;
  Option.iter (fun s -> write_stable_pages t s ~pos:0 data 1) t.stable;
  Sim.Cell.set t.durable_sb sb

let rec all_marked chunks c last =
  c > last || (Bitset.get chunks c && all_marked chunks (c + 1) last)

(* Before the first stable write into a chunk, its bit reaches the
   superblock on disk, so the next [attach] scans it. The fast path
   reads the durable map and neither locks nor allocates. Otherwise
   one writer at a time adds the bits and writes the superblock; a
   writer that waited finds its bits durable and writes nothing. *)
let mark_chunks t ~pos ~fragments =
  let first = chunk_of pos and last = chunk_of (pos + fragments - 1) in
  if not (all_marked (Sim.Cell.get t.durable_sb).chunks first last) then
    Sim.Semaphore.with_acquire t.sb_writer (fun () ->
        let sb = Sim.Cell.get t.durable_sb in
        if not (all_marked sb.chunks first last) then begin
          let chunks = Bitset.copy sb.chunks in
          Bitset.set_range chunks ~pos:first ~len:(last - first + 1);
          write_superblock t { sb with chunks }
        end)

let put_block_impl ~dest ~wait t ~pos data =
  let len = Bytes.length data in
  if len = 0 || len mod fragment_bytes <> 0 then
    invalid_arg "put_block: data must be a positive multiple of the fragment size";
  let fragments = len / fragment_bytes in
  check_run t ~pos ~fragments;
  let write_stable () =
    let s = stable_exn t in
    mark_chunks t ~pos ~fragments;
    match wait with
    | Wait_stable -> write_stable_pages t s ~pos data fragments
    | Return_early ->
      background_started t;
      ignore
        (Sim.spawn ~name:"stable-write" t.sim (fun () ->
             write_stable_pages t s ~pos data fragments;
             background_finished t))
  in
  match dest with
  | Original -> write_main t ~pos data
  | Stable_only -> write_stable ()
  | Original_and_stable ->
    write_main t ~pos data;
    write_stable ()

let put_block ?(dest = Original) ?(wait = Wait_stable) t ~pos data =
  Trace.maybe t.tracer ~service:"block_service" ~op:"put_block"
    ~attrs:(fun () ->
      [ ("server", Trace.Str t.name); ("pos", Trace.Int pos);
        ("fragments", Trace.Int (Bytes.length data / fragment_bytes)) ])
    (fun () -> put_block_impl ~dest ~wait t ~pos data)

let flush_block t ~pos ~fragments =
  check_run t ~pos ~fragments;
  let spt = sectors_per_track t in
  let sector = pos * t.sectors_per_fragment in
  let count = fragments * t.sectors_per_fragment in
  let first_track = sector / spt and last_track = (sector + count - 1) / spt in
  drop_inflight t ~first_track ~last_track;
  for tr = first_track to last_track do
    Lru.remove t.tracks tr
  done

(* ------------------------------------------------------------------ *)
(* Bitmap persistence                                                  *)
(* ------------------------------------------------------------------ *)

(* The bitmap as it goes to disk: masked runs read as free. *)
let persisted_bitmap t =
  if Hashtbl.length t.masked = 0 then t.bitmap
  else begin
    let b = Bitset.copy t.bitmap in
    Hashtbl.iter (fun pos len -> Bitset.clear_range b ~pos ~len) t.masked;
    b
  end

(* The serialised bitmap occupies fragments [bitmap_start,
   bitmap_start + bitmap_fragments). Persist the fragments covering
   the dirtied bit range, to main storage and to stable storage. *)
let persist_bitmap_range t ~pos ~len =
  let serialised = Bitset.to_bytes (persisted_bitmap t) in
  let first_frag = pos / bits_per_fragment in
  let last_frag = (pos + len - 1) / bits_per_fragment in
  for bf = first_frag to last_frag do
    let chunk = Bytes.make fragment_bytes '\000' in
    let off = bf * fragment_bytes in
    let n = min fragment_bytes (Bytes.length serialised - off) in
    if n > 0 then Bytes.blit serialised off chunk 0 n;
    let dest = if t.stable = None then Original else Original_and_stable in
    put_block ~dest ~wait:Wait_stable t ~pos:(t.bitmap_start + bf) chunk
  done

let persist_bitmap_all t = persist_bitmap_range t ~pos:0 ~len:t.total_fragments

let after_bitmap_change t ~pos ~len =
  if t.config.bitmap_write_through then persist_bitmap_range t ~pos ~len

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let take_extent t ~row ~entry:(pos, len) ~fragments =
  t.extent_rows.(row) <- List.filter (fun e -> e <> (pos, len)) t.extent_rows.(row);
  if len > fragments then insert_extent t ~pos:(pos + fragments) ~len:(len - fragments);
  Bitset.set_range t.bitmap ~pos ~len:fragments;
  Counter.incr t.counters "allocs";
  pos

(* Exact fit first, then best (smallest sufficient) fit across higher
   rows; [prefer] breaks ties among candidates of equal length. The
   ["extent_entries_examined"] counter makes the array's search cost
   comparable with the first-fit bitmap scan (experiment E5). *)
let find_candidate t ~fragments ~prefer =
  let best = ref None in
  let consider row (pos, len) =
    Counter.incr t.counters "extent_entries_examined";
    if len >= fragments then
      match !best with
      | None -> best := Some (row, (pos, len))
      | Some (_, (bpos, blen)) ->
        if len < blen || (len = blen && prefer ~pos ~over:bpos) then
          best := Some (row, (pos, len))
  in
  (* Exact-fit row: any entry works and no split is needed. *)
  let exact_row = row_for_length fragments in
  List.iter (consider exact_row) t.extent_rows.(exact_row);
  (match !best with
  | Some (_, (_, len)) when len = fragments -> ()
  | _ ->
    for row = exact_row to array_rows - 1 do
      List.iter (consider row) t.extent_rows.(row)
    done);
  !best

(* Marks the run allocated in memory only; the callers persist it. *)
let claim t ~fragments ~prefer =
  check_formatted t;
  if fragments <= 0 then invalid_arg "allocate: fragments must be positive";
  match find_candidate t ~fragments ~prefer with
  | Some (row, entry) ->
    Counter.incr t.counters "extent_hits";
    take_extent t ~row ~entry ~fragments
  | None -> (
    (* The array has no answer; the bitmap is the ground truth. *)
    Counter.incr t.counters "bitmap_fallbacks";
    match Bitset.find_clear_run t.bitmap ~start:t.data_start ~len:fragments with
    | Some pos ->
      Bitset.set_range t.bitmap ~pos ~len:fragments;
      Counter.incr t.counters "allocs";
      (* Refill the array so the next allocations are fast again. *)
      rebuild_extent_array t;
      pos
    | None ->
      raise
        (No_space { wanted_fragments = fragments; free_fragments = free_fragments t }))

let allocate_with_preference t ~fragments ~prefer =
  let pos = claim t ~fragments ~prefer in
  after_bitmap_change t ~pos ~len:fragments;
  pos

let lowest ~pos ~over = pos < over

let allocate t ~fragments = allocate_with_preference t ~fragments ~prefer:lowest

let allocate_near t ~hint ~fragments =
  allocate_with_preference t ~fragments ~prefer:(fun ~pos ~over ->
      abs (pos - hint) < abs (over - hint))

let allocate_at t ~pos ~fragments =
  check_formatted t;
  check_run t ~pos ~fragments;
  if pos < t.data_start then false
  else if not (Bitset.range_all_clear t.bitmap ~pos ~len:fragments) then false
  else begin
    (* Cached extents overlapping the claimed range are re-filed with
       the claimed part clipped out. *)
    let overlapping =
      extent_array_entries t
      |> List.filter (fun (p, l) -> p < pos + fragments && pos < p + l)
    in
    remove_overlapping_extents t ~pos ~len:fragments;
    List.iter
      (fun (p, l) ->
        if p < pos then insert_extent t ~pos:p ~len:(pos - p);
        if p + l > pos + fragments then
          insert_extent t ~pos:(pos + fragments) ~len:(p + l - (pos + fragments)))
      overlapping;
    Bitset.set_range t.bitmap ~pos ~len:fragments;
    Counter.incr t.counters "allocs";
    after_bitmap_change t ~pos ~len:fragments;
    true
  end

let allocate_block t ~blocks =
  if blocks <= 0 then invalid_arg "allocate_block: blocks must be positive";
  allocate t ~fragments:(blocks * fragments_per_block)

(* Clears the run in memory only; the callers persist it. *)
let unclaim t ~pos ~fragments =
  check_formatted t;
  check_run t ~pos ~fragments;
  if pos < t.data_start then
    invalid_arg (t.name ^ ": cannot free the metadata region");
  if not (Bitset.range_all_set t.bitmap ~pos ~len:fragments) then
    invalid_arg (Printf.sprintf "%s: double free at fragment %d" t.name pos);
  Bitset.clear_range t.bitmap ~pos ~len:fragments;
  Counter.incr t.counters "frees";
  (* Coalesce: find the maximal free run containing the freed one. *)
  let rec left i = if i > t.data_start && not (Bitset.get t.bitmap (i - 1)) then left (i - 1) else i in
  let start = left pos in
  let len = Bitset.clear_run_at t.bitmap start in
  remove_overlapping_extents t ~pos:start ~len;
  insert_extent t ~pos:start ~len

let free t ~pos ~fragments =
  unclaim t ~pos ~fragments;
  after_bitmap_change t ~pos ~len:fragments

let free_block t ~pos ~blocks = free t ~pos ~fragments:(blocks * fragments_per_block)

(* Masked runs: allocated in memory, so nothing else gets them, but
   every bitmap write records them as free. *)
let mask t ~pos ~fragments =
  if Hashtbl.mem t.masked pos then
    invalid_arg (Printf.sprintf "%s: fragment %d already masked" t.name pos);
  Hashtbl.replace t.masked pos fragments

let unmask t ~pos ~fragments =
  if Hashtbl.find_opt t.masked pos <> Some fragments then
    invalid_arg (Printf.sprintf "%s: fragment %d is not masked" t.name pos);
  Hashtbl.remove t.masked pos

let reserve_block t ~blocks =
  if blocks <= 0 then invalid_arg "reserve_block: blocks must be positive";
  let fragments = blocks * fragments_per_block in
  let pos = claim t ~fragments ~prefer:lowest in
  mask t ~pos ~fragments;
  pos

let confirm t ~pos ~fragments =
  unmask t ~pos ~fragments;
  after_bitmap_change t ~pos ~len:fragments

let retire t ~pos ~fragments =
  check_run t ~pos ~fragments;
  if not (Bitset.range_all_set t.bitmap ~pos ~len:fragments) then
    invalid_arg (Printf.sprintf "%s: retiring free fragment %d" t.name pos);
  mask t ~pos ~fragments;
  after_bitmap_change t ~pos ~len:fragments

let release t ~pos ~fragments =
  unmask t ~pos ~fragments;
  unclaim t ~pos ~fragments

(* ------------------------------------------------------------------ *)
(* Format / attach / sync                                              *)
(* ------------------------------------------------------------------ *)

let format t =
  L.info (fun m -> m "%s: formatting %d fragments" t.name t.total_fragments);
  t.formatted <- true;
  t.bitmap <- Bitset.create t.total_fragments;
  Hashtbl.reset t.masked;
  Bitset.set_range t.bitmap ~pos:0 ~len:t.data_start;
  Array.fill t.extent_rows 0 array_rows [];
  rebuild_extent_array t;
  Lru.reset t.tracks;
  write_superblock t
    { boots = 0L;
      chunks = metadata_chunk_map ~total_fragments:t.total_fragments ~data_start:t.data_start };
  persist_bitmap_all t

let bitmap_snapshot t = Bitset.copy (persisted_bitmap t)

(* Prefer the stable copy of a metadata fragment, fall back to main. *)
let read_metadata t frag =
  match t.stable with
  | Some s -> (
    match Stable.read s ~page:frag with
    | page -> page
    | exception Stable.Unrecoverable_page _ ->
      get_block ~source:Main t ~pos:frag ~fragments:1)
  | None -> get_block ~source:Main t ~pos:frag ~fragments:1

(* Repair the stable copies of chunk [c]. *)
let recover_chunk t s c =
  let first = c * Stable.chunk_pages in
  let count = min Stable.chunk_pages (t.total_fragments - first) in
  ignore (Stable.recover_range s ~first ~count);
  Counter.add t.counters "attach_pages_scanned" count;
  Counter.incr t.counters "attach_marked_chunks"

(* Stable-storage recovery repairs only the chunks that the
   superblock's chunk map marks: [Stable.chunk_pages] fragments per
   bit, the unit [Stable.recover_range] reads in one reference pair.
   The chunks holding the metadata region [0, data_start) are always
   marked and are repaired first, before the superblock is read.

   - A bit is set before the first stable write into its chunk:
     [mark_chunks] writes the superblock carefully (main and both
     mirrors) and waits for it, one map write at a time, whether the
     stable write then waits or returns early.
   - A bit is cleared only here, for a chunk whose fragments the
     recovered bitmap has all free, and the cleared map is written
     back with the boot count before any stable write of this boot.

   That covers every page a later read can reach. A marked chunk is
   scanned whole, and an unmarked one holds no copy written since its
   bit was last cleared. When it was cleared, all its fragments were
   free, and a free fragment's stable copies are dead: every stable
   write lands on a fragment already allocated in the durable bitmap
   ([allocate] persists the bitmap before the caller stores anything,
   [delete] erases the FIT before it frees the fragment, and the
   metadata and intentions-list regions are never freed), and reusing
   a fragment rewrites both copies before anything reads them.

   Skipping pages means [recover_range] no longer sees every sequence
   number on disk. A reused fragment's torn write (new primary, stale
   mirror from an earlier life with a higher sequence number) would
   then recover to the stale copy. So the superblock carries a boot
   count: each attach increments it and raises the stable store's
   sequence floor to [boots lsl 40] (above every number an earlier
   life issued) before its first stable write, the superblock's.

   With [bitmap_write_through = false] the durable bitmap lags the
   in-memory one until [sync], so a chunk whose allocations all came
   since the last sync is cleared and not scanned. Those allocations
   are lost at a crash anyway: the recovered bitmap has them free. *)
let attach t =
  let meta_chunks = chunks_below t.data_start in
  Option.iter
    (fun s ->
      for c = 0 to meta_chunks - 1 do
        recover_chunk t s c
      done)
    t.stable;
  t.formatted <- true;
  Lru.reset t.tracks;
  let sb = read_metadata t 0 in
  if Bytes.get_int32_le sb 0 <> superblock_magic then begin
    t.formatted <- false;
    raise (Not_formatted t.name)
  end;
  let total = Int64.to_int (Bytes.get_int64_le sb 8) in
  if total <> t.total_fragments then begin
    t.formatted <- false;
    raise (Not_formatted (t.name ^ ": geometry mismatch"))
  end;
  (* Restore the bitmap: prefer the stable copy, fall back to main. *)
  let raw = Bytes.create (t.bitmap_fragments * fragment_bytes) in
  for bf = 0 to t.bitmap_fragments - 1 do
    let chunk = read_metadata t (t.bitmap_start + bf) in
    Bytes.blit chunk 0 raw (bf * fragment_bytes) fragment_bytes
  done;
  t.bitmap <- Bitset.of_bytes t.total_fragments raw;
  Hashtbl.reset t.masked;
  (* The paper (re)builds the free-extent array by scanning the bitmap. *)
  rebuild_extent_array t;
  L.info (fun m ->
      m "%s: attached (%d/%d fragments free)" t.name (free_fragments t)
        t.total_fragments);
  match t.stable with
  | None -> ()
  | Some s ->
    let nchunks = chunks_below t.total_fragments in
    let chunks =
      Bitset.of_bytes nchunks
        (Bytes.sub sb chunk_map_offset (Bytes.length sb - chunk_map_offset))
    in
    for c = meta_chunks to nchunks - 1 do
      let pos = c * Stable.chunk_pages in
      let len = min Stable.chunk_pages (t.total_fragments - pos) in
      if Bitset.range_all_clear t.bitmap ~pos ~len then Bitset.clear chunks c
    done;
    Bitset.set_range chunks ~pos:0 ~len:meta_chunks;
    let boots = Int64.succ (Bytes.get_int64_le sb 32) in
    Stable.raise_seq_floor s (Int64.shift_left boots 40);
    write_superblock t { boots; chunks };
    for c = meta_chunks to nchunks - 1 do
      if Bitset.get chunks c then recover_chunk t s c
    done

let sync t =
  check_formatted t;
  persist_bitmap_all t;
  while t.pending_background > 0 do
    Sim.Condition.wait t.background_done
  done

