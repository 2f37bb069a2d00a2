module Sim = Rhodos_sim.Sim
module Block = Rhodos_block.Block_service
module Disk = Rhodos_disk.Disk
module Stable = Rhodos_stable.Stable_store
module Cache = Rhodos_cache.Buffer_cache
module Counter = Rhodos_util.Stats.Counter
module Lru = Rhodos_util.Lru
module Trace = Rhodos_obs.Trace

let block_size = Block.block_bytes (* 8192 *)
let fpb = Block.fragments_per_block (* 4 *)

type file_id = int

let id_to_int id = id
let id_of_int id = id
let id_encode ~disk ~frag = (disk lsl 40) lor frag
let id_disk id = id lsr 40
let id_frag id = id land ((1 lsl 40) - 1)
let pp_id ppf id = Format.fprintf ppf "file<disk%d:frag%d>" (id_disk id) (id_frag id)

exception File_not_found of int
exception File_busy of int

type placement =
  | Fill_first
  | Round_robin
  | Striped of { stripe_blocks : int }

type data_policy = Write_through | Delayed_write of { flush_interval_ms : float }

type config = {
  placement : placement;
  data_policy : data_policy;
  data_cache_blocks : int;
  fit_cache_entries : int;
  exploit_contiguity : bool;
}

let default_config =
  {
    placement = Fill_first;
    data_policy = Write_through;
    data_cache_blocks = 128;
    fit_cache_entries = 256;
    exploit_contiguity = true;
  }

(* An in-memory FIT plus bookkeeping for lazy indirect-block writes.
   The cache is the paper's fragment pool for FITs: bounded, LRU. *)
type open_fit = {
  fit : Fit.t;
  (* Per-file dirty flag: cross-client writers hold the 2PL Lock_manager
     file item via the transaction service; the basic path is single-writer
     per descriptor, which the static meet cannot see because the unlocked
     read-only callers empty the entry lockset.
     static-ok: static-race 2PL file item / per-descriptor ownership *)
  mutable runs_dirty : bool;
  mutable pins : int;
      (* operations in flight on this entry: never evict while > 0,
         or a blocked writer and a fresh reload would diverge *)
}

type t = {
  name : string;
  sim : Sim.t;
  disks : Block.t array;
  config : config;
  fits : (file_id, open_fit) Lru.t;
  deleted : (file_id, unit) Hashtbl.t;
  data_cache : (int * int) Cache.t; (* (disk index, fragment) -> 8 KiB block *)
  mutable rr_next : int;            (* round-robin cursor *)
  counters : Counter.t;
  tracer : Trace.t option;
}

let create ?(name = "filesrv") ?(config = default_config) ?tracer ~disks () =
  if Array.length disks = 0 then invalid_arg "File_service.create: no disks";
  let sim = Block.sim disks.(0) in
  let policy =
    match config.data_policy with
    | Write_through -> Cache.Write_through
    | Delayed_write { flush_interval_ms } -> Cache.Delayed_write { flush_interval_ms }
  in
  let service_disks = disks in
  let writeback (disk, frag) data = Block.put_block service_disks.(disk) ~pos:frag data in
  {
    name;
    sim;
    disks;
    config;
    (* Per-file-id keyed cache: concurrent handlers touch distinct keys, and
       same-file mutation is pinned under [with_fit]; keyed add/remove
       commute so the torn window is benign.
       static-ok: static-race keyed entries commute *)
    fits = Lru.create 64;
    deleted = Hashtbl.create 16;
    data_cache =
      Cache.create ~name:(name ^ "-datacache") ~sim ~capacity:config.data_cache_blocks
        ~policy ~writeback ();
    rr_next = 0;
    counters = Counter.create ();
    tracer;
  }

let name t = t.name
let sim t = t.sim
let disk_count t = Array.length t.disks
let block_service t i = t.disks.(i)
let stats t = t.counters
let cache_stats t = Cache.stats t.data_cache
let cached_fits t = Lru.length t.fits
let now t = Sim.now t.sim

(* ------------------------------------------------------------------ *)
(* FIT load/store                                                      *)
(* ------------------------------------------------------------------ *)

let check_id t id =
  if id_disk id >= Array.length t.disks then raise (File_not_found id);
  if Hashtbl.mem t.deleted id then raise (File_not_found id)

(* Every layout change is written through (store_fit), so eviction is
   just dropping the entry; it reloads from disk on the next use. Only
   the timestamps can be newer in memory than on disk, and an eviction
   rolls them back. Open entries are never evicted, so a reloaded FIT
   belongs to a closed file and starts with no opens. *)
let evict_fits_if_needed t =
  let in_use ofit = ofit.pins > 0 || ofit.fit.Fit.ref_count > 0 in
  let continue = ref true in
  while !continue && Lru.length t.fits > t.config.fit_cache_entries do
    match Lru.lru ~skip:in_use t.fits with
    | Some (id, _) -> Lru.remove t.fits id
    | None -> continue := false (* everything pinned or open *)
  done

(* A FIT fragment or indirect block, decoded. Every layout change
   writes both to main storage and to both stable mirrors, so when the
   main copy is unreadable or not one (bad magic) the stable copy
   stands in. A deleted FIT is zeroed in all three copies: its stable
   copy is no FIT either. *)
let read_structure bs ~pos ~fragments decode =
  match decode (Block.get_block bs ~pos ~fragments) with
  | v -> v
  | exception ((Disk.Media_failure _ | Fit.Corrupt _) as e) when Block.has_stable bs -> (
    match Block.get_block ~source:Block.Stable bs ~pos ~fragments with
    | raw -> decode raw
    | exception Stable.Unrecoverable_page _ -> raise e)

let load_fit t id =
  check_id t id;
  match Lru.find t.fits id with
  | Some ofit -> ofit
  | None ->
    Trace.maybe t.tracer ~service:"file_service" ~op:"fit_load"
      ~attrs:(fun () -> [ ("file", Trace.Int (id_to_int id)) ])
      (fun () ->
        Counter.incr t.counters "fit_loads";
        let bs = t.disks.(id_disk id) in
        let fit =
          match read_structure bs ~pos:(id_frag id) ~fragments:1 Fit.decode with
          | fit -> fit
          | exception Fit.Corrupt _ -> raise (File_not_found id)
        in
        fit.Fit.ref_count <- 0;
        (* Pull overflow runs in from the indirect blocks. *)
        List.iter
          (fun (disk, frag) ->
            fit.Fit.runs <-
              fit.Fit.runs
              @ read_structure t.disks.(disk) ~pos:frag ~fragments:fpb Fit.decode_indirect)
          fit.Fit.indirect;
        let ofit = { fit; runs_dirty = false; pins = 1 } in
        Lru.replace t.fits id ofit;
        (* The fresh entry is pinned across the eviction pass so it
           cannot reclaim itself before the caller gets to use it. *)
        evict_fits_if_needed t;
        ofit.pins <- 0;
        ofit)

(* Run [f] on the file's cached FIT with the entry pinned, so a
   blocking operation cannot have its entry evicted under it. *)
let with_fit t id f =
  let ofit = load_fit t id in
  ofit.pins <- ofit.pins + 1;
  Fun.protect ~finally:(fun () -> ofit.pins <- ofit.pins - 1) (fun () -> f ofit)

(* The layout write: called when size, runs, indirect blocks, service
   type or locking level change, and by [flush]. Indirect blocks go
   first (allocating/freeing as the overflow grows or shrinks), then
   the FIT fragment itself, written through to stable storage so the
   layout that locates the data survives crashes. The open count and
   the timestamps ride along; on their own they are never stored. *)
let store_fit t id ofit =
  Counter.incr t.counters "fit_stores";
  let fit = ofit.fit in
  let home = id_disk id in
  let bs_home = t.disks.(home) in
  if ofit.runs_dirty then begin
    let chunks = Fit.overflow_runs fit in
    let needed = List.length chunks in
    let current = List.length fit.Fit.indirect in
    if needed > current then begin
      let extra =
        List.init (needed - current) (fun _ ->
            (home, Block.allocate_block bs_home ~blocks:1))
      in
      fit.Fit.indirect <- fit.Fit.indirect @ extra
    end
    else if needed < current then begin
      let keep = ref [] and idx = ref 0 in
      List.iter
        (fun (disk, frag) ->
          if !idx < needed then keep := (disk, frag) :: !keep
          else Block.free_block t.disks.(disk) ~pos:frag ~blocks:1;
          incr idx)
        fit.Fit.indirect;
      fit.Fit.indirect <- List.rev !keep
    end;
    List.iter2
      (fun (disk, frag) runs ->
        let bs = t.disks.(disk) in
        let dest =
          if Block.has_stable bs then Block.Original_and_stable else Block.Original
        in
        Block.put_block ~dest bs ~pos:frag (Fit.encode_indirect runs))
      fit.Fit.indirect chunks;
    ofit.runs_dirty <- false
  end;
  let dest =
    if Block.has_stable bs_home then Block.Original_and_stable else Block.Original
  in
  Block.put_block ~dest bs_home ~pos:(id_frag id) (Fit.encode fit)

(* ------------------------------------------------------------------ *)
(* Creation / deletion / attributes                                    *)
(* ------------------------------------------------------------------ *)

let create_file ?(service_type = Fit.Basic) ?(locking_level = Fit.Page_level)
    ?(home_disk = 0) t =
  if home_disk < 0 || home_disk >= Array.length t.disks then
    invalid_arg "create_file: no such disk";
  let bs = t.disks.(home_disk) in
  (* FIT fragment and first data block allocated as one contiguous
     run: 1 + 4 fragments. *)
  let frag = Block.allocate bs ~fragments:(1 + fpb) in
  let fit = Fit.fresh ~now:(now t) service_type locking_level in
  Fit.append_blocks fit ~disk:home_disk ~frag:(frag + 1) ~blocks:1;
  let id = id_encode ~disk:home_disk ~frag in
  Hashtbl.remove t.deleted id;
  let ofit = { fit; runs_dirty = false; pins = 1 } in
  Lru.replace t.fits id ofit;
  evict_fits_if_needed t;
  ofit.pins <- 0;
  store_fit t id ofit;
  id

let open_file t id =
  let fit = (load_fit t id).fit in
  fit.Fit.ref_count <- fit.Fit.ref_count + 1

let flush_file_blocks t fit =
  List.iter
    (fun (r : Fit.run) ->
      for b = 0 to r.blocks - 1 do
        Cache.flush_key t.data_cache (r.disk, r.frag + (b * fpb))
      done)
    fit.Fit.runs

let close_file t id =
  with_fit t id (fun ofit ->
      if ofit.fit.Fit.ref_count > 0 then
        ofit.fit.Fit.ref_count <- ofit.fit.Fit.ref_count - 1;
      flush_file_blocks t ofit.fit)

let delete t id =
  with_fit t id (fun ofit ->
  if ofit.fit.Fit.ref_count > 0 then raise (File_busy id);
  (* Drop cached blocks, free data runs, indirect blocks, the FIT. *)
  List.iter
    (fun (r : Fit.run) ->
      for b = 0 to r.blocks - 1 do
        Cache.invalidate t.data_cache (r.disk, r.frag + (b * fpb))
      done;
      Block.free t.disks.(r.disk) ~pos:r.frag ~fragments:(r.blocks * fpb))
    ofit.fit.Fit.runs;
  List.iter
    (fun (disk, frag) -> Block.free_block t.disks.(disk) ~pos:frag ~blocks:1)
    ofit.fit.Fit.indirect;
  let bs = t.disks.(id_disk id) in
  (* Erase the FIT magic so a stale id cannot resurrect the file. *)
  let dest = if Block.has_stable bs then Block.Original_and_stable else Block.Original in
  Block.put_block ~dest bs ~pos:(id_frag id) (Bytes.make Block.fragment_bytes '\000');
  Block.free bs ~pos:(id_frag id) ~fragments:1;
  Lru.remove t.fits id;
  Hashtbl.replace t.deleted id ())

let get_attributes t id =
  let ofit = load_fit t id in
  { ofit.fit with Fit.runs = ofit.fit.Fit.runs }

let file_size t id = (load_fit t id).fit.Fit.size

let set_service_type t id st =
  with_fit t id (fun ofit ->
      ofit.fit.Fit.service_type <- st;
      store_fit t id ofit)

let set_locking_level t id ll =
  with_fit t id (fun ofit ->
      ofit.fit.Fit.locking_level <- ll;
      store_fit t id ofit)

let file_runs t id = (load_fit t id).fit.Fit.runs

let extent_count t id = Fit.extent_count (load_fit t id).fit

(* ------------------------------------------------------------------ *)
(* Allocation / placement                                              *)
(* ------------------------------------------------------------------ *)

(* Allocate [blocks] on [disk], shrinking the request when the disk is
   fragmented; returns (frag, got). *)
let allocate_some t ~disk ~blocks =
  let bs = t.disks.(disk) in
  let rec try_size n =
    if n <= 0 then None
    else
      match Block.allocate bs ~fragments:(n * fpb) with
      | frag -> Some (frag, n)
      | exception Block.No_space _ -> try_size (n / 2)
  in
  try_size blocks

let next_disk t =
  let d = t.rr_next mod Array.length t.disks in
  t.rr_next <- t.rr_next + 1;
  d

(* Grow the file's run list until it covers [needed] blocks. Extending
   the final run in place is always tried first: it is what keeps
   files contiguous and the count field useful. *)
let ensure_capacity t id ofit ~needed =
  let fit = ofit.fit in
  let home = id_disk id in
  let ndisks = Array.length t.disks in
  while Fit.total_blocks fit < needed do
    let missing = needed - Fit.total_blocks fit in
    let chunk =
      match t.config.placement with
      | Fill_first | Round_robin -> missing
      | Striped { stripe_blocks } -> min stripe_blocks missing
    in
    let extended =
      match List.rev fit.Fit.runs with
      | (last : Fit.run) :: _ ->
        let tail_frag = last.frag + (last.blocks * fpb) in
        let grow =
          match t.config.placement with
          | Striped { stripe_blocks } ->
            (* Finish the current stripe in place, then rotate. *)
            let into_stripe = last.blocks mod stripe_blocks in
            if into_stripe = 0 then 0
            else min (stripe_blocks - into_stripe) missing
          | Fill_first | Round_robin -> chunk
        in
        grow > 0
        && Block.allocate_at t.disks.(last.disk) ~pos:tail_frag ~fragments:(grow * fpb)
        &&
        (Fit.append_blocks fit ~disk:last.disk ~frag:tail_frag ~blocks:grow;
         ofit.runs_dirty <- true;
         true)
      | [] -> false
    in
    if not extended then begin
      let start_disk =
        match t.config.placement with
        | Fill_first -> home
        | Round_robin | Striped _ -> (
          (* Rotate off the disk holding the file's last run, so a
             fresh extent cannot end up adjacent to it and merge into
             an oversized stripe. *)
          match List.rev fit.Fit.runs with
          | (last : Fit.run) :: _ when ndisks > 1 -> (last.disk + 1) mod ndisks
          | _ -> next_disk t)
      in
      (* Try each disk once, starting from the placement's choice. *)
      let rec try_disks i =
        if i >= ndisks then
          raise
            (Block.No_space { wanted_fragments = chunk * fpb; free_fragments = 0 })
        else
          let disk = (start_disk + i) mod ndisks in
          match allocate_some t ~disk ~blocks:chunk with
          | Some (frag, got) ->
            Fit.append_blocks fit ~disk ~frag ~blocks:got;
            ofit.runs_dirty <- true
          | None -> try_disks (i + 1)
      in
      try_disks 0
    end
  done

(* ------------------------------------------------------------------ *)
(* Parallel extent jobs                                                *)
(* ------------------------------------------------------------------ *)

(* Run the jobs, overlapping those that target different disks. Jobs
   must only touch disjoint state. Failures are re-raised in the
   caller. *)
let run_jobs t jobs =
  match jobs with
  | [] -> ()
  | [ job ] -> job ()
  | jobs ->
    Counter.incr t.counters "parallel_fetches";
    let remaining = ref (List.length jobs) in
    let failure = ref None in
    let done_cond = Sim.Condition.create t.sim in
    List.iter
      (fun job ->
        ignore
          (Sim.spawn ~name:"extent-io" t.sim (fun () ->
               (try job () with e -> if !failure = None then failure := Some e);
               decr remaining;
               if !remaining = 0 then Sim.Condition.broadcast done_cond)))
      jobs;
    while !remaining > 0 do
      Sim.Condition.wait done_cond
    done;
    match !failure with Some e -> raise e | None -> ()

(* The physical extents covering logical blocks [b0, b1]:
   (disk, frag, first_block, nblocks) in file order. *)
let extents_of fit ~b0 ~b1 ~max_run =
  let rec walk bi acc =
    if bi > b1 then List.rev acc
    else
      match Fit.locate fit ~block_index:bi with
      | None -> List.rev acc (* beyond allocation: caller's bug *)
      | Some r ->
        let n = min (min r.Fit.blocks (b1 - bi + 1)) max_run in
        walk (bi + n) ((r.Fit.disk, r.Fit.frag, bi, n) :: acc)
  in
  walk b0 []

(* ------------------------------------------------------------------ *)
(* pread                                                               *)
(* ------------------------------------------------------------------ *)

(* Block [bi]'s share of the byte range [off, off+len) starts at file
   offset [share_start] and ends before [share_stop]. *)
let share_start ~off bi = max off (bi * block_size)
let share_stop ~off ~len bi = min (off + len) ((bi + 1) * block_size)

let pread_impl t id ~off ~len =
  if off < 0 || len < 0 then invalid_arg "pread: negative offset or length";
  with_fit t id (fun ofit ->
  let fit = ofit.fit in
  let len = max 0 (min len (fit.Fit.size - off)) in
  if len = 0 then Bytes.empty
  else begin
    let out = Bytes.create len in
    let b0 = off / block_size and b1 = (off + len - 1) / block_size in
    let max_run = if t.config.exploit_contiguity then max_int else 1 in
    (* Copy block [bi]'s share of the range from [data], the block's
       content, into [out]. *)
    let blit_block ~bi data =
      let s = share_start ~off bi in
      Bytes.blit data (s - (bi * block_size)) out (s - off)
        (share_stop ~off ~len bi - s)
    in
    let jobs = ref [] in
    List.iter
      (fun (disk, frag, first_block, nblocks) ->
        (* Within one physical extent, serve cached blocks from memory
           and batch the uncached gaps into single disk references. *)
        let flush_gap gap_start gap_len =
          if gap_len > 0 then begin
            let gap_frag = frag + ((gap_start - first_block) * fpb) in
            let job () =
              Counter.incr t.counters "extent_reads";
              let data =
                Block.get_block t.disks.(disk) ~pos:gap_frag ~fragments:(gap_len * fpb)
              in
              for k = 0 to gap_len - 1 do
                (* [get_block]'s result is fresh: a one-block result
                   becomes the cached block as it is. *)
                let block =
                  if gap_len = 1 then data
                  else Bytes.sub data (k * block_size) block_size
                in
                Cache.insert_clean t.data_cache (disk, gap_frag + (k * fpb)) block;
                blit_block ~bi:(gap_start + k) block
              done
            in
            jobs := job :: !jobs
          end
        in
        let gap_start = ref first_block and gap_len = ref 0 in
        for k = 0 to nblocks - 1 do
          let bi = first_block + k in
          let s = share_start ~off bi in
          (* A hit is copied into [out] now, before any job can block. *)
          if
            Cache.read_into t.data_cache (disk, frag + (k * fpb))
              ~off:(s - (bi * block_size)) ~len:(share_stop ~off ~len bi - s)
              out ~dst_off:(s - off)
          then begin
            flush_gap !gap_start !gap_len;
            gap_start := bi + 1;
            gap_len := 0
          end
          else incr gap_len
        done;
        flush_gap !gap_start !gap_len)
      (extents_of fit ~b0 ~b1 ~max_run);
    run_jobs t (List.rev !jobs);
    fit.Fit.last_read <- now t;
    out
  end)

let pread t id ~off ~len =
  Trace.maybe t.tracer ~service:"file_service" ~op:"pread"
    ~attrs:(fun () ->
      [ ("server", Trace.Str t.name); ("file", Trace.Int (id_to_int id));
        ("off", Trace.Int off); ("len", Trace.Int len) ])
    (fun () -> pread_impl t id ~off ~len)

(* ------------------------------------------------------------------ *)
(* pwrite                                                              *)
(* ------------------------------------------------------------------ *)

(* Final content of logical block [bi] after overlaying
   [data[data_off ..]] at file offset [range_off]: whole-block
   overwrites need no old content; partial ones read-modify-write.
   Blocks at or beyond the old end of data are treated as zeros. *)
let block_content t fit ~old_blocks ~bi ~range_off ~data ~data_off =
  let file_start = bi * block_size in
  let s = max range_off file_start in
  let e = min (range_off + Bytes.length data - data_off) (file_start + block_size) in
  if s = file_start && e = file_start + block_size then
    Bytes.sub data (data_off + s - range_off) block_size
  else begin
    let old =
      if bi >= old_blocks then Bytes.make block_size '\000'
      else
        match Fit.locate fit ~block_index:bi with
        | None -> Bytes.make block_size '\000'
        | Some r -> (
          match Cache.find t.data_cache (r.Fit.disk, r.Fit.frag) with
          | Some cached -> cached
          | None ->
            Counter.incr t.counters "extent_reads";
            let b = Block.get_block t.disks.(r.Fit.disk) ~pos:r.Fit.frag ~fragments:fpb in
            Cache.insert_clean t.data_cache (r.Fit.disk, r.Fit.frag) (Bytes.copy b);
            b)
    in
    Bytes.blit data (data_off + s - range_off) old (s - file_start) (e - s);
    old
  end

let write_range t _id ofit ~old_blocks ~range_off data =
  let fit = ofit.fit in
  let len = Bytes.length data in
  if len > 0 then begin
    let b0 = range_off / block_size and b1 = (range_off + len - 1) / block_size in
    let max_run = if t.config.exploit_contiguity then max_int else 1 in
    let jobs = ref [] in
    List.iter
      (fun (disk, frag, first_block, nblocks) ->
        (* Assemble the extent's final bytes, then write once. *)
        let contents =
          List.init nblocks (fun k ->
              block_content t fit ~old_blocks ~bi:(first_block + k) ~range_off ~data
                ~data_off:0)
        in
        match t.config.data_policy with
        | Write_through ->
          (* Every block of [contents] is fresh and is cached only after
             the write returns, so a one-block extent goes out as is. *)
          let buf =
            match contents with
            | [ block ] -> block
            | _ -> Bytes.concat Bytes.empty contents
          in
          let job () =
            Counter.incr t.counters "extent_writes";
            Block.put_block t.disks.(disk) ~pos:frag buf;
            List.iteri
              (fun k block ->
                Cache.insert_clean t.data_cache (disk, frag + (k * fpb)) block)
              contents
          in
          jobs := job :: !jobs
        | Delayed_write _ ->
          List.iteri
            (fun k block -> Cache.write t.data_cache (disk, frag + (k * fpb)) block)
            contents)
      (extents_of fit ~b0 ~b1 ~max_run);
    run_jobs t (List.rev !jobs)
  end

let pwrite_impl t id ~off data =
  if off < 0 then invalid_arg "pwrite: negative offset";
  let len = Bytes.length data in
  if len > 0 then
    with_fit t id (fun ofit ->
    let fit = ofit.fit in
    let old_size = fit.Fit.size in
    let old_blocks = (old_size + block_size - 1) / block_size in
    let needed = (off + len + block_size - 1) / block_size in
    ensure_capacity t id ofit ~needed;
    (* Zero-fill a gap created by writing past the old end. *)
    if off > old_size then
      write_range t id ofit ~old_blocks ~range_off:old_size
        (Bytes.make (off - old_size) '\000');
    write_range t id ofit ~old_blocks ~range_off:off data;
    let grew = off + len > fit.Fit.size in
    if grew then fit.Fit.size <- off + len;
    fit.Fit.last_write <- now t;
    if grew || ofit.runs_dirty then store_fit t id ofit)

let pwrite t id ~off data =
  Trace.maybe t.tracer ~service:"file_service" ~op:"pwrite"
    ~attrs:(fun () ->
      [ ("server", Trace.Str t.name); ("file", Trace.Int (id_to_int id));
        ("off", Trace.Int off); ("len", Trace.Int (Bytes.length data)) ])
    (fun () -> pwrite_impl t id ~off data)

(* ------------------------------------------------------------------ *)
(* truncate                                                            *)
(* ------------------------------------------------------------------ *)

let truncate t id new_size =
  if new_size < 0 then invalid_arg "truncate: negative size";
  with_fit t id (fun ofit ->
  let fit = ofit.fit in
  if new_size > fit.Fit.size then begin
    (* Grow: zero-fill the extension. *)
    let grow = new_size - fit.Fit.size in
    let old_size = fit.Fit.size in
    let old_blocks = (old_size + block_size - 1) / block_size in
    ensure_capacity t id ofit ~needed:((new_size + block_size - 1) / block_size);
    write_range t id ofit ~old_blocks ~range_off:old_size (Bytes.make grow '\000');
    fit.Fit.size <- new_size
  end
  else begin
    fit.Fit.size <- new_size;
    (* Shrink: free whole blocks beyond the new end, keeping the
       first block (created with the FIT, kept for its contiguity). *)
    let keep_blocks = max 1 ((new_size + block_size - 1) / block_size) in
    let rec cut kept = function
      | [] -> []
      | (r : Fit.run) :: rest ->
        if kept >= keep_blocks then begin
          for b = 0 to r.blocks - 1 do
            Cache.invalidate t.data_cache (r.disk, r.frag + (b * fpb))
          done;
          Block.free t.disks.(r.disk) ~pos:r.frag ~fragments:(r.blocks * fpb);
          ofit.runs_dirty <- true;
          cut kept rest
        end
        else if kept + r.blocks <= keep_blocks then r :: cut (kept + r.blocks) rest
        else begin
          let keep_here = keep_blocks - kept in
          let cut_frag = r.frag + (keep_here * fpb) in
          for b = keep_here to r.blocks - 1 do
            Cache.invalidate t.data_cache (r.disk, r.frag + (b * fpb))
          done;
          Block.free t.disks.(r.disk) ~pos:cut_frag
            ~fragments:((r.blocks - keep_here) * fpb);
          ofit.runs_dirty <- true;
          { r with blocks = keep_here } :: cut keep_blocks rest
        end
    in
    fit.Fit.runs <- cut 0 fit.Fit.runs
  end;
  fit.Fit.last_write <- now t;
  store_fit t id ofit)

(* ------------------------------------------------------------------ *)
(* Transaction-service hooks                                           *)
(* ------------------------------------------------------------------ *)

let block_location t id ~block_index =
  let ofit = load_fit t id in
  match Fit.locate ofit.fit ~block_index with
  | Some r -> Some (r.Fit.disk, r.Fit.frag)
  | None -> None

(* Replace the run entry covering [block_index] with up to three
   pieces: the prefix, the one-block shadow location, the suffix. The
   new run list is installed before anything yields, so a concurrent
   replace on the same file builds on this one's runs instead of
   overwriting them. The old block is free on disk before the FIT is
   stored, but out of reach of allocation until it is: a crash in
   between leaves a FIT pointing at a block nobody else holds, which
   the redo swaps out again and finds free already; the other order
   leaked it. *)
let replace_block t id ~block_index ~disk ~frag =
  with_fit t id (fun ofit ->
  let fit = ofit.fit in
  let rec rewrite skipped = function
    | [] -> invalid_arg "replace_block: block index beyond allocation"
    | (r : Fit.run) :: rest when block_index < skipped + r.blocks ->
      let into = block_index - skipped in
      let prefix = if into > 0 then [ { r with Fit.blocks = into } ] else [] in
      let suffix =
        if into < r.blocks - 1 then
          [
            {
              r with
              Fit.frag = r.frag + ((into + 1) * fpb);
              blocks = r.blocks - into - 1;
            };
          ]
        else []
      in
      let old = (r.disk, r.frag + (into * fpb)) in
      (prefix @ ({ Fit.disk; frag; blocks = 1 } :: suffix) @ rest, old)
    | r :: rest ->
      let runs, old = rewrite (skipped + r.blocks) rest in
      (r :: runs, old)
  in
  let runs, (old_disk, old_frag) = rewrite 0 fit.Fit.runs in
  fit.Fit.runs <- runs;
  ofit.runs_dirty <- true;
  Cache.invalidate t.data_cache (old_disk, old_frag);
  let bs = t.disks.(old_disk) in
  let live = not (Block.is_free bs ~pos:old_frag ~fragments:fpb) in
  if live then Block.retire bs ~pos:old_frag ~fragments:fpb;
  store_fit t id ofit;
  if live then Block.release bs ~pos:old_frag ~fragments:fpb)

(* ------------------------------------------------------------------ *)
(* Cache control / failure                                             *)
(* ------------------------------------------------------------------ *)

let flush t =
  Cache.flush t.data_cache;
  Lru.iter (fun id ofit -> store_fit t id ofit) t.fits

let drop_caches t =
  flush t;
  Cache.invalidate_all t.data_cache;
  Lru.reset t.fits;
  Array.iter
    (fun bs ->
      Block.sync bs;
      Block.flush_block bs ~pos:0 ~fragments:(Block.total_fragments bs))
    t.disks

let crash t =
  let lost = Cache.crash t.data_cache in
  Lru.reset t.fits;
  lost
