module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Stable = Rhodos_stable.Stable_store
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mib n = n * 1024 * 1024

(* A 4 MiB disk keeps tests fast: 2048 fragments, 1 bitmap fragment. *)
let make_service ?(capacity = mib 4) ?(with_stable = true) ?config sim =
  let disk = Disk.create ~name:"main" sim (Disk.geometry_with_capacity capacity) in
  let stable =
    if with_stable then
      let g = Disk.geometry_with_capacity (capacity * 2) in
      Some (Disk.create ~name:"st0" sim g, Disk.create ~name:"st1" sim g)
    else None
  in
  (Block.create ?config ~disk ?stable (), disk)

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

let with_service ?capacity ?with_stable ?config f =
  run_in_sim (fun sim ->
      let svc, disk = make_service ?capacity ?with_stable ?config sim in
      Block.format svc;
      f sim svc disk)

let frag_payload ?(tag = 0) fragments =
  Bytes.init (fragments * Block.fragment_bytes) (fun i -> Char.chr ((tag + i) mod 256))

(* ------------------------------------------------------------------ *)
(* Constants and formatting                                            *)
(* ------------------------------------------------------------------ *)

let test_unit_sizes () =
  check int "fragment 2K" 2048 Block.fragment_bytes;
  check int "block 8K" 8192 Block.block_bytes;
  check int "4 fragments per block" 4 Block.fragments_per_block

let test_format_reserves_metadata () =
  with_service (fun _ svc _ ->
      check int "total fragments" 2048 (Block.total_fragments svc);
      (* superblock + 1 bitmap fragment *)
      check int "data fragments" 2046 (Block.data_fragments svc);
      check int "free = data" 2046 (Block.free_fragments svc);
      check bool "consistent" true (Block.extent_array_consistent svc))

let test_unformatted_raises () =
  run_in_sim (fun sim ->
      let svc, _ = make_service sim in
      try
        ignore (Block.allocate svc ~fragments:1);
        Alcotest.fail "expected Not_formatted"
      with Block.Not_formatted _ -> ())

(* ------------------------------------------------------------------ *)
(* Allocation and the extent array                                     *)
(* ------------------------------------------------------------------ *)

let test_allocate_and_free () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:4 in
      check bool "allocated marked" false (Block.is_free svc ~pos:a ~fragments:4);
      check int "free count dropped" 2042 (Block.free_fragments svc);
      Block.free svc ~pos:a ~fragments:4;
      check int "free count restored" 2046 (Block.free_fragments svc);
      check bool "consistent after churn" true (Block.extent_array_consistent svc))

let test_allocate_block_is_four_fragments () =
  with_service (fun _ svc _ ->
      let before = Block.free_fragments svc in
      let a = Block.allocate_block svc ~blocks:2 in
      check int "8 fragments used" (before - 8) (Block.free_fragments svc);
      Block.free_block svc ~pos:a ~blocks:2)

let test_allocations_disjoint () =
  with_service (fun _ svc _ ->
      let seen = Hashtbl.create 64 in
      for _ = 1 to 100 do
        let a = Block.allocate svc ~fragments:3 in
        for f = a to a + 2 do
          if Hashtbl.mem seen f then Alcotest.fail "overlapping allocation";
          Hashtbl.replace seen f ()
        done
      done)

let test_no_space () =
  with_service (fun _ svc _ ->
      (* One fragment short of everything. *)
      let data = Block.data_fragments svc in
      ignore (Block.allocate svc ~fragments:(data - 1));
      ignore (Block.allocate svc ~fragments:1);
      try
        ignore (Block.allocate svc ~fragments:1);
        Alcotest.fail "expected No_space"
      with Block.No_space { wanted_fragments; free_fragments } ->
        check int "wanted" 1 wanted_fragments;
        check int "free" 0 free_fragments)

let test_no_space_fragmented () =
  (* Plenty of free fragments but no contiguous run. *)
  with_service (fun _ svc _ ->
      let keep = ref [] in
      (* Allocate pairs, free every second fragment: free space is all
         single fragments. *)
      (try
         while true do
           let a = Block.allocate svc ~fragments:2 in
           keep := a :: !keep
         done
       with Block.No_space _ -> ());
      List.iter (fun a -> Block.free svc ~pos:a ~fragments:1) !keep;
      check bool "lots free" true (Block.free_fragments svc > 100);
      (try
         ignore (Block.allocate svc ~fragments:2);
         Alcotest.fail "expected No_space for contiguous pair"
       with Block.No_space _ -> ());
      (* Single fragments still allocatable. *)
      ignore (Block.allocate svc ~fragments:1))

let test_exact_fit_preferred () =
  with_service (fun _ svc _ ->
      (* Carve a hole of exactly 5 fragments. *)
      let a = Block.allocate svc ~fragments:5 in
      let _guard = Block.allocate svc ~fragments:1 in
      Block.free svc ~pos:a ~fragments:5;
      let b = Block.allocate svc ~fragments:5 in
      check int "reuses the exact hole" a b)

let test_double_free_rejected () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:2 in
      Block.free svc ~pos:a ~fragments:2;
      try
        Block.free svc ~pos:a ~fragments:2;
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_metadata_protected () =
  with_service (fun _ svc _ ->
      try
        Block.free svc ~pos:0 ~fragments:1;
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_coalescing () =
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:2 in
      let b = Block.allocate svc ~fragments:2 in
      let c = Block.allocate svc ~fragments:2 in
      (* Adjacent allocations; a,b,c should be contiguous. *)
      check int "b follows a" (a + 2) b;
      check int "c follows b" (b + 2) c;
      let _guard = Block.allocate svc ~fragments:1 in
      Block.free svc ~pos:a ~fragments:2;
      Block.free svc ~pos:c ~fragments:2;
      Block.free svc ~pos:b ~fragments:2;
      (* After coalescing, a 6-run must exist at a. *)
      let d = Block.allocate svc ~fragments:6 in
      check int "coalesced run reused" a d)

let test_allocate_near () =
  with_service (fun _ svc _ ->
      (* Make two distant holes of 4. *)
      let all = Block.allocate svc ~fragments:(Block.data_fragments svc) in
      Block.free svc ~pos:(all + 100) ~fragments:4;
      Block.free svc ~pos:(all + 1500) ~fragments:4;
      let near = Block.allocate_near svc ~hint:(all + 1490) ~fragments:4 in
      check int "picks the closer hole" (all + 1500) near)

let test_allocate_at () =
  with_service (fun _ svc _ ->
      (* Claim a specific free range. *)
      let base = Block.allocate svc ~fragments:1 in
      let target = base + 10 in
      check bool "free range claimed" true
        (Block.allocate_at svc ~pos:target ~fragments:4);
      check bool "now allocated" false (Block.is_free svc ~pos:target ~fragments:4);
      (* Claiming it again fails. *)
      check bool "busy range refused" false
        (Block.allocate_at svc ~pos:target ~fragments:4);
      (* Partial overlap fails too. *)
      check bool "overlap refused" false
        (Block.allocate_at svc ~pos:(target + 2) ~fragments:4);
      (* The metadata region is never claimable. *)
      check bool "metadata refused" false (Block.allocate_at svc ~pos:0 ~fragments:1);
      check bool "array still consistent" true (Block.extent_array_consistent svc);
      (* The clipped pieces around the claim are still allocatable. *)
      check bool "piece before" true
        (Block.allocate_at svc ~pos:(target - 1) ~fragments:1);
      check bool "piece after" true
        (Block.allocate_at svc ~pos:(target + 4) ~fragments:1);
      check bool "array consistent after clips" true
        (Block.extent_array_consistent svc))

let test_allocate_at_enables_extension () =
  (* The file-service pattern: extend a run in place. *)
  with_service (fun _ svc _ ->
      let a = Block.allocate svc ~fragments:4 in
      check bool "tail is free" true (Block.is_free svc ~pos:(a + 4) ~fragments:4);
      check bool "extend in place" true (Block.allocate_at svc ~pos:(a + 4) ~fragments:4);
      Block.free svc ~pos:a ~fragments:8)

let test_rebuild_matches_incremental () =
  with_service (fun _ svc _ ->
      let rng = Rhodos_util.Rng.create 99 in
      let live = ref [] in
      for _ = 1 to 200 do
        if Rhodos_util.Rng.bool rng || !live = [] then begin
          let n = 1 + Rhodos_util.Rng.int rng 6 in
          match Block.allocate svc ~fragments:n with
          | pos -> live := (pos, n) :: !live
          | exception Block.No_space _ -> ()
        end
        else begin
          match !live with
          | (pos, n) :: rest ->
            Block.free svc ~pos ~fragments:n;
            live := rest
          | [] -> ()
        end
      done;
      let incremental = Block.extent_array_entries svc in
      Block.rebuild_extent_array svc;
      let rebuilt = Block.extent_array_entries svc in
      check bool "incremental = rebuild" true (incremental = rebuilt);
      check bool "consistent" true (Block.extent_array_consistent svc))

(* ------------------------------------------------------------------ *)
(* get/put/flush                                                       *)
(* ------------------------------------------------------------------ *)

let test_put_get_roundtrip () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:3 in
      let data = frag_payload ~tag:5 3 in
      Block.put_block svc ~pos data;
      let back = Block.get_block svc ~pos ~fragments:3 in
      check bool "roundtrip" true (Bytes.equal data back))

let test_contiguous_read_one_reference () =
  with_service
    ~config:{ Block.default_config with track_cache_tracks = 0 }
    (fun _ svc disk ->
      let pos = Block.allocate svc ~fragments:8 in
      Block.put_block svc ~pos (frag_payload 8);
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:8);
      check int "one disk reference for 8 fragments" 1 (Disk.stats disk).references)

let test_track_cache_hit () =
  with_service (fun sim svc _ ->
      let pos = Block.allocate svc ~fragments:2 in
      Block.put_block svc ~pos (frag_payload 2);
      ignore (Block.get_block svc ~pos ~fragments:2);
      (* Let the prefetch land. *)
      Sim.sleep sim 100.;
      let before_hits = Counter.get (Block.stats svc) "cache_hits" in
      let back = Block.get_block svc ~pos ~fragments:2 in
      check bool "content correct" true (Bytes.equal back (frag_payload 2));
      check int "second read is a cache hit" (before_hits + 1)
        (Counter.get (Block.stats svc) "cache_hits"))

(* Fill the track cache, touch the oldest track, read one more: the
   second-oldest track is the one evicted. A track is 16 fragments. *)
let test_track_cache_evicts_lru () =
  with_service ~config:{ Block.default_config with track_cache_tracks = 2 }
    (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:48 in
      Block.put_block svc ~pos (frag_payload 48);
      Block.flush_block svc ~pos ~fragments:48;
      let read track =
        ignore (Block.get_block svc ~pos:(pos + (16 * track)) ~fragments:1)
      in
      let hits () = Counter.get (Block.stats svc) "cache_hits" in
      List.iter read [ 0; 1; 0; 2 ];
      let h0 = hits () in
      read 0;
      check int "touched track kept" (h0 + 1) (hits ());
      read 1;
      check int "second-oldest evicted" (h0 + 1) (hits ()))

let test_prefetch_serves_track_neighbours () =
  with_service (fun sim svc disk ->
      (* Two fragments on the same track (a track is 32 KiB = 16 fragments). *)
      let pos = Block.allocate svc ~fragments:16 in
      Block.put_block svc ~pos (frag_payload 16);
      Block.flush_block svc ~pos ~fragments:16;
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:1);
      Sim.sleep sim 100. (* prefetch lands *);
      let refs_before = (Disk.stats disk).references in
      ignore (Block.get_block svc ~pos:(pos + 8) ~fragments:1);
      check int "neighbour served from prefetched track" refs_before
        (Disk.stats disk).references)

let test_flush_forces_disk_read () =
  with_service (fun sim svc disk ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload 1);
      ignore (Block.get_block svc ~pos ~fragments:1);
      Sim.sleep sim 100.;
      Block.flush_block svc ~pos ~fragments:1;
      Disk.reset_stats disk;
      ignore (Block.get_block svc ~pos ~fragments:1);
      check bool "hit the disk after flush" true ((Disk.stats disk).references >= 1))

let test_cache_sees_writes () =
  (* Write-through coherence: a cached track must reflect later puts. *)
  with_service (fun sim svc _ ->
      let pos = Block.allocate svc ~fragments:2 in
      Block.put_block svc ~pos (frag_payload ~tag:1 2);
      ignore (Block.get_block svc ~pos ~fragments:2);
      Sim.sleep sim 100.;
      Block.put_block svc ~pos (frag_payload ~tag:2 2);
      let back = Block.get_block svc ~pos ~fragments:2 in
      check bool "fresh data after write" true (Bytes.equal back (frag_payload ~tag:2 2)))

(* ------------------------------------------------------------------ *)
(* Single-flight track reads                                           *)
(* ------------------------------------------------------------------ *)

(* Run each thunk in its own process; the ivars fill with the results. *)
let start sim fs =
  List.map
    (fun f ->
      let iv = Sim.Ivar.create sim in
      ignore (Sim.spawn sim (fun () -> Sim.Ivar.fill iv (f ())));
      iv)
    fs

(* A track is 64 sectors = 16 fragments = 4 blocks. Returns the first
   fragment of a whole uncached track, each of its four blocks written
   with its own payload (tag [10 + i]). *)
let uncached_track svc =
  let a = Block.allocate svc ~fragments:32 in
  let base = (a + 15) / 16 * 16 in
  for i = 0 to 3 do
    Block.put_block svc ~pos:(base + (i * 4)) (frag_payload ~tag:(10 + i) 4)
  done;
  Block.flush_block svc ~pos:base ~fragments:16;
  base

let get_result svc pos () =
  match Block.get_block svc ~pos ~fragments:4 with
  | data -> Ok data
  | exception Disk.Media_failure _ -> Error ()

(* A block written with tag 1 whose track is not cached. *)
let uncached_block svc =
  let pos = Block.allocate svc ~fragments:4 in
  Block.put_block svc ~pos (frag_payload ~tag:1 4);
  Block.flush_block svc ~pos ~fragments:4;
  pos

let test_write_overtakes_track_read () =
  (* The write queues behind a track read of the same block. The read
     returns the old bytes, but the cache must not keep them. *)
  with_service (fun sim svc disk ->
      let pos = uncached_block svc in
      let reader = start sim [ (fun () -> Block.get_block svc ~pos ~fragments:4) ] in
      Sim.yield sim (* the reader queues its track read *);
      Block.put_block svc ~pos (frag_payload ~tag:2 4);
      List.iter (fun iv -> ignore (Sim.Ivar.read iv)) reader;
      let back = Block.get_block svc ~pos ~fragments:4 in
      check bool "read-back returns the write" true
        (Bytes.equal back (frag_payload ~tag:2 4));
      check bool "read-back matches the platter" true
        (Bytes.equal back (Disk.peek disk ~sector:(pos * 4) ~count:16)))

let test_read_after_write_does_not_join () =
  (* A read issued once the write is queued must not join the track
     read queued before it: it would return the bytes the write
     replaces. *)
  with_service (fun sim svc _ ->
      let pos = uncached_block svc in
      let read () = Block.get_block svc ~pos ~fragments:4 in
      let early = start sim [ read ] in
      Sim.yield sim (* the early read queues its track read *);
      let write = start sim [ (fun () -> Block.put_block svc ~pos (frag_payload ~tag:2 4)) ] in
      Sim.yield sim (* the write queues behind it *);
      let late = start sim [ read ] in
      List.iter (fun iv -> ignore (Sim.Ivar.read iv)) early;
      List.iter Sim.Ivar.read write;
      check int "no join" 0 (Counter.get (Block.stats svc) "track_joins");
      check bool "the late read sees the write" true
        (List.for_all (fun iv -> Bytes.equal (Sim.Ivar.read iv) (frag_payload ~tag:2 4)) late))

let test_concurrent_misses_share_track_read () =
  with_service (fun sim svc disk ->
      let base = uncached_track svc in
      Disk.reset_stats disk;
      Block.reset_stats svc;
      let got =
        start sim
          (List.init 4 (fun i () -> Block.get_block svc ~pos:(base + (i * 4)) ~fragments:4))
        |> List.map Sim.Ivar.read
      in
      check int "one disk reference" 1 (Disk.stats disk).references;
      check int "three joins" 3 (Counter.get (Block.stats svc) "track_joins");
      check int "joins still count as misses" 4
        (Counter.get (Block.stats svc) "cache_misses");
      List.iteri
        (fun i data ->
          check bool
            (Printf.sprintf "block %d has its own bytes" i)
            true
            (Bytes.equal data (frag_payload ~tag:(10 + i) 4)))
        got)

let test_media_fault_sends_joiners_to_exact_reads () =
  (* Block 3 of the track has decayed: the track read fails, every
     reader falls back to its own sectors, and only block 3 fails. *)
  with_service (fun sim svc disk ->
      let base = uncached_track svc in
      Disk.inject_media_fault disk ~sector:((base + 12) * 4) ~count:1;
      Disk.reset_stats disk;
      Block.reset_stats svc;
      let got = start sim (List.init 4 (fun i -> get_result svc (base + (i * 4)))) in
      let got = List.map Sim.Ivar.read got in
      check int "three joins" 3 (Counter.get (Block.stats svc) "track_joins");
      check int "one failed track read + four exact reads" 5
        (Disk.stats disk).references;
      List.iteri
        (fun i r ->
          let expected = if i = 3 then Error () else Ok (frag_payload ~tag:(10 + i) 4) in
          check bool (Printf.sprintf "block %d as without joining" i) true (r = expected))
        got;
      ignore (Block.get_block svc ~pos:base ~fragments:4);
      check int "the failed track was not cached" 0
        (Counter.get (Block.stats svc) "cache_hits"))

let test_killed_issuer_wakes_joiners () =
  with_service (fun sim svc _ ->
      let base = uncached_track svc in
      let issuer =
        Sim.spawn sim (fun () -> ignore (Block.get_block svc ~pos:base ~fragments:4))
      in
      Sim.yield sim (* the issuer queues its track read *);
      let joiners =
        start sim (List.init 3 (fun i -> get_result svc (base + ((i + 1) * 4))))
      in
      Sim.yield sim (* the joiners wait on it *);
      check int "three joins" 3 (Counter.get (Block.stats svc) "track_joins");
      Sim.kill sim issuer;
      List.iteri
        (fun i iv ->
          check bool
            (Printf.sprintf "joiner %d got its block" (i + 1))
            true
            (Sim.Ivar.read iv = Ok (frag_payload ~tag:(11 + i) 4)))
        joiners)

let test_one_track_read_result_is_private () =
  (* A one-track read's buffer becomes the cached track with no copy;
     what get_block returns must still be a fresh buffer, for a slice
     of the track and for the whole track alike. *)
  with_service (fun _ svc disk ->
      let base = uncached_track svc in
      let whole = Block.get_block svc ~pos:base ~fragments:16 in
      check bool "whole track" true
        (Bytes.equal whole (Disk.peek disk ~sector:(base * 4) ~count:64));
      Bytes.fill whole 0 (Bytes.length whole) 'X';
      let hits = Counter.get (Block.stats svc) "cache_hits" in
      let slice = Block.get_block svc ~pos:(base + 4) ~fragments:4 in
      check int "served from the track cache" (hits + 1)
        (Counter.get (Block.stats svc) "cache_hits");
      check bool "the cached track is intact" true
        (Bytes.equal slice (frag_payload ~tag:11 4));
      Bytes.fill slice 0 (Bytes.length slice) 'X';
      Block.flush_block svc ~pos:base ~fragments:16;
      let slice = Block.get_block svc ~pos:(base + 8) ~fragments:4 in
      check bool "a one-block slice of a one-track read" true
        (Bytes.equal slice (frag_payload ~tag:12 4));
      Bytes.fill slice 0 (Bytes.length slice) 'X';
      check bool "the track it came from is intact" true
        (Bytes.equal
           (Block.get_block svc ~pos:base ~fragments:16)
           (Disk.peek disk ~sector:(base * 4) ~count:64)))

let test_write_before_joiner_wakes () =
  (* The issuer of a one-track read caches the read's own buffer and,
     before a joiner on the same track has woken, writes the joiner's
     block: the write overlays the cached track in place. The joiner
     copies its block when it wakes, so it must see all of the old
     bytes or all of the new ones, and the track cache keeps the
     write. *)
  with_service (fun sim svc _ ->
      let base = uncached_track svc in
      let fresh = frag_payload ~tag:99 4 in
      let issuer =
        start sim
          [
            (fun () ->
              ignore (Block.get_block svc ~pos:base ~fragments:4);
              Block.put_block svc ~pos:(base + 4) fresh);
          ]
      in
      Sim.yield sim (* the issuer queues its track read *);
      let joiner = start sim [ (fun () -> Block.get_block svc ~pos:(base + 4) ~fragments:4) ] in
      Sim.yield sim (* the joiner waits on it *);
      check int "one join" 1 (Counter.get (Block.stats svc) "track_joins");
      List.iter Sim.Ivar.read issuer;
      let got = Sim.Ivar.read (List.hd joiner) in
      check bool "all old or all new bytes" true
        (Bytes.equal got (frag_payload ~tag:11 4) || Bytes.equal got fresh);
      let hits = Counter.get (Block.stats svc) "cache_hits" in
      check bool "the cached track holds the write" true
        (Bytes.equal (Block.get_block svc ~pos:(base + 4) ~fragments:4) fresh);
      check int "from the track cache" (hits + 1)
        (Counter.get (Block.stats svc) "cache_hits"))

(* ------------------------------------------------------------------ *)
(* Read plans: a miss reads only the tracks it lacks                    *)
(* ------------------------------------------------------------------ *)

(* Two whole uncached tracks, each block written with its own payload
   (tag [30 + i]). Returns the first fragment of the first track; the
   block at [base + 14] straddles the two. *)
let uncached_tracks svc =
  let a = Block.allocate svc ~fragments:48 in
  let base = (a + 15) / 16 * 16 in
  for i = 0 to 7 do
    Block.put_block svc ~pos:(base + (i * 4)) (frag_payload ~tag:(30 + i) 4)
  done;
  Block.flush_block svc ~pos:base ~fragments:32;
  base

(* The four fragments at [pos] as the platter holds them. *)
let platter disk pos = Disk.peek disk ~sector:(pos * 4) ~count:16

let spt disk = (Disk.geometry disk).sectors_per_track

let test_plan_cached_and_missing () =
  with_service (fun _ svc disk ->
      let base = uncached_tracks svc in
      ignore (Block.get_block svc ~pos:base ~fragments:4) (* caches track 0 *);
      Disk.reset_stats disk;
      let got = Block.get_block svc ~pos:(base + 14) ~fragments:4 in
      check int "one disk reference" 1 (Disk.stats disk).references;
      check int "of one track's sectors" (spt disk) (Disk.stats disk).sectors_read;
      check bool "bytes" true (Bytes.equal got (platter disk (base + 14))))

let test_plan_inflight_and_missing () =
  with_service (fun sim svc disk ->
      let base = uncached_tracks svc in
      Disk.reset_stats disk;
      Block.reset_stats svc;
      let first = start sim [ (fun () -> Block.get_block svc ~pos:base ~fragments:4) ] in
      Sim.yield sim (* the read of track 0 is queued *);
      let got = Block.get_block svc ~pos:(base + 14) ~fragments:4 in
      check bool "first block" true
        (List.for_all (fun iv -> Bytes.equal (Sim.Ivar.read iv) (platter disk base)) first);
      check int "one join" 1 (Counter.get (Block.stats svc) "track_joins");
      check int "each track read once" (2 * spt disk) (Disk.stats disk).sectors_read;
      check bool "joined bytes" true (Bytes.equal got (platter disk (base + 14))))

let test_plan_media_fault_reads_exact_sectors () =
  (* A sector of track 1 outside the request has decayed: the read of
     track 1 fails, and the request reads exactly its own sectors. *)
  with_service (fun _ svc disk ->
      let base = uncached_tracks svc in
      ignore (Block.get_block svc ~pos:base ~fragments:4) (* caches track 0 *);
      Disk.inject_media_fault disk ~sector:((base + 28) * 4) ~count:1;
      Disk.reset_stats disk;
      let got = Block.get_block svc ~pos:(base + 14) ~fragments:4 in
      check int "failed track read + exact read" 2 (Disk.stats disk).references;
      check bool "bytes" true (Bytes.equal got (platter disk (base + 14))))

let test_plan_write_overtakes_partial_read () =
  (* A write to track 1 queues behind the plan's read of track 1: that
     read must not cache track 1, so the next read sees the write. *)
  with_service (fun sim svc _ ->
      let base = uncached_tracks svc in
      ignore (Block.get_block svc ~pos:base ~fragments:4) (* caches track 0 *);
      let reader = start sim [ (fun () -> Block.get_block svc ~pos:(base + 14) ~fragments:4) ] in
      Sim.yield sim (* the read of track 1 is queued *);
      Block.put_block svc ~pos:(base + 16) (frag_payload ~tag:99 4);
      List.iter (fun iv -> ignore (Sim.Ivar.read iv)) reader;
      let hits = Counter.get (Block.stats svc) "cache_hits" in
      let back = Block.get_block svc ~pos:(base + 16) ~fragments:4 in
      check int "track 1 was not cached" hits (Counter.get (Block.stats svc) "cache_hits");
      check bool "read-back returns the write" true (Bytes.equal back (frag_payload ~tag:99 4)))

(* ------------------------------------------------------------------ *)
(* Stable storage destinations                                         *)
(* ------------------------------------------------------------------ *)

let test_stable_only_write () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload ~tag:3 1);
      Block.put_block svc ~dest:Block.Stable_only ~pos (frag_payload ~tag:9 1);
      (* Main copy untouched, stable copy has the shadow. *)
      let main = Block.get_block svc ~pos ~fragments:1 in
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "main keeps original" true (Bytes.equal main (frag_payload ~tag:3 1));
      check bool "stable has shadow" true (Bytes.equal stable (frag_payload ~tag:9 1)))

let test_original_and_stable_write () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~dest:Block.Original_and_stable ~pos (frag_payload ~tag:4 1);
      let main = Block.get_block svc ~pos ~fragments:1 in
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "both copies" true
        (Bytes.equal main (frag_payload ~tag:4 1) && Bytes.equal stable main))

let test_return_early_completes_by_sync () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~dest:Block.Stable_only ~wait:Block.Return_early ~pos
        (frag_payload ~tag:6 1);
      Block.sync svc;
      let stable = Block.get_block svc ~source:Block.Stable ~pos ~fragments:1 in
      check bool "stable write landed" true (Bytes.equal stable (frag_payload ~tag:6 1)))

let test_return_early_is_faster () =
  let elapsed wait =
    with_service (fun sim svc _ ->
        let pos = Block.allocate svc ~fragments:4 in
        let t0 = Sim.now sim in
        Block.put_block svc ~dest:Block.Original_and_stable ~wait ~pos (frag_payload 4);
        Sim.now sim -. t0)
  in
  check bool "return-early returns sooner" true
    (elapsed Block.Return_early < elapsed Block.Wait_stable)

let test_stable_without_mirror_rejected () =
  with_service ~with_stable:false (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      try
        Block.put_block svc ~dest:Block.Stable_only ~pos (frag_payload 1);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Crash recovery: format / attach                                     *)
(* ------------------------------------------------------------------ *)

let test_attach_restores_bitmap () =
  run_in_sim (fun sim ->
      let svc, disk = make_service sim in
      Block.format svc;
      let a = Block.allocate svc ~fragments:7 in
      Block.put_block svc ~pos:a (frag_payload ~tag:8 7);
      Block.sync svc;
      let free_before = Block.free_fragments svc in
      (* "Crash": forget all volatile state by building a new server on
         the same disks. A fresh service shares the disk and the
         stable store's backing disks. *)
      let svc2 =
        Block.create ~disk
          ?stable:None (* re-created below via attach path on same disk *)
          ()
      in
      ignore svc2;
      (* The same disk images, a genuinely fresh server. *)
      let svc3 = Block.create ~disk () in
      Block.attach svc3;
      check int "free fragments restored" free_before (Block.free_fragments svc3);
      check bool "allocation survives" false (Block.is_free svc3 ~pos:a ~fragments:7);
      let back = Block.get_block svc3 ~pos:a ~fragments:7 in
      check bool "data survives" true (Bytes.equal back (frag_payload ~tag:8 7));
      check bool "extent array consistent" true (Block.extent_array_consistent svc3))

let test_attach_unformatted_disk_raises () =
  run_in_sim (fun sim ->
      let svc, _ = make_service ~with_stable:false sim in
      try
        Block.attach svc;
        Alcotest.fail "expected Not_formatted"
      with Block.Not_formatted _ -> ())

let make_stable_pair sim =
  let disk = Disk.create ~name:"main" sim (Disk.geometry_with_capacity (mib 4)) in
  let g = Disk.geometry_with_capacity (mib 8) in
  (disk, (Disk.create ~name:"st0" sim g, Disk.create ~name:"st1" sim g))

let test_attach_uses_stable_when_main_bitmap_decays () =
  run_in_sim (fun sim ->
      let disk, st = make_stable_pair sim in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      let a = Block.allocate svc ~fragments:3 in
      Block.sync svc;
      (* Decay the main-disk bitmap region (fragment 1 = sectors 4..7). *)
      Disk.inject_media_fault disk ~sector:4 ~count:4;
      let svc2 = Block.create ~disk ~stable:st () in
      Block.attach svc2;
      check bool "bitmap restored from stable" false
        (Block.is_free svc2 ~pos:a ~fragments:3))

(* Each stable copy of a fragment is 5 sectors (header + 4 payload),
   laid out from sector 0 of both stable disks. *)
let stable_spp = 5

let stable_sectors page = (page * stable_spp, stable_spp)

(* Write [data] to fragment [pos] and both its stable copies, then put
   the mirror copy back as it was: a crash between the two careful
   writes. *)
let torn_write ~mirror svc ~pos data =
  let sector, count = stable_sectors pos in
  let old = Disk.peek mirror ~sector ~count in
  Block.put_block svc ~dest:Block.Original_and_stable ~pos data;
  Disk.poke mirror ~sector old

let test_attach_repairs_live_pages () =
  run_in_sim (fun sim ->
      let disk, ((st0, st1) as st) = make_stable_pair sim in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      let fit = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~dest:Block.Original_and_stable ~pos:fit (frag_payload ~tag:1 1);
      torn_write ~mirror:st1 svc ~pos:fit (frag_payload ~tag:2 1);
      (* Decay the bitmap's (fragment 1) mirror copy. *)
      let sector, count = stable_sectors 1 in
      Disk.inject_media_fault st1 ~sector ~count;
      let svc2 = Block.create ~disk ~stable:st () in
      Block.attach svc2;
      (* The mirror alone now holds the current FIT and the bitmap. *)
      Disk.fail_unit st0;
      check bool "torn FIT page repaired to the newer copy" true
        (Bytes.equal (frag_payload ~tag:2 1)
           (Block.get_block ~source:Block.Stable svc2 ~pos:fit ~fragments:1));
      check bool "decayed bitmap page repaired" true
        (Bytes.equal
           (Block.get_block svc2 ~pos:1 ~fragments:1)
           (Block.get_block ~source:Block.Stable svc2 ~pos:1 ~fragments:1)))

(* Chunk [c] of the chunk map covers fragments [c * 64, c * 64 + 64). *)
let chunk_frag c = c * Stable.chunk_pages

(* Is chunk [c]'s bit set in the superblock on [disk]'s main copy? *)
let chunk_bit_on_disk disk c =
  let sb = Disk.peek disk ~sector:0 ~count:4 in
  Char.code (Bytes.get sb (40 + (c / 8))) land (1 lsl (c mod 8)) <> 0

let claim svc ~pos ~fragments =
  check bool "run claimed" true (Block.allocate_at svc ~pos ~fragments)

let test_attach_reads_only_marked_chunks () =
  run_in_sim (fun sim ->
      let disk, ((st0, st1) as st) = make_stable_pair sim in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      (* Stable copies in chunks 0 and 3. Chunk 5 is allocated whole
         but holds main-storage data only: it is never marked. *)
      claim svc ~pos:10 ~fragments:4;
      claim svc ~pos:(chunk_frag 3 + 7) ~fragments:5;
      claim svc ~pos:(chunk_frag 5) ~fragments:64;
      Block.put_block svc ~dest:Block.Original_and_stable ~pos:10 (frag_payload 4);
      Block.put_block svc ~dest:Block.Stable_only ~pos:(chunk_frag 3 + 7) (frag_payload 5);
      Block.put_block svc ~pos:(chunk_frag 5) (frag_payload 64);
      check (Alcotest.list bool) "chunk map on disk" [ true; false; false; true; false; false ]
        (List.init 6 (chunk_bit_on_disk disk));
      let svc2 = Block.create ~disk ~stable:st () in
      Disk.reset_stats st0;
      Disk.reset_stats st1;
      Block.attach svc2;
      let stats = Block.stats svc2 in
      check int "marked chunks" 2 (Counter.get stats "attach_marked_chunks");
      check int "pages scanned" (2 * 64) (Counter.get stats "attach_pages_scanned");
      check int "mirror reads exactly the marked chunks" (2 * 64 * stable_spp)
        (Disk.stats st1).sectors_read;
      (* The primary also serves the superblock and bitmap reads. *)
      check int "primary reads the marked chunks and the metadata once more"
        (((2 * 64) + Block.metadata_fragments svc2) * stable_spp)
        (Disk.stats st0).sectors_read)

let test_attach_clears_freed_chunk () =
  run_in_sim (fun sim ->
      let disk, ((_, st1) as st) = make_stable_pair sim in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      let pos = chunk_frag 6 + 1 in
      claim svc ~pos ~fragments:3;
      Block.put_block svc ~dest:Block.Original_and_stable ~pos (frag_payload 3);
      check bool "first stable copy marks the chunk" true (chunk_bit_on_disk disk 6);
      (* Freed: the chunk's stable copies are dead. *)
      Block.free svc ~pos ~fragments:3;
      let svc2 = Block.create ~disk ~stable:st () in
      Disk.reset_stats st1;
      Block.attach svc2;
      check bool "cleared at attach" false (chunk_bit_on_disk disk 6);
      check int "only the metadata chunk is marked" 1
        (Counter.get (Block.stats svc2) "attach_marked_chunks");
      check int "the freed chunk is not read" (64 * stable_spp) (Disk.stats st1).sectors_read;
      (* Reuse marks it again. *)
      claim svc2 ~pos ~fragments:1;
      Block.put_block svc2 ~dest:Block.Stable_only ~pos (frag_payload 1);
      check bool "marked again on reuse" true (chunk_bit_on_disk disk 6))

let test_attach_repairs_torn_write_in_new_chunk () =
  run_in_sim (fun sim ->
      let disk, ((st0, st1) as st) = make_stable_pair sim in
      let svc = Block.create ~disk ~stable:st () in
      Block.format svc;
      (* One allocated fragment in a chunk no stable write touched yet. *)
      let pos = chunk_frag 9 + 3 in
      claim svc ~pos ~fragments:1;
      Block.put_block svc ~dest:Block.Original_and_stable ~pos (frag_payload ~tag:1 1);
      torn_write ~mirror:st1 svc ~pos (frag_payload ~tag:2 1);
      let svc2 = Block.create ~disk ~stable:st () in
      Block.attach svc2;
      Disk.fail_unit st0;
      check bool "the mirror holds the newer copy" true
        (Bytes.equal (frag_payload ~tag:2 1)
           (Block.get_block ~source:Block.Stable svc2 ~pos ~fragments:1)))

(* Two writers make the first stable writes into one clean chunk at the
   same instant, and the server crashes at each instant of a sweep.
   The crash keeps exactly the writes that reached the disks by then:
   the disks are copied, and requests still queued are lost. A fresh
   server attaches the copies; both pages must then have identical
   copies on the two mirrors, whatever the crash tore. *)
let test_concurrent_first_writes_crash_sweep () =
  let torn = ref 0 in
  for k = 0 to 159 do
    let at = float_of_int k *. 0.5 in
    run_in_sim (fun sim ->
        let disk = Disk.create ~name:"main" sim (Disk.geometry_with_capacity (mib 1)) in
        let g = Disk.geometry_with_capacity (mib 2) in
        let st0 = Disk.create ~name:"st0" sim g and st1 = Disk.create ~name:"st1" sim g in
        let svc = Block.create ~disk ~stable:(st0, st1) () in
        Block.format svc;
        let pages = [ chunk_frag 3 + 2; chunk_frag 3 + 40 ] in
        List.iter (fun pos -> claim svc ~pos ~fragments:1) pages;
        List.iteri
          (fun i pos ->
            ignore
              (Sim.spawn sim (fun () ->
                   Block.put_block svc ~dest:Block.Stable_only ~pos (frag_payload ~tag:i 1))))
          pages;
        Sim.sleep sim at;
        let copy d =
          let d' = Disk.create ~name:(Disk.name d) sim (Disk.geometry d) in
          Disk.poke d' ~sector:0 (Disk.peek d ~sector:0 ~count:(Disk.capacity_sectors d));
          d'
        in
        let disk = copy disk and st0 = copy st0 and st1 = copy st1 in
        let copies_agree pos =
          let sector, count = stable_sectors pos in
          Bytes.equal (Disk.peek st0 ~sector ~count) (Disk.peek st1 ~sector ~count)
        in
        if not (List.for_all copies_agree pages) then incr torn;
        Block.attach (Block.create ~disk ~stable:(st0, st1) ());
        List.iter
          (fun pos ->
            if not (copies_agree pos) then
              Alcotest.failf "crash at %.1f ms: page %d left torn" at pos)
          pages)
  done;
  check bool "some crash tore a write" true (!torn > 0)

let test_attach_epoch_newer_primary_wins () =
  (* With the bitmap written back only on [sync], a page can be
     written many times and freed with no durable trace: its stable
     copies outrank every sequence number the next attach sees. The
     boot epoch must still make a later write to the reused page the
     newer copy. *)
  run_in_sim (fun sim ->
      let disk, ((_, st1) as st) = make_stable_pair sim in
      let config = { Block.default_config with Block.bitmap_write_through = false } in
      let svc = Block.create ~config ~disk ~stable:st () in
      Block.format svc;
      let pos = Block.allocate svc ~fragments:1 in
      for i = 1 to 30 do
        Block.put_block svc ~dest:Block.Original_and_stable ~pos (frag_payload ~tag:i 1)
      done;
      Block.free svc ~pos ~fragments:1;
      let svc2 = Block.create ~config ~disk ~stable:st () in
      Block.attach svc2;
      check int "the same fragment is reused" pos (Block.allocate svc2 ~fragments:1);
      Block.sync svc2;
      torn_write ~mirror:st1 svc2 ~pos (frag_payload ~tag:99 1);
      let svc3 = Block.create ~config ~disk ~stable:st () in
      Block.attach svc3;
      check bool "newer primary wins" true
        (Bytes.equal (frag_payload ~tag:99 1)
           (Block.get_block ~source:Block.Stable svc3 ~pos ~fragments:1));
      check int "two boots recorded" 2
        (Int64.to_int (Bytes.get_int64_le (Disk.peek disk ~sector:0 ~count:4) 32)))

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

let test_counters_move () =
  with_service (fun _ svc _ ->
      let pos = Block.allocate svc ~fragments:1 in
      Block.put_block svc ~pos (frag_payload 1);
      ignore (Block.get_block svc ~pos ~fragments:1);
      let c = Block.stats svc in
      check bool "allocs counted" true (Counter.get c "allocs" >= 1);
      check bool "refs counted" true (Counter.get c "foreground_refs" >= 1);
      Block.reset_stats svc;
      check int "reset" 0 (Counter.get (Block.stats svc) "allocs"))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

(* Random alloc/free churn keeps the allocator's invariants: extent
   array consistent with bitmap, free count conserved, no overlap. *)
let allocator_churn_prop =
  QCheck.Test.make ~name:"allocator churn preserves invariants" ~count:25
    QCheck.(pair small_int (list (pair bool (int_range 1 9))))
    (fun (seed, ops) ->
      with_service ~with_stable:false
        ~config:
          {
            Rhodos_block.Block_service.track_cache_tracks = 0;
            bitmap_write_through = false;
          }
        (fun _ svc _ ->
          let rng = Rhodos_util.Rng.create seed in
          let live = ref [] in
          let total = Block.data_fragments svc in
          List.iter
            (fun (do_alloc, n) ->
              if do_alloc || !live = [] then (
                match Block.allocate svc ~fragments:n with
                | pos ->
                  (* Freshly allocated space must not overlap a live run. *)
                  List.iter
                    (fun (p, l) ->
                      if pos < p + l && p < pos + n then
                        QCheck.Test.fail_report "overlap")
                    !live;
                  live := (pos, n) :: !live
                | exception Block.No_space _ -> ())
              else
                let idx = Rhodos_util.Rng.int rng (List.length !live) in
                let pos, l = List.nth !live idx in
                Block.free svc ~pos ~fragments:l;
                live := List.filteri (fun i _ -> i <> idx) !live)
            ops;
          let live_frags = List.fold_left (fun acc (_, l) -> acc + l) 0 !live in
          Block.free_fragments svc = total - live_frags
          && Block.extent_array_consistent svc))

let put_get_prop =
  QCheck.Test.make ~name:"put/get roundtrip through cache and disk" ~count:20
    QCheck.(pair (int_range 1 12) bool)
    (fun (fragments, flush) ->
      with_service (fun _ svc _ ->
          let pos = Block.allocate svc ~fragments in
          let data = frag_payload ~tag:fragments fragments in
          Block.put_block svc ~pos data;
          if flush then Block.flush_block svc ~pos ~fragments;
          Bytes.equal data (Block.get_block svc ~pos ~fragments)))

let () =
  Alcotest.run "rhodos_block"
    [
      ( "format",
        [
          Alcotest.test_case "unit sizes" `Quick test_unit_sizes;
          Alcotest.test_case "metadata reserved" `Quick test_format_reserves_metadata;
          Alcotest.test_case "unformatted raises" `Quick test_unformatted_raises;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "allocate/free" `Quick test_allocate_and_free;
          Alcotest.test_case "block = 4 fragments" `Quick
            test_allocate_block_is_four_fragments;
          Alcotest.test_case "disjoint" `Quick test_allocations_disjoint;
          Alcotest.test_case "no space" `Quick test_no_space;
          Alcotest.test_case "no contiguous space" `Quick test_no_space_fragmented;
          Alcotest.test_case "exact fit preferred" `Quick test_exact_fit_preferred;
          Alcotest.test_case "double free" `Quick test_double_free_rejected;
          Alcotest.test_case "metadata protected" `Quick test_metadata_protected;
          Alcotest.test_case "coalescing" `Quick test_coalescing;
          Alcotest.test_case "allocate near" `Quick test_allocate_near;
          Alcotest.test_case "allocate_at" `Quick test_allocate_at;
          Alcotest.test_case "allocate_at extension" `Quick
            test_allocate_at_enables_extension;
          Alcotest.test_case "rebuild = incremental" `Quick
            test_rebuild_matches_incremental;
          QCheck_alcotest.to_alcotest allocator_churn_prop;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "roundtrip" `Quick test_put_get_roundtrip;
          Alcotest.test_case "one reference" `Quick test_contiguous_read_one_reference;
          Alcotest.test_case "track cache hit" `Quick test_track_cache_hit;
          Alcotest.test_case "prefetch neighbours" `Quick
            test_prefetch_serves_track_neighbours;
          Alcotest.test_case "flush" `Quick test_flush_forces_disk_read;
          Alcotest.test_case "cache coherent with writes" `Quick test_cache_sees_writes;
          QCheck_alcotest.to_alcotest put_get_prop;
          Alcotest.test_case "track cache evicts lru" `Quick test_track_cache_evicts_lru;
        ] );
      ( "inflight",
        [
          Alcotest.test_case "write overtakes track read" `Quick
            test_write_overtakes_track_read;
          Alcotest.test_case "read after write does not join" `Quick
            test_read_after_write_does_not_join;
          Alcotest.test_case "concurrent misses share a read" `Quick
            test_concurrent_misses_share_track_read;
          Alcotest.test_case "media fault: exact reads" `Quick
            test_media_fault_sends_joiners_to_exact_reads;
          Alcotest.test_case "killed issuer wakes joiners" `Quick
            test_killed_issuer_wakes_joiners;
          Alcotest.test_case "one-track read result is private" `Quick
            test_one_track_read_result_is_private;
          Alcotest.test_case "write before a joiner wakes" `Quick
            test_write_before_joiner_wakes;
        ] );
      ( "read plan",
        [
          Alcotest.test_case "cached + missing: one track read" `Quick
            test_plan_cached_and_missing;
          Alcotest.test_case "in flight + missing: join and read" `Quick
            test_plan_inflight_and_missing;
          Alcotest.test_case "media fault: exact sectors" `Quick
            test_plan_media_fault_reads_exact_sectors;
          Alcotest.test_case "write overtakes partial read" `Quick
            test_plan_write_overtakes_partial_read;
        ] );
      ( "stable",
        [
          Alcotest.test_case "stable only" `Quick test_stable_only_write;
          Alcotest.test_case "original and stable" `Quick test_original_and_stable_write;
          Alcotest.test_case "return early + sync" `Quick
            test_return_early_completes_by_sync;
          Alcotest.test_case "return early faster" `Quick test_return_early_is_faster;
          Alcotest.test_case "no mirror rejected" `Quick
            test_stable_without_mirror_rejected;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "attach restores bitmap" `Quick test_attach_restores_bitmap;
          Alcotest.test_case "attach unformatted" `Quick
            test_attach_unformatted_disk_raises;
          Alcotest.test_case "attach prefers stable bitmap" `Quick
            test_attach_uses_stable_when_main_bitmap_decays;
          Alcotest.test_case "attach repairs live pages" `Quick
            test_attach_repairs_live_pages;
          Alcotest.test_case "attach skips free fragments" `Quick
            test_attach_reads_only_marked_chunks;
          Alcotest.test_case "attach clears a freed chunk" `Quick
            test_attach_clears_freed_chunk;
          Alcotest.test_case "attach repairs a new chunk" `Quick
            test_attach_repairs_torn_write_in_new_chunk;
          Alcotest.test_case "concurrent first writes crash" `Quick
            test_concurrent_first_writes_crash_sweep;
          Alcotest.test_case "attach epoch: newer primary wins" `Quick
            test_attach_epoch_newer_primary_wins;
        ] );
      ("counters", [ Alcotest.test_case "move and reset" `Quick test_counters_move ]);
    ]
