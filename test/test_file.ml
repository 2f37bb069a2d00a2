module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fit = Rhodos_file.Fit
module Fs = Rhodos_file.File_service
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mib n = n * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Fit codec                                                           *)
(* ------------------------------------------------------------------ *)

let sample_fit () =
  let fit = Fit.fresh ~now:12.5 Fit.Transaction Fit.Record_level in
  fit.Fit.size <- 123456;
  fit.Fit.ref_count <- 3;
  fit.Fit.last_read <- 99.0;
  fit.Fit.last_write <- 101.5;
  fit.Fit.runs <-
    [
      { Fit.disk = 0; frag = 10; blocks = 4 };
      { Fit.disk = 1; frag = 100; blocks = 1 };
      { Fit.disk = 0; frag = 50; blocks = 7 };
    ];
  fit

let test_fit_roundtrip () =
  let fit = sample_fit () in
  let decoded = Fit.decode (Fit.encode fit) in
  check int "size" fit.Fit.size decoded.Fit.size;
  check int "ref_count" fit.Fit.ref_count decoded.Fit.ref_count;
  check (Alcotest.float 1e-9) "created" fit.Fit.created_at decoded.Fit.created_at;
  check (Alcotest.float 1e-9) "last_read" fit.Fit.last_read decoded.Fit.last_read;
  check bool "service type" true (decoded.Fit.service_type = Fit.Transaction);
  check bool "locking level" true (decoded.Fit.locking_level = Fit.Record_level);
  check bool "runs preserved" true (decoded.Fit.runs = fit.Fit.runs)

let test_fit_encode_size () =
  check int "FIT is one fragment" 2048 (Bytes.length (Fit.encode (sample_fit ())));
  check int "indirect is one block" 8192
    (Bytes.length (Fit.encode_indirect [ { Fit.disk = 0; frag = 1; blocks = 1 } ]))

let test_fit_corrupt_detected () =
  let b = Fit.encode (sample_fit ()) in
  Bytes.set_int32_le b 0 0l;
  (try
     ignore (Fit.decode b);
     Alcotest.fail "expected Corrupt"
   with Fit.Corrupt _ -> ());
  try
    ignore (Fit.decode_indirect (Bytes.make 8192 '\000'));
    Alcotest.fail "expected Corrupt"
  with Fit.Corrupt _ -> ()

let test_fit_indirect_roundtrip () =
  let runs = List.init 1000 (fun i -> { Fit.disk = i mod 3; frag = i * 5; blocks = 1 + (i mod 9) }) in
  check bool "indirect roundtrip" true (Fit.decode_indirect (Fit.encode_indirect runs) = runs)

let test_fit_direct_overflow_split () =
  let fit = Fit.fresh ~now:0. Fit.Basic Fit.Page_level in
  (* 100 non-mergeable runs: 64 direct + 36 overflow. *)
  for i = 0 to 99 do
    Fit.append_blocks fit ~disk:0 ~frag:(i * 100) ~blocks:1
  done;
  check int "run count" 100 (Fit.run_count fit);
  check int "direct" 64 (List.length (Fit.direct_runs fit));
  check int "one indirect block needed" 1 (Fit.indirect_blocks_needed fit);
  check int "overflow runs" 36 (List.length (List.concat (Fit.overflow_runs fit)))

let test_fit_append_merges_adjacent () =
  let fit = Fit.fresh ~now:0. Fit.Basic Fit.Page_level in
  Fit.append_blocks fit ~disk:0 ~frag:100 ~blocks:2;
  Fit.append_blocks fit ~disk:0 ~frag:108 ~blocks:3 (* 100 + 2*4 = 108: adjacent *);
  check int "merged into one run" 1 (Fit.run_count fit);
  check int "count accumulated" 5 (Fit.total_blocks fit);
  (* Different disk at the adjacent address must not merge. *)
  Fit.append_blocks fit ~disk:1 ~frag:120 ~blocks:1;
  check int "distinct disk not merged" 2 (Fit.run_count fit)

let test_fit_locate () =
  let fit = sample_fit () in
  (* runs: 4 blocks at (0,10); 1 block at (1,100); 7 blocks at (0,50) *)
  (match Fit.locate fit ~block_index:0 with
  | Some r ->
    check int "disk" 0 r.Fit.disk;
    check int "frag" 10 r.Fit.frag;
    check int "available" 4 r.Fit.blocks
  | None -> Alcotest.fail "expected run");
  (match Fit.locate fit ~block_index:2 with
  | Some r ->
    check int "frag inside run" (10 + (2 * 4)) r.Fit.frag;
    check int "remaining" 2 r.Fit.blocks
  | None -> Alcotest.fail "expected run");
  (match Fit.locate fit ~block_index:4 with
  | Some r -> check int "second run disk" 1 r.Fit.disk
  | None -> Alcotest.fail "expected run");
  (match Fit.locate fit ~block_index:11 with
  | Some r ->
    check int "third run tail frag" (50 + (6 * 4)) r.Fit.frag;
    check int "one block left" 1 r.Fit.blocks
  | None -> Alcotest.fail "expected run");
  check bool "past end" true (Fit.locate fit ~block_index:12 = None)

let fit_codec_prop =
  QCheck.Test.make ~name:"FIT codec roundtrips any direct run set" ~count:100
    QCheck.(list_of_size Gen.(0 -- 64)
      (triple (int_bound 10) (int_bound 100000) (int_range 1 65535)))
    (fun runs ->
      let fit = Fit.fresh ~now:1. Fit.Basic Fit.File_level in
      fit.Fit.runs <-
        List.map (fun (disk, frag, blocks) -> { Fit.disk; frag; blocks }) runs;
      let decoded = Fit.decode (Fit.encode fit) in
      decoded.Fit.runs = fit.Fit.runs)

(* ------------------------------------------------------------------ *)
(* File service setup                                                  *)
(* ------------------------------------------------------------------ *)

let make_fs ?(ndisks = 1) ?(capacity = mib 8) ?config ?block_config
    ?(with_stable = false) sim =
  let disks =
    Array.init ndisks (fun i ->
        let disk =
          Disk.create ~name:(Printf.sprintf "d%d" i) sim
            (Disk.geometry_with_capacity capacity)
        in
        let stable =
          if with_stable then
            let g = Disk.geometry_with_capacity (capacity * 2) in
            Some
              ( Disk.create ~name:(Printf.sprintf "st%da" i) sim g,
                Disk.create ~name:(Printf.sprintf "st%db" i) sim g )
          else None
        in
        let bs =
          Block.create ~name:(Printf.sprintf "bs%d" i) ?config:block_config ~disk
            ?stable ()
        in
        Block.format bs;
        bs)
  in
  Fs.create ?config ~disks ()

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

let with_fs ?ndisks ?capacity ?config ?block_config ?with_stable f =
  run_in_sim (fun sim ->
      let fs = make_fs ?ndisks ?capacity ?config ?block_config ?with_stable sim in
      f sim fs)

let pattern ?(seed = 0) n =
  Bytes.init n (fun i -> Char.chr ((i + seed) mod 251))

(* ------------------------------------------------------------------ *)
(* Basic operations                                                    *)
(* ------------------------------------------------------------------ *)

let test_create_empty_file () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      check int "size 0" 0 (Fs.file_size fs id);
      check int "first block preallocated" 1 (Fs.extent_count fs id);
      check bool "read of empty is empty" true
        (Bytes.length (Fs.pread fs id ~off:0 ~len:100) = 0))

let test_write_read_roundtrip () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      let data = pattern 10000 in
      Fs.pwrite fs id ~off:0 data;
      check int "size" 10000 (Fs.file_size fs id);
      let back = Fs.pread fs id ~off:0 ~len:10000 in
      check bool "roundtrip" true (Bytes.equal data back))

let test_partial_reads () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 20000);
      let mid = Fs.pread fs id ~off:7000 ~len:9000 in
      check bool "middle slice" true (Bytes.equal mid (Bytes.sub (pattern 20000) 7000 9000));
      let tail = Fs.pread fs id ~off:19990 ~len:100 in
      check int "short read at EOF" 10 (Bytes.length tail);
      check int "read past EOF empty" 0 (Bytes.length (Fs.pread fs id ~off:30000 ~len:5)))

let test_pread_returns_private_bytes () =
  (* A pread result is the caller's alone. A cold one-block read's
     get_block result becomes the cached block and a data-cache hit is
     copied straight into the result, so editing a result reaches
     neither the data cache nor the next read. *)
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      let data = pattern (3 * 8192) in
      Fs.pwrite fs id ~off:0 data;
      Fs.drop_caches fs;
      let hits () = Counter.get (Fs.cache_stats fs) "hits" in
      let read_and_scribble what ~off ~len =
        let got = Fs.pread fs id ~off ~len in
        check bool what true (Bytes.equal got (Bytes.sub data off len));
        Bytes.fill got 0 len 'X'
      in
      read_and_scribble "cold one block" ~off:8192 ~len:8192;
      let h = hits () in
      read_and_scribble "the same block from the data cache" ~off:8192 ~len:8192;
      check int "served from the data cache" (h + 1) (hits ());
      read_and_scribble "cold blocks around a cached one" ~off:0 ~len:(3 * 8192);
      read_and_scribble "every block cached, unaligned" ~off:100 ~len:((3 * 8192) - 200);
      read_and_scribble "every block cached, again" ~off:0 ~len:(3 * 8192))

let test_overwrite () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 9000);
      Fs.pwrite fs id ~off:4000 (Bytes.make 1000 'Z');
      let back = Fs.pread fs id ~off:0 ~len:9000 in
      let expected = pattern 9000 in
      Bytes.blit (Bytes.make 1000 'Z') 0 expected 4000 1000;
      check bool "overlay applied" true (Bytes.equal back expected);
      check int "size unchanged" 9000 (Fs.file_size fs id))

let test_sparse_write_zero_fills () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (Bytes.make 100 'a');
      Fs.pwrite fs id ~off:50000 (Bytes.make 10 'b');
      check int "size extends" 50010 (Fs.file_size fs id);
      let gap = Fs.pread fs id ~off:100 ~len:49900 in
      check bool "gap is zeros" true
        (Bytes.for_all (fun c -> c = '\000') gap))

let test_unaligned_boundaries () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      (* Writes crossing block boundaries at odd offsets. *)
      Fs.pwrite fs id ~off:8190 (pattern ~seed:3 10);
      Fs.pwrite fs id ~off:16380 (pattern ~seed:7 20);
      check bool "first straddle" true
        (Bytes.equal (Fs.pread fs id ~off:8190 ~len:10) (pattern ~seed:3 10));
      check bool "second straddle" true
        (Bytes.equal (Fs.pread fs id ~off:16380 ~len:20) (pattern ~seed:7 20)))

let test_edge_cases () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      (* Zero-length ops are no-ops. *)
      Fs.pwrite fs id ~off:0 Bytes.empty;
      check int "empty write leaves size 0" 0 (Fs.file_size fs id);
      check int "zero-length read" 0 (Bytes.length (Fs.pread fs id ~off:0 ~len:0));
      (* Write ending exactly on a block boundary. *)
      Fs.pwrite fs id ~off:0 (pattern 8192);
      check int "exact block" 8192 (Fs.file_size fs id);
      (* One byte past the boundary allocates the next block. *)
      Fs.pwrite fs id ~off:8192 (Bytes.make 1 'b');
      check int "one byte more" 8193 (Fs.file_size fs id);
      check bool "boundary byte" true
        (Bytes.equal (Fs.pread fs id ~off:8192 ~len:1) (Bytes.make 1 'b'));
      (* Truncate to the current size is a no-op. *)
      let runs_before = Fs.file_runs fs id in
      Fs.truncate fs id 8193;
      check bool "truncate to same size" true (Fs.file_runs fs id = runs_before);
      (* Truncate to zero keeps the first (FIT-adjacent) block. *)
      Fs.truncate fs id 0;
      check int "size zero" 0 (Fs.file_size fs id);
      check int "first block kept" 1 (Fs.extent_count fs id);
      (* Negative arguments are rejected. *)
      (try
         ignore (Fs.pread fs id ~off:(-1) ~len:5);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      (try
         Fs.pwrite fs id ~off:(-1) (Bytes.make 1 'x');
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      try
        Fs.truncate fs id (-1);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_open_close_refcount () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.open_file fs id;
      Fs.open_file fs id;
      check int "two opens" 2 (Fs.get_attributes fs id).Fit.ref_count;
      (try
         Fs.delete fs id;
         Alcotest.fail "expected File_busy"
       with Fs.File_busy _ -> ());
      Fs.close_file fs id;
      Fs.close_file fs id;
      Fs.delete fs id;
      try
        ignore (Fs.file_size fs id);
        Alcotest.fail "expected File_not_found"
      with Fs.File_not_found _ -> ())

(* Opening, reading and closing an existing file writes nothing, not
   even to stable storage: the open count lives in memory. *)
let test_open_close_writes_nothing () =
  run_in_sim (fun sim ->
      let disk name cap = Disk.create ~name sim (Disk.geometry_with_capacity cap) in
      let main = disk "d0" (mib 8) in
      let st_a = disk "st0a" (mib 16) and st_b = disk "st0b" (mib 16) in
      let bs = Block.create ~disk:main ~stable:(st_a, st_b) () in
      Block.format bs;
      let fs = Fs.create ~disks:[| bs |] () in
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 5000);
      Block.sync bs;
      let writes () = List.map (fun d -> (Disk.stats d).Disk.writes) [ main; st_a; st_b ] in
      let stores () = Counter.get (Fs.stats fs) "fit_stores" in
      let w0 = writes () and s0 = stores () in
      Fs.open_file fs id;
      check int "open count" 1 (Fs.get_attributes fs id).Fit.ref_count;
      (try
         Fs.delete fs id;
         Alcotest.fail "expected File_busy"
       with Fs.File_busy _ -> ());
      check bool "content" true (Bytes.equal (Fs.pread fs id ~off:0 ~len:5000) (pattern 5000));
      Fs.close_file fs id;
      check int "closed" 0 (Fs.get_attributes fs id).Fit.ref_count;
      Sim.sleep sim 100.;
      check (Alcotest.list int) "no disk writes" w0 (writes ());
      check int "no FIT stores" s0 (stores ()))

(* Overwriting allocated blocks stores no FIT; a write that grows the
   file stores exactly one, with or without new blocks. *)
let test_pwrite_stores_fit_on_growth () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 16384);
      let stores () = Counter.get (Fs.stats fs) "fit_stores" in
      let s0 = stores () in
      Fs.pwrite fs id ~off:8192 (pattern ~seed:1 8192);
      check int "whole-block overwrite" s0 (stores ());
      Fs.pwrite fs id ~off:16384 (pattern ~seed:2 100);
      check int "extending write" (s0 + 1) (stores ());
      Fs.pwrite fs id ~off:16484 (pattern ~seed:3 100);
      check int "extending write in the last block" (s0 + 2) (stores ());
      check int "size" 16584 (Fs.file_size fs id))

let test_delete_frees_space () =
  with_fs (fun _ fs ->
      let bs = Fs.block_service fs 0 in
      let before = Block.free_fragments bs in
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 100000);
      check bool "space consumed" true (Block.free_fragments bs < before);
      Fs.delete fs id;
      check int "space restored" before (Block.free_fragments bs))

let test_attributes () =
  with_fs (fun sim fs ->
      let id =
        Fs.create_file ~service_type:Fit.Transaction ~locking_level:Fit.Record_level fs
      in
      Sim.sleep sim 10.;
      Fs.pwrite fs id ~off:0 (pattern 10);
      let a = Fs.get_attributes fs id in
      check bool "service type" true (a.Fit.service_type = Fit.Transaction);
      check bool "locking level" true (a.Fit.locking_level = Fit.Record_level);
      check bool "write timestamp advanced" true (a.Fit.last_write > a.Fit.created_at);
      Fs.set_locking_level fs id Fit.File_level;
      check bool "locking level updated" true
        ((Fs.get_attributes fs id).Fit.locking_level = Fit.File_level))

let test_truncate_shrink_and_grow () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 50000);
      let bs = Fs.block_service fs 0 in
      let used_before = Block.free_fragments bs in
      Fs.truncate fs id 100;
      check int "shrunk" 100 (Fs.file_size fs id);
      check bool "blocks freed" true (Block.free_fragments bs > used_before);
      check bool "content kept" true
        (Bytes.equal (Fs.pread fs id ~off:0 ~len:100) (Bytes.sub (pattern 50000) 0 100));
      Fs.truncate fs id 20000;
      check int "grown" 20000 (Fs.file_size fs id);
      check bool "extension zero" true
        (Bytes.for_all (fun c -> c = '\000') (Fs.pread fs id ~off:100 ~len:19900)))

(* ------------------------------------------------------------------ *)
(* Contiguity and disk-reference claims                                *)
(* ------------------------------------------------------------------ *)

let nocache_config =
  {
    Fs.default_config with
    Fs.data_cache_blocks = 1 (* cannot be 0: keep it useless instead *);
  }

let cold_config =
  { nocache_config with Fs.data_policy = Fs.Write_through }

let test_contiguous_file_single_extent () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern (512 * 1024));
      check int "one extent for 512KiB" 1 (Fs.extent_count fs id))

let test_half_megabyte_two_cold_references () =
  (* THE headline claim (sections 5 and 7): for files up to half a
     megabyte the maximum number of disk references is two — one for
     the FIT and one for the data. *)
  with_fs ~config:cold_config (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern (512 * 1024));
      Fs.drop_caches fs;
      let disk = Block.disk (Fs.block_service fs 0) in
      Disk.reset_stats disk;
      let back = Fs.pread fs id ~off:0 ~len:(512 * 1024) in
      check bool "content" true (Bytes.equal back (pattern (512 * 1024)));
      check int "two disk references" 2 (Disk.stats disk).Disk.references)

let test_fit_adjacent_to_first_block () =
  with_fs (fun _ fs ->
      let id = Fs.create_file fs in
      match Fs.file_runs fs id with
      | [ r ] ->
        check int "first data block right after FIT" (Fs.id_to_int id land 0xFFFFFFFF + 1)
          r.Fit.frag
      | runs -> Alcotest.fail (Printf.sprintf "expected 1 run, got %d" (List.length runs)))

let test_contiguity_ablation () =
  (* exploit_contiguity = false must re-read per block; the disk
     service track cache is disabled so each block read really costs a
     disk reference. *)
  let refs exploit =
    with_fs
      ~block_config:
        { Block.default_config with Block.track_cache_tracks = 0 }
      ~config:{ cold_config with Fs.exploit_contiguity = exploit }
      (fun _ fs ->
        let id = Fs.create_file fs in
        Fs.pwrite fs id ~off:0 (pattern (64 * 8192));
        Fs.drop_caches fs;
        let disk = Block.disk (Fs.block_service fs 0) in
        Disk.reset_stats disk;
        ignore (Fs.pread fs id ~off:0 ~len:(64 * 8192));
        (Disk.stats disk).Disk.references)
  in
  let with_count = refs true and without_count = refs false in
  check int "count field: whole run in one reference (+FIT)" 2 with_count;
  check int "without count field: one reference per block (+FIT)" 65 without_count

let test_multi_disk_striping () =
  with_fs ~ndisks:4
    ~config:{ Fs.default_config with Fs.placement = Fs.Striped { stripe_blocks = 2 } }
    (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern (16 * 8192));
      let runs = Fs.file_runs fs id in
      let disks_used =
        List.sort_uniq compare (List.map (fun r -> r.Fit.disk) runs)
      in
      check bool "several disks used" true (List.length disks_used >= 3);
      (* Stripes are 2 blocks long. *)
      List.iter (fun r -> check bool "stripe size" true (r.Fit.blocks <= 2)) runs;
      let back = Fs.pread fs id ~off:0 ~len:(16 * 8192) in
      check bool "striped roundtrip" true (Bytes.equal back (pattern (16 * 8192))))

let test_round_robin_spreads () =
  with_fs ~ndisks:3
    ~config:{ Fs.default_config with Fs.placement = Fs.Round_robin }
    (fun _ fs ->
      let ids = List.init 3 (fun _ -> Fs.create_file fs) in
      List.iter (fun id -> Fs.pwrite fs id ~off:0 (pattern (4 * 8192))) ids;
      List.iter
        (fun id ->
          check bool "roundtrip" true
            (Bytes.equal (Fs.pread fs id ~off:0 ~len:(4 * 8192)) (pattern (4 * 8192))))
        ids)

let test_large_file_uses_indirect_blocks () =
  (* Force >64 runs with single-block stripes over 2 disks: every run
     is 1 block, so a 100-block file needs 100 runs -> indirect. *)
  with_fs ~ndisks:2 ~capacity:(mib 8)
    ~config:{ Fs.default_config with Fs.placement = Fs.Striped { stripe_blocks = 1 } }
    (fun _ fs ->
      let id = Fs.create_file fs in
      let data = pattern (100 * 8192) in
      Fs.pwrite fs id ~off:0 data;
      let a = Fs.get_attributes fs id in
      check bool "many runs" true (Fit.run_count a > 64);
      check bool "indirect blocks allocated" true (List.length a.Fit.indirect >= 1);
      (* Survives a FIT cache drop (indirect blocks decoded back). *)
      Fs.drop_caches fs;
      let back = Fs.pread fs id ~off:0 ~len:(100 * 8192) in
      check bool "roundtrip via indirect" true (Bytes.equal back data))

let test_fit_cache_eviction () =
  (* A tiny FIT cache: far more files than entries. Evicted FITs
     reload from disk transparently and the cache stays bounded. *)
  with_fs
    ~config:{ Fs.default_config with Fs.fit_cache_entries = 4 }
    (fun _ fs ->
      let ids =
        List.init 16 (fun i ->
            let id = Fs.create_file fs in
            Fs.pwrite fs id ~off:0 (pattern ~seed:i 3000);
            id)
      in
      check bool "cache bounded" true (Fs.cached_fits fs <= 4);
      let loads_before = Counter.get (Fs.stats fs) "fit_loads" in
      List.iteri
        (fun i id ->
          check bool "content after eviction" true
            (Bytes.equal (Fs.pread fs id ~off:0 ~len:3000) (pattern ~seed:i 3000));
          check int "size after eviction" 3000 (Fs.file_size fs id))
        ids;
      check bool "evicted FITs reloaded from disk" true
        (Counter.get (Fs.stats fs) "fit_loads" > loads_before);
      (* Open files are never evicted. *)
      List.iter (fun id -> Fs.open_file fs id) ids;
      check int "open files all cached" 16 (Fs.cached_fits fs);
      List.iter (fun id -> Fs.close_file fs id) ids)

(* Fill the FIT cache, touch the oldest entry, create one more file:
   the second-oldest FIT is the one evicted. *)
let test_fit_cache_evicts_lru () =
  with_fs
    ~config:{ Fs.default_config with Fs.fit_cache_entries = 2 }
    (fun _ fs ->
      let a = Fs.create_file fs in
      let b = Fs.create_file fs in
      ignore (Fs.file_size fs a);
      ignore (Fs.create_file fs);
      let loads () = Counter.get (Fs.stats fs) "fit_loads" in
      let l0 = loads () in
      ignore (Fs.file_size fs a);
      check int "touched FIT kept" l0 (loads ());
      ignore (Fs.file_size fs b);
      check int "second-oldest evicted" (l0 + 1) (loads ()))

(* A FIT stored while its file was open carries the open count. Once
   the file is closed and the entry evicted, the reload must not bring
   the count back, or the file could never be deleted. *)
let test_reloaded_fit_has_no_opens () =
  with_fs
    ~config:{ Fs.default_config with Fs.fit_cache_entries = 1 }
    (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.open_file fs id;
      Fs.pwrite fs id ~off:0 (pattern 20000);
      Fs.close_file fs id;
      ignore (Fs.create_file fs);
      let loads = Counter.get (Fs.stats fs) "fit_loads" in
      check int "closed after reload" 0 (Fs.get_attributes fs id).Fit.ref_count;
      check int "entry was evicted" (loads + 1) (Counter.get (Fs.stats fs) "fit_loads");
      Fs.delete fs id)

let test_nearly_stateless_service () =
  (* A brand-new service instance over the same disks sees the file:
     everything durable lives in FITs. *)
  run_in_sim (fun sim ->
      let disk = Disk.create ~name:"d0" sim (Disk.geometry_with_capacity (mib 8)) in
      let bs = Block.create ~disk () in
      Block.format bs;
      let fs1 = Fs.create ~disks:[| bs |] () in
      let id = Fs.create_file fs1 in
      Fs.pwrite fs1 id ~off:0 (pattern 30000);
      Fs.flush fs1;
      let fs2 = Fs.create ~disks:[| bs |] () in
      check int "size visible" 30000 (Fs.file_size fs2 id);
      check bool "data visible" true
        (Bytes.equal (Fs.pread fs2 id ~off:0 ~len:30000) (pattern 30000)))

let test_fit_written_to_stable () =
  with_fs ~with_stable:true (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (pattern 5000);
      let bs = Fs.block_service fs 0 in
      (* The FIT fragment must be readable from stable storage. *)
      let frag = Fs.id_to_int id land 0xFFFFFFFF in
      let stable_copy = Block.get_block ~source:Block.Stable bs ~pos:frag ~fragments:1 in
      let fit = Fit.decode stable_copy in
      check int "stable FIT size attribute" 5000 fit.Fit.size)

(* A FIT whose main copy decays or stops being a FIT is read from its
   stable copy; a deleted FIT is gone from all three copies. *)
let test_fit_falls_back_to_stable () =
  with_fs ~with_stable:true (fun _ fs ->
      let bs = Fs.block_service fs 0 in
      let frag id = Fs.id_to_int id land 0xFFFFFFFF in
      let sectors_per_frag = Block.fragment_bytes / (Disk.geometry (Block.disk bs)).sector_bytes in
      let decayed = Fs.create_file fs and zeroed = Fs.create_file fs in
      let gone = Fs.create_file fs in
      Fs.pwrite fs decayed ~off:0 (pattern 5000);
      Fs.pwrite fs zeroed ~off:0 (pattern ~seed:1 7000);
      Fs.delete fs gone;
      Fs.drop_caches fs;
      Disk.inject_media_fault (Block.disk bs) ~sector:(frag decayed * sectors_per_frag)
        ~count:sectors_per_frag;
      check bool "the main copy is unreadable" true
        (match Block.get_block bs ~pos:(frag decayed) ~fragments:1 with
        | _ -> false
        | exception Disk.Media_failure _ -> true);
      Block.put_block bs ~pos:(frag zeroed) (Bytes.make Block.fragment_bytes '\000');
      check bool "decayed FIT: the file reads back" true
        (Bytes.equal (pattern 5000) (Fs.pread fs decayed ~off:0 ~len:5000));
      check bool "zeroed FIT: the file reads back" true
        (Bytes.equal (pattern ~seed:1 7000) (Fs.pread fs zeroed ~off:0 ~len:7000));
      (* A fresh service has no memory of the delete. *)
      let fs2 = Fs.create ~disks:[| bs |] () in
      check bool "deleted FIT stays deleted" true
        (match Fs.file_size fs2 gone with
        | _ -> false
        | exception Fs.File_not_found _ -> true))

let test_delayed_write_policy_defers_data () =
  with_fs
    ~config:
      {
        Fs.default_config with
        Fs.data_policy = Fs.Delayed_write { flush_interval_ms = 0. };
        data_cache_blocks = 64;
      }
    (fun _ fs ->
      let id = Fs.create_file fs in
      let disk = Block.disk (Fs.block_service fs 0) in
      let writes_before = (Disk.stats disk).Disk.writes in
      Fs.pwrite fs id ~off:0 (pattern 8192);
      Fs.pwrite fs id ~off:0 (pattern ~seed:1 8192);
      Fs.pwrite fs id ~off:0 (pattern ~seed:2 8192);
      (* Only FIT writes hit the disk so far; block data is dirty in
         cache. The FIT store costs writes, so compare against a
         write-through run. *)
      let writes_delayed = (Disk.stats disk).Disk.writes - writes_before in
      Fs.flush fs;
      check bool "data lands after flush" true
        (Bytes.equal (Fs.pread fs id ~off:0 ~len:8192) (pattern ~seed:2 8192));
      let wt =
        with_fs (fun _ fs ->
            let id = Fs.create_file fs in
            let disk = Block.disk (Fs.block_service fs 0) in
            let before = (Disk.stats disk).Disk.writes in
            Fs.pwrite fs id ~off:0 (pattern 8192);
            Fs.pwrite fs id ~off:0 (pattern ~seed:1 8192);
            Fs.pwrite fs id ~off:0 (pattern ~seed:2 8192);
            (Disk.stats disk).Disk.writes - before)
      in
      check bool "delayed-write does fewer data writes" true (writes_delayed < wt))

let test_crash_loses_delayed_data () =
  with_fs
    ~config:
      {
        Fs.default_config with
        Fs.data_policy = Fs.Delayed_write { flush_interval_ms = 0. };
      }
    (fun _ fs ->
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (Bytes.make 8192 'A');
      Fs.flush fs;
      Fs.pwrite fs id ~off:0 (Bytes.make 8192 'B');
      let lost = Fs.crash fs in
      check bool "dirty blocks lost" true (lost >= 1);
      (* After the crash the service reloads from disk: sees 'A'. *)
      let back = Fs.pread fs id ~off:0 ~len:8192 in
      check bool "pre-crash flushed data survives" true
        (Bytes.equal back (Bytes.make 8192 'A')))

let test_parallel_multi_disk_read_faster () =
  (* The same bytes spread over 4 disks must read faster than from 1:
     the paper's motivation for partitioning files across disks. *)
  let elapsed ndisks =
    run_in_sim (fun sim ->
        let fs =
          make_fs ~ndisks
            ~config:
              {
                Fs.default_config with
                Fs.placement =
                  (if ndisks = 1 then Fs.Fill_first
                   else Fs.Striped { stripe_blocks = 16 });
                data_cache_blocks = 1;
              }
            sim
        in
        let id = Fs.create_file fs in
        Fs.pwrite fs id ~off:0 (pattern (128 * 8192));
        Fs.drop_caches fs;
        let t0 = Sim.now sim in
        ignore (Fs.pread fs id ~off:0 ~len:(128 * 8192));
        Sim.now sim -. t0)
  in
  let one = elapsed 1 and four = elapsed 4 in
  check bool
    (Printf.sprintf "4 disks (%.2fms) at least 2x faster than 1 (%.2fms)" four one)
    true
    (four *. 2. < one)

let file_roundtrip_prop =
  QCheck.Test.make ~name:"random write sequences read back correctly" ~count:25
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (pair (int_bound 60000) (int_range 1 9000)))
    (fun writes ->
      with_fs (fun _ fs ->
          let id = Fs.create_file fs in
          (* Reference model: a plain byte array. *)
          let model = Bytes.make 70000 '\000' in
          let model_size = ref 0 in
          List.iteri
            (fun i (off, len) ->
              let data = pattern ~seed:i len in
              Fs.pwrite fs id ~off data;
              Bytes.blit data 0 model off len;
              model_size := max !model_size (off + len))
            writes;
          let back = Fs.pread fs id ~off:0 ~len:!model_size in
          Bytes.equal back (Bytes.sub model 0 !model_size)
          && Fs.file_size fs id = !model_size))

(* Model-based FIT property: appends (random adjacency) must keep
   [locate] consistent with a naive flat block map. *)
let fit_locate_model_prop =
  QCheck.Test.make ~name:"Fit.locate agrees with a naive block map" ~count:200
    QCheck.(small_list (triple (int_bound 2) (int_bound 500) (int_range 1 6)))
    (fun appends ->
      let fit = Fit.fresh ~now:0. Fit.Basic Fit.Page_level in
      (* Naive model: one entry per logical block. *)
      let model = ref [] in
      List.iter
        (fun (disk, frag_seed, blocks) ->
          (* Half the time, extend exactly at the tail to exercise the
             merge path. *)
          let frag =
            match List.rev !model with
            | (d, f) :: _ when frag_seed mod 2 = 0 && d = disk -> f + 4
            | _ -> 10_000 + (frag_seed * 64)
          in
          Fit.append_blocks fit ~disk ~frag ~blocks;
          for b = 0 to blocks - 1 do
            model := !model @ [ (disk, frag + (b * 4)) ]
          done)
        appends;
      let ok = ref (Fit.total_blocks fit = List.length !model) in
      List.iteri
        (fun bi (disk, frag) ->
          match Fit.locate fit ~block_index:bi with
          | Some r -> if r.Fit.disk <> disk || r.Fit.frag <> frag then ok := false
          | None -> ok := false)
        !model;
      (match Fit.locate fit ~block_index:(List.length !model) with
      | Some _ -> ok := false
      | None -> ());
      !ok)

let () =
  Alcotest.run "rhodos_file"
    [
      ( "fit codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_fit_roundtrip;
          Alcotest.test_case "sizes" `Quick test_fit_encode_size;
          Alcotest.test_case "corruption detected" `Quick test_fit_corrupt_detected;
          Alcotest.test_case "indirect roundtrip" `Quick test_fit_indirect_roundtrip;
          Alcotest.test_case "direct overflow split" `Quick test_fit_direct_overflow_split;
          Alcotest.test_case "append merges" `Quick test_fit_append_merges_adjacent;
          Alcotest.test_case "locate" `Quick test_fit_locate;
          QCheck_alcotest.to_alcotest fit_codec_prop;
          QCheck_alcotest.to_alcotest fit_locate_model_prop;
        ] );
      ( "operations",
        [
          Alcotest.test_case "create empty" `Quick test_create_empty_file;
          Alcotest.test_case "write/read" `Quick test_write_read_roundtrip;
          Alcotest.test_case "partial reads" `Quick test_partial_reads;
          Alcotest.test_case "overwrite" `Quick test_overwrite;
          Alcotest.test_case "sparse writes" `Quick test_sparse_write_zero_fills;
          Alcotest.test_case "unaligned boundaries" `Quick test_unaligned_boundaries;
          Alcotest.test_case "edge cases" `Quick test_edge_cases;
          Alcotest.test_case "open/close refcount" `Quick test_open_close_refcount;
          Alcotest.test_case "delete frees space" `Quick test_delete_frees_space;
          Alcotest.test_case "attributes" `Quick test_attributes;
          Alcotest.test_case "truncate" `Quick test_truncate_shrink_and_grow;
          QCheck_alcotest.to_alcotest file_roundtrip_prop;
          Alcotest.test_case "open/close writes nothing" `Quick
            test_open_close_writes_nothing;
          Alcotest.test_case "pwrite stores FIT on growth" `Quick
            test_pwrite_stores_fit_on_growth;
          Alcotest.test_case "pread returns private bytes" `Quick
            test_pread_returns_private_bytes;
        ] );
      ( "contiguity",
        [
          Alcotest.test_case "single extent 512KiB" `Quick
            test_contiguous_file_single_extent;
          Alcotest.test_case "two references for 512KiB" `Quick
            test_half_megabyte_two_cold_references;
          Alcotest.test_case "FIT adjacent to data" `Quick test_fit_adjacent_to_first_block;
          Alcotest.test_case "count-field ablation" `Quick test_contiguity_ablation;
        ] );
      ( "distribution",
        [
          Alcotest.test_case "striping" `Quick test_multi_disk_striping;
          Alcotest.test_case "round robin" `Quick test_round_robin_spreads;
          Alcotest.test_case "indirect blocks" `Quick test_large_file_uses_indirect_blocks;
          Alcotest.test_case "nearly stateless" `Quick test_nearly_stateless_service;
          Alcotest.test_case "FIT cache eviction" `Quick test_fit_cache_eviction;
          Alcotest.test_case "FIT on stable storage" `Quick test_fit_written_to_stable;
          Alcotest.test_case "FIT falls back to stable" `Quick test_fit_falls_back_to_stable;
          Alcotest.test_case "parallel multi-disk read" `Quick
            test_parallel_multi_disk_read_faster;
          Alcotest.test_case "FIT cache evicts lru" `Quick test_fit_cache_evicts_lru;
          Alcotest.test_case "reloaded FIT has no opens" `Quick
            test_reloaded_fit_has_no_opens;
        ] );
      ( "policies",
        [
          Alcotest.test_case "delayed write defers" `Quick
            test_delayed_write_policy_defers_data;
          Alcotest.test_case "crash loses delayed data" `Quick
            test_crash_loses_delayed_data;
        ] );
    ]
