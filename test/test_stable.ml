module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Stable = Rhodos_stable.Stable_store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let page_bytes = 2048 (* one fragment, as the paper stores metadata *)

let with_store ?(npages = 8) f =
  let sim = Sim.create () in
  let d0 = Disk.create ~name:"primary" sim Disk.default_geometry in
  let d1 = Disk.create ~name:"mirror" sim Disk.default_geometry in
  let store =
    Stable.create ~primary:d0 ~primary_sector:0 ~mirror:d1 ~mirror_sector:0
      ~page_bytes ~npages
  in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim d0 d1 store)) in
  Sim.run sim;
  match !result with Some r -> r | None -> Alcotest.fail "process did not finish"

let payload tag = Bytes.init page_bytes (fun i -> Char.chr ((tag + i) mod 256))

let test_write_read () =
  with_store (fun _ _ _ s ->
      Stable.write s ~page:3 (payload 7);
      check bool "roundtrip" true (Bytes.equal (payload 7) (Stable.read s ~page:3)))

let test_replicas_byte_identical () =
  (* One encoded copy serves both replicas: header (magic, CRC, seq)
     and payload land identically on the two disks. *)
  with_store (fun _ d0 d1 s ->
      Stable.write s ~page:2 (payload 3);
      Stable.write s ~page:2 (payload 4);
      Stable.write s ~page:6 (payload 5);
      let count = Stable.sectors_needed ~page_bytes ~npages:8 ~sector_bytes:512 in
      let primary = Disk.peek d0 ~sector:0 ~count and mirror = Disk.peek d1 ~sector:0 ~count in
      check bool "sectors identical" true (Bytes.equal primary mirror);
      check bool "page written" true (Bytes.get_int32_le primary (2 * 5 * 512) <> 0l);
      check bool "latest payload" true (Bytes.equal (payload 4) (Stable.read s ~page:2)))

let test_read_unwritten_raises () =
  with_store (fun _ _ _ s ->
      check bool "not initialized" false (Stable.is_initialized s ~page:0);
      try
        ignore (Stable.read s ~page:0);
        Alcotest.fail "expected Unrecoverable_page"
      with Stable.Unrecoverable_page p -> check int "page" 0 p)

let test_survives_primary_media_failure () =
  with_store (fun _ d0 _ s ->
      Stable.write s ~page:1 (payload 1);
      (* Decay the whole primary region. *)
      Disk.inject_media_fault d0 ~sector:0 ~count:100;
      check bool "read falls back to mirror" true
        (Bytes.equal (payload 1) (Stable.read s ~page:1)))

let test_survives_mirror_media_failure () =
  with_store (fun _ _ d1 s ->
      Stable.write s ~page:1 (payload 2);
      Disk.inject_media_fault d1 ~sector:0 ~count:100;
      check bool "primary still good" true
        (Bytes.equal (payload 2) (Stable.read s ~page:1)))

let test_detects_silent_corruption () =
  with_store (fun _ d0 _ s ->
      Stable.write s ~page:0 (payload 3);
      (* Flip a byte in the primary payload without touching the CRC. *)
      let sector_bytes = (Disk.geometry d0).sector_bytes in
      let corrupt = Bytes.make sector_bytes '\255' in
      Disk.poke d0 ~sector:1 corrupt;
      check bool "falls back to mirror on bad crc" true
        (Bytes.equal (payload 3) (Stable.read s ~page:0)))

let test_recover_repairs_decayed_mirror () =
  with_store (fun _ _ d1 s ->
      Stable.write s ~page:2 (payload 4);
      Disk.inject_media_fault d1 ~sector:0 ~count:200;
      let report = Stable.recover s in
      check int "scanned all" 8 report.pages_scanned;
      check bool "repaired the mirror" true
        (List.mem (2, Stable.Repaired_mirror) report.repairs);
      (* After recovery the mirror works standalone. *)
      let recovered = Stable.read s ~page:2 in
      check bool "content intact" true (Bytes.equal (payload 4) recovered))

let test_recover_torn_write () =
  with_store (fun _ _ _ s ->
      Stable.write s ~page:5 (payload 10);
      (* Crash between the two careful writes: primary has v2, mirror v1. *)
      Stable.write_torn s ~page:5 (payload 11);
      let report = Stable.recover s in
      check bool "mirror brought up to date" true
        (List.mem (5, Stable.Repaired_mirror) report.repairs);
      check bool "newer version wins" true
        (Bytes.equal (payload 11) (Stable.read s ~page:5)))

let test_recover_corrupt_page_mid_chunk () =
  (* Recovery checks every copy in place inside its chunk read: a bad
     CRC on a page in the middle of the chunk is repaired from the
     mirror, and its neighbours are left alone. *)
  with_store (fun _ d0 d1 s ->
      List.iter (fun p -> Stable.write s ~page:p (payload p)) [ 2; 3; 4 ];
      (* A page's copy is 5 sectors: header, then 4 of payload. *)
      Disk.poke d0 ~sector:((3 * 5) + 2) (Bytes.make 512 '\007');
      let report = Stable.recover s in
      check bool "only page 3 repaired" true (report.repairs = [ (3, Stable.Repaired_primary) ]);
      (* The primary alone now holds every page. *)
      Disk.fail_unit d1;
      List.iter
        (fun p -> check bool "content intact" true (Bytes.equal (payload p) (Stable.read s ~page:p)))
        [ 2; 3; 4 ])

let test_recover_clean_store_reports_nothing () =
  with_store (fun _ _ _ s ->
      Stable.write s ~page:0 (payload 0);
      Stable.write s ~page:1 (payload 1);
      let report = Stable.recover s in
      check int "no repairs" 0 (List.length report.repairs))

let test_recover_reports_lost_page () =
  with_store (fun _ d0 d1 s ->
      Stable.write s ~page:0 (payload 9);
      Disk.inject_media_fault d0 ~sector:0 ~count:5;
      Disk.inject_media_fault d1 ~sector:0 ~count:5;
      let report = Stable.recover s in
      check bool "page 0 lost" true (List.mem (0, Stable.Lost) report.repairs))

let test_scrubber_repairs_decay () =
  (* Decay appears while the system runs; the scrubber repairs it
     without anyone reading the page. *)
  let sim = Sim.create () in
  let d0 = Disk.create ~name:"primary" sim Disk.default_geometry in
  let d1 = Disk.create ~name:"mirror" sim Disk.default_geometry in
  let store =
    Stable.create ~primary:d0 ~primary_sector:0 ~mirror:d1 ~mirror_sector:0
      ~page_bytes ~npages:8
  in
  let repairs_fn = ref (fun () -> 0) in
  let scrubber = ref None in
  let _ = Sim.spawn sim (fun () ->
      Stable.write store ~page:2 (payload 5);
      let pid, repairs = Stable.start_scrubber ~interval_ms:100. store in
      scrubber := Some pid;
      repairs_fn := repairs;
      Sim.sleep sim 50.;
      Disk.inject_media_fault d0 ~sector:0 ~count:50) in
  Sim.run ~until:500. sim;
  check bool "scrubber repaired the decayed primary" true (!repairs_fn () >= 1);
  (match !scrubber with Some pid -> Sim.kill sim pid | None -> ());
  (* The primary now works standalone again. *)
  let verified = ref false in
  let _ = Sim.spawn sim (fun () ->
      Disk.fail_unit d1;
      verified := Bytes.equal (payload 5) (Stable.read store ~page:2)) in
  Sim.run ~until:600. sim;
  check bool "primary standalone after scrub" true !verified

let test_seq_monotonic_across_recover () =
  (* After recover, a fresh torn write must still be recognised as
     newer than what is on disk. *)
  with_store (fun _ _ _ s ->
      Stable.write s ~page:0 (payload 1);
      ignore (Stable.recover s);
      Stable.write_torn s ~page:0 (payload 2);
      ignore (Stable.recover s);
      check bool "latest content" true (Bytes.equal (payload 2) (Stable.read s ~page:0)))

(* A page's copy is 5 sectors: a header, then 4 of payload. *)
let spp = 5

let test_recover_range_reads_only_its_range () =
  with_store ~npages:200 (fun _ d0 d1 s ->
      List.iter (fun p -> Stable.write s ~page:p (payload p)) [ 5; 72; 150 ];
      Disk.reset_stats d0;
      Disk.reset_stats d1;
      let report = Stable.recover_range s ~first:70 ~count:10 in
      check int "pages scanned" 10 report.pages_scanned;
      check int "primary sectors read" (10 * spp) (Disk.stats d0).sectors_read;
      check int "mirror sectors read" (10 * spp) (Disk.stats d1).sectors_read)

(* The block service's chunk map marks [chunk_pages] pages per bit and
   scans a marked chunk with one [recover_range]: that costs exactly one
   reference on each replica. *)
let test_recover_chunk_is_one_reference_pair () =
  with_store ~npages:(3 * Stable.chunk_pages) (fun _ d0 d1 s ->
      Stable.write s ~page:(Stable.chunk_pages + 5) (payload 1);
      Disk.reset_stats d0;
      Disk.reset_stats d1;
      let report = Stable.recover_range s ~first:Stable.chunk_pages ~count:Stable.chunk_pages in
      check int "pages scanned" Stable.chunk_pages report.pages_scanned;
      check int "one primary reference" 1 (Disk.stats d0).references;
      check int "one mirror reference" 1 (Disk.stats d1).references)

(* [read_range] keeps [read]'s rule per page, reads a never-written
   page as zeros, and raises only for a page a device fault took. *)
let test_read_range () =
  with_store ~npages:(3 * Stable.chunk_pages) (fun _ d0 d1 s ->
      let c = Stable.chunk_pages in
      List.iter (fun p -> Stable.write s ~page:p (payload p)) [ c; c + 1; c + 3 ];
      Stable.write_torn s ~page:(c + 1) (payload 99);
      Disk.inject_media_fault d0 ~sector:((c + 3) * spp) ~count:spp;
      let page b i = Bytes.sub b (i * page_bytes) page_bytes in
      let b = Stable.read_range s ~first:c ~count:4 in
      check bool "valid primary" true (Bytes.equal (payload c) (page b 0));
      check bool "newer torn primary" true (Bytes.equal (payload 99) (page b 1));
      check bool "never written reads as zeros" true
        (Bytes.equal (Bytes.make page_bytes '\000') (page b 2));
      check bool "decayed primary falls back to the mirror" true
        (Bytes.equal (payload (c + 3)) (page b 3));
      Disk.reset_stats d0;
      Disk.reset_stats d1;
      ignore (Stable.read_range s ~first:(2 * c) ~count:c);
      check int "one primary reference per chunk" 1 (Disk.stats d0).references;
      check int "one mirror reference per chunk" 1 (Disk.stats d1).references;
      Disk.inject_media_fault d1 ~sector:((c + 3) * spp) ~count:spp;
      check bool "both copies lost raises" true
        (match Stable.read_range s ~first:c ~count:4 with
        | _ -> false
        | exception Stable.Unrecoverable_page p -> p = c + 3))

let test_recover_range_repairs_and_raises_seq () =
  with_store ~npages:200 (fun _ d0 d1 s ->
      Stable.write s ~page:72 (payload 1);
      Stable.write_torn s ~page:72 (payload 2);
      Stable.write s ~page:75 (payload 3);
      Disk.inject_media_fault d1 ~sector:(75 * spp) ~count:spp;
      (* A torn page outside the range is left for another scan. *)
      Stable.write s ~page:10 (payload 4);
      Stable.write_torn s ~page:10 (payload 5);
      let report = Stable.recover_range s ~first:70 ~count:10 in
      check bool "torn and decayed pages repaired, nothing else" true
        (report.repairs = [ (72, Stable.Repaired_mirror); (75, Stable.Repaired_mirror) ]);
      Disk.fail_unit d0;
      check bool "torn page's mirror is current" true
        (Bytes.equal (payload 2) (Stable.read s ~page:72));
      check bool "decayed mirror rewritten" true
        (Bytes.equal (payload 3) (Stable.read s ~page:75));
      Disk.revive_unit d0;
      (* Page 78 outranks every sequence number a fresh store would
         issue; scanning it must lift the fresh store above it. *)
      for i = 1 to 20 do
        Stable.write s ~page:78 (payload i)
      done;
      let fresh =
        Stable.create ~primary:d0 ~primary_sector:0 ~mirror:d1 ~mirror_sector:0
          ~page_bytes ~npages:200
      in
      ignore (Stable.recover_range fresh ~first:78 ~count:1);
      Stable.write_torn fresh ~page:78 (payload 99);
      ignore (Stable.recover_range fresh ~first:78 ~count:1);
      check bool "newer write wins after a range scan" true
        (Bytes.equal (payload 99) (Stable.read fresh ~page:78)))

let test_recover_range_overlaps_replicas () =
  (* The two replicas are on independent disks: the scan takes about
     one replica's read time, not the sum of both. *)
  with_store ~npages:512 (fun sim d0 d1 s ->
      Stable.write s ~page:300 (payload 1);
      Disk.reset_stats d0;
      Disk.reset_stats d1;
      let t0 = Sim.now sim in
      ignore (Stable.recover_range s ~first:0 ~count:512);
      let elapsed = Sim.now sim -. t0 in
      let busy = (Disk.stats d0).busy_ms +. (Disk.stats d1).busy_ms in
      check bool
        (Printf.sprintf "elapsed %.1f ms <= 0.6 x busy %.1f ms" elapsed busy)
        true
        (elapsed <= 0.6 *. busy))

let test_scrubber_repairs_outside_range () =
  (* A range scan leaves page 6 alone; the scrubber's full scan still
     repairs its decay. *)
  let sim = Sim.create () in
  let d0 = Disk.create ~name:"primary" sim Disk.default_geometry in
  let d1 = Disk.create ~name:"mirror" sim Disk.default_geometry in
  let store =
    Stable.create ~primary:d0 ~primary_sector:0 ~mirror:d1 ~mirror_sector:0
      ~page_bytes ~npages:8
  in
  let range_repairs = ref [] and repairs_fn = ref (fun () -> 0) and scrubber = ref None in
  let _ =
    Sim.spawn sim (fun () ->
        Stable.write store ~page:1 (payload 1);
        Stable.write store ~page:6 (payload 6);
        Disk.inject_media_fault d0 ~sector:(6 * spp) ~count:spp;
        range_repairs := (Stable.recover_range store ~first:0 ~count:4).repairs;
        let pid, repairs = Stable.start_scrubber ~interval_ms:100. store in
        scrubber := Some pid;
        repairs_fn := repairs)
  in
  Sim.run ~until:500. sim;
  (match !scrubber with Some pid -> Sim.kill sim pid | None -> ());
  check bool "range scan skipped page 6" true (!range_repairs = []);
  check bool "scrubber repaired page 6" true (!repairs_fn () >= 1);
  let verified = ref false in
  let _ =
    Sim.spawn sim (fun () ->
        Disk.fail_unit d1;
        verified := Bytes.equal (payload 6) (Stable.read store ~page:6))
  in
  Sim.run ~until:600. sim;
  check bool "primary standalone after scrub" true !verified

let test_costs_disk_time () =
  with_store (fun sim _ _ s ->
      let t0 = Sim.now sim in
      Stable.write s ~page:0 (payload 0);
      check bool "mirrored write costs time" true (Sim.now sim > t0))

let test_sizes_validated () =
  with_store (fun _ _ _ s ->
      (try
         Stable.write s ~page:0 (Bytes.create 5);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      try
        ignore (Stable.read s ~page:99);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_sectors_needed () =
  check int "8 pages of 2KiB with 512B sectors" (8 * 5)
    (Stable.sectors_needed ~page_bytes:2048 ~npages:8 ~sector_bytes:512)

let stable_roundtrip_prop =
  QCheck.Test.make ~name:"stable storage survives any single-replica decay"
    ~count:40
    QCheck.(pair (int_bound 7) bool)
    (fun (page, decay_primary) ->
      with_store (fun _ d0 d1 s ->
          let data = payload (page * 13) in
          Stable.write s ~page data;
          let victim = if decay_primary then d0 else d1 in
          Disk.inject_media_fault victim ~sector:0 ~count:200;
          Bytes.equal data (Stable.read s ~page)))

let () =
  Alcotest.run "rhodos_stable"
    [
      ( "basic",
        [
          Alcotest.test_case "write/read" `Quick test_write_read;
          Alcotest.test_case "replicas byte-identical" `Quick test_replicas_byte_identical;
          Alcotest.test_case "unwritten raises" `Quick test_read_unwritten_raises;
          Alcotest.test_case "costs disk time" `Quick test_costs_disk_time;
          Alcotest.test_case "sizes validated" `Quick test_sizes_validated;
          Alcotest.test_case "sectors_needed" `Quick test_sectors_needed;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "primary decay" `Quick test_survives_primary_media_failure;
          Alcotest.test_case "mirror decay" `Quick test_survives_mirror_media_failure;
          Alcotest.test_case "silent corruption" `Quick test_detects_silent_corruption;
          QCheck_alcotest.to_alcotest stable_roundtrip_prop;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "repairs decayed mirror" `Quick
            test_recover_repairs_decayed_mirror;
          Alcotest.test_case "torn write" `Quick test_recover_torn_write;
          Alcotest.test_case "corrupt page mid-chunk" `Quick test_recover_corrupt_page_mid_chunk;
          Alcotest.test_case "clean store" `Quick test_recover_clean_store_reports_nothing;
          Alcotest.test_case "lost page" `Quick test_recover_reports_lost_page;
          Alcotest.test_case "seq monotonic" `Quick test_seq_monotonic_across_recover;
          Alcotest.test_case "background scrubber" `Quick test_scrubber_repairs_decay;
          Alcotest.test_case "range reads only its pages" `Quick
            test_recover_range_reads_only_its_range;
          Alcotest.test_case "chunk is one reference pair" `Quick
            test_recover_chunk_is_one_reference_pair;
          Alcotest.test_case "read_range: read rule per page" `Quick test_read_range;
          Alcotest.test_case "range repairs and raises seq" `Quick
            test_recover_range_repairs_and_raises_seq;
          Alcotest.test_case "range overlaps replicas" `Quick
            test_recover_range_overlaps_replicas;
          Alcotest.test_case "scrubber repairs outside ranges" `Quick
            test_scrubber_repairs_outside_range;
        ] );
    ]
