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
        ] );
    ]
