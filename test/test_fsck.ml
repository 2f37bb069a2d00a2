(* Storage-accounting tests: the fsck checker itself, and the facility
   holding its no-leak/no-phantom invariants through workloads, aborts,
   deletions and crash recovery. *)

module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Fsck = Rhodos_file.Fsck
module Txn = Rhodos_txn.Txn_service
module Cluster = Rhodos.Cluster
module Ta = Rhodos_agent.Transaction_agent
module Fa = Rhodos_agent.File_agent

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mib n = n * 1024 * 1024

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  while !result = None && Sim.step sim do
    ()
  done;
  match !result with Some r -> r | None -> Alcotest.fail "simulation stalled"

let make_fs ?(ndisks = 1) sim =
  let disks =
    Array.init ndisks (fun i ->
        let disk =
          Disk.create ~name:(Printf.sprintf "d%d" i) sim
            (Disk.geometry_with_capacity (mib 8))
        in
        let bs = Block.create ~disk () in
        Block.format bs;
        bs)
  in
  Fs.create ~disks ()

let fsck_str r = Format.asprintf "%a" Fsck.pp_report r

(* ------------------------------------------------------------------ *)
(* The checker itself                                                  *)
(* ------------------------------------------------------------------ *)

let test_clean_after_workload () =
  run_in_sim (fun sim ->
      let fs = make_fs ~ndisks:2 sim in
      let rng = Rhodos_util.Rng.create 5 in
      let files = ref [] in
      for _ = 1 to 20 do
        let id = Fs.create_file fs in
        Fs.pwrite fs id ~off:0
          (Bytes.make (1 + Rhodos_util.Rng.int rng 60000) 'w');
        files := id :: !files
      done;
      (* Delete a few; they must release all their storage. *)
      let deleted, kept =
        List.partition (fun _ -> Rhodos_util.Rng.int rng 3 = 0) !files
      in
      List.iter (Fs.delete fs) deleted;
      let report = Fsck.check fs ~files:kept () in
      check bool (fsck_str report) true (Fsck.is_clean report);
      check int "all kept files checked" (List.length kept) report.Fsck.files_checked;
      check bool "accounting adds up" true
        (report.Fsck.fragments_allocated = report.Fsck.fragments_reachable);
      ignore sim)

let test_leak_detected () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (Bytes.make 100 'x');
      (* Allocate storage that nothing references. *)
      ignore (Block.allocate (Fs.block_service fs 0) ~fragments:5);
      let report = Fsck.check fs ~files:[ id ] () in
      check bool "not clean" false (Fsck.is_clean report);
      check int "five leaked fragments" 5 (List.length report.Fsck.leaked))

let test_phantom_detected () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let id = Fs.create_file fs in
      Fs.pwrite fs id ~off:0 (Bytes.make 50000 'p');
      (* Free a fragment out from under the file. *)
      (match Fs.file_runs fs id with
      | r :: _ -> Block.free (Fs.block_service fs 0) ~pos:r.Rhodos_file.Fit.frag ~fragments:1
      | [] -> Alcotest.fail "expected runs");
      let report = Fsck.check fs ~files:[ id ] () in
      check bool "phantom found" true (List.length report.Fsck.phantom >= 1))

let test_unregistered_region_is_a_leak () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let id = Fs.create_file fs in
      let frag = Block.allocate (Fs.block_service fs 0) ~fragments:8 in
      let without = Fsck.check fs ~files:[ id ] () in
      check bool "leak without declaration" false (Fsck.is_clean without);
      let with_region =
        Fsck.check fs ~files:[ id ] ~regions:[ ("mine", 0, frag, 8) ] ()
      in
      check bool (fsck_str with_region) true (Fsck.is_clean with_region))

let test_unreadable_fit_reported () =
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let bogus = Fs.id_of_int 999_999 in
      let report = Fsck.check fs ~files:[ bogus ] () in
      check int "unreadable" 1 (List.length report.Fsck.unreadable_fits))

(* ------------------------------------------------------------------ *)
(* Facility-level invariants                                           *)
(* ------------------------------------------------------------------ *)

let test_cluster_clean_after_transactions () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.mkdir c "/app";
      (* Plain files, committed transactions, aborted transactions,
         deletions — after all of it, storage must balance. *)
      let d = Cluster.create_file c "/app/plain" in
      Cluster.write c d (Bytes.make 30000 'p');
      Fa.flush (Cluster.file_agent c);
      Cluster.close c d;
      Cluster.with_transaction c (fun ta td ->
          let fd = Ta.tcreate ta td ~path:"/app/committed" in
          Ta.twrite ta td fd (Bytes.make 20000 'c'));
      (try
         Cluster.with_transaction c (fun ta td ->
             let fd = Ta.tcreate ta td ~path:"/app/aborted" in
             Ta.twrite ta td fd (Bytes.make 20000 'a');
             failwith "abort")
       with Failure _ -> ());
      Cluster.delete c "/app/plain";
      let report = Cluster.fsck t in
      check bool (fsck_str report) true (Fsck.is_clean report))

let test_cluster_clean_after_crash_recovery () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.with_transaction c (fun ta td ->
          let fd = Ta.tcreate ta td ~path:"/durable" in
          Ta.twrite ta td fd (Bytes.make 40000 'd'));
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      let report = Cluster.fsck t in
      check bool (fsck_str report) true (Fsck.is_clean report);
      (* And again after more work post-recovery. *)
      let d = Cluster.create_file c "/after" in
      Cluster.write c d (Bytes.make 9000 'x');
      Fa.flush (Cluster.file_agent c);
      let report = Cluster.fsck t in
      check bool (fsck_str report) true (Fsck.is_clean report))

let test_shadow_commit_balances_storage () =
  (* Shadow-page commits allocate new blocks and free old ones: the
     books must balance afterwards. *)
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let ts =
        Txn.create
          ~config:{ Txn.default_config with Txn.force_technique = Some Txn.Shadow_page }
          ~fs ()
      in
      let region, len = Txn.log_region ts in
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (16 * 8192) 's');
      Txn.tend ts setup;
      let txn = Txn.tbegin ts in
      Txn.twrite ts txn f ~off:(3 * 8192) (Bytes.make 8192 'u');
      Txn.twrite ts txn f ~off:(9 * 8192) (Bytes.make 8192 'v');
      Txn.tend ts txn;
      let report =
        Fsck.check fs ~files:[ f ] ~regions:[ ("txn-log", 0, region, len) ] ()
      in
      check bool (fsck_str report) true (Fsck.is_clean report))

let test_crash_mid_shadow_commit_no_leak () =
  (* A transaction that crashed during commit phase 1: its Shadow
     records are on the log (pointing at written shadow blocks, which
     the commit reserves: allocated in memory, free on disk) but there
     is no Commit record. After a reboot, recovery must discard the
     transaction, and no shadow block may stay allocated. *)
  run_in_sim (fun sim ->
      let fs = make_fs sim in
      let ts = Txn.create ~fs () in
      let region, len = Txn.log_region ts in
      let setup = Txn.tbegin ts in
      let f = Txn.tcreate ts setup in
      Txn.twrite ts setup f ~off:0 (Bytes.make (8 * 8192) 'o');
      Txn.tend ts setup;
      Txn.sync_log ts;
      (* Hand-craft the mid-commit state. *)
      let bs = Fs.block_service fs 0 in
      let shadow_frag = Block.reserve_block bs ~blocks:1 in
      Block.put_block bs ~pos:shadow_frag (Bytes.make 8192 'S');
      let log = Rhodos_txn.Txn_log.attach bs ~region ~fragments:len in
      Rhodos_txn.Txn_log.append log
        [ Rhodos_txn.Txn_log.Shadow
            {
              txn = 555;
              file = Fs.id_to_int f;
              block_index = 2;
              shadow_disk = 0;
              shadow_frag;
            } ];
      (* No Commit record: the machine died here. Reboot from the disk. *)
      Txn.shutdown ts;
      ignore (Fs.crash fs);
      let bs = Block.create ~disk:(Block.disk bs) () in
      Block.attach bs;
      let fs = Fs.create ~disks:[| bs |] () in
      let _ts2, report = Txn.recover_service ~fs ~log_region:(region, len) () in
      check bool "discarded" true (List.mem 555 report.Txn.discarded_transactions);
      check bool "shadow block free" true
        (Block.is_free bs ~pos:shadow_frag ~fragments:Block.fragments_per_block);
      let fsck =
        Fsck.check fs ~files:[ f ] ~regions:[ ("txn-log", 0, region, len) ] ()
      in
      check bool (fsck_str fsck) true (Fsck.is_clean fsck);
      (* The file still reads its pre-crash content. *)
      check bool "content untouched" true
        (Bytes.equal (Fs.pread fs f ~off:(2 * 8192) ~len:8192) (Bytes.make 8192 'o')))

let () =
  Alcotest.run "rhodos_fsck"
    [
      ( "checker",
        [
          Alcotest.test_case "clean after workload" `Quick test_clean_after_workload;
          Alcotest.test_case "leak detected" `Quick test_leak_detected;
          Alcotest.test_case "phantom detected" `Quick test_phantom_detected;
          Alcotest.test_case "regions" `Quick test_unregistered_region_is_a_leak;
          Alcotest.test_case "unreadable FIT" `Quick test_unreadable_fit_reported;
        ] );
      ( "facility invariants",
        [
          Alcotest.test_case "clean after transactions" `Quick
            test_cluster_clean_after_transactions;
          Alcotest.test_case "clean after crash recovery" `Quick
            test_cluster_clean_after_crash_recovery;
          Alcotest.test_case "shadow commits balance" `Quick
            test_shadow_commit_balances_storage;
          Alcotest.test_case "crash mid shadow commit" `Quick
            test_crash_mid_shadow_commit_no_leak;
        ] );
    ]
