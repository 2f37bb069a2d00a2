(* Unit tests for the client-machine agents, driven against a local
   (in-process) file service through hand-built connections — no
   network, so the behaviours under test are the agents' own. *)

module Sim = Rhodos_sim.Sim
module Disk = Rhodos_disk.Disk
module Block = Rhodos_block.Block_service
module Fs = Rhodos_file.File_service
module Fit = Rhodos_file.Fit
module Ns = Rhodos_naming.Name_service
module Txn = Rhodos_txn.Txn_service
module Conn = Rhodos_agent.Service_conn
module Fa = Rhodos_agent.File_agent
module Da = Rhodos_agent.Device_agent
module Ta = Rhodos_agent.Transaction_agent
module Env = Rhodos_agent.Process_env
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let mib n = n * 1024 * 1024

(* Local connections straight into a file service + naming tree. *)
let make_world sim =
  let disk = Disk.create sim (Disk.geometry_with_capacity (mib 8)) in
  let bs = Block.create ~disk () in
  Block.format bs;
  let fs = Fs.create ~disks:[| bs |] () in
  let ns = Ns.create () in
  let ts = Txn.create ~fs () in
  let txn_handles : (int, Txn.txn) Hashtbl.t = Hashtbl.create 8 in
  let fs_conn =
    {
      Conn.resolve = (fun aname -> (Ns.resolve ns aname).Ns.id);
      bind =
        (fun ~path ~file_id ->
          Ns.bind ns ~path ~kind:Ns.File { Ns.service = "fs0"; id = file_id });
      unbind = (fun path -> Ns.unbind ns path);
      mkdir = (fun path -> Ns.mkdir_p ns path);
      create_file = (fun () -> Fs.id_to_int (Fs.create_file fs));
      open_file =
        (fun id ->
          Fs.open_file fs (Fs.id_of_int id);
          Fs.get_attributes fs (Fs.id_of_int id));
      close_file = (fun id -> Fs.close_file fs (Fs.id_of_int id));
      delete_file = (fun id -> Fs.delete fs (Fs.id_of_int id));
      pread = (fun id ~off ~len -> Fs.pread fs (Fs.id_of_int id) ~off ~len);
      pread_stream = None;
      pwrite = (fun id ~off ~data -> Fs.pwrite fs (Fs.id_of_int id) ~off data);
      get_attributes = (fun id -> Fs.get_attributes fs (Fs.id_of_int id));
      truncate = (fun id ~size -> Fs.truncate fs (Fs.id_of_int id) size);
    }
  in
  let with_txn h f =
    match Hashtbl.find_opt txn_handles h with
    | Some txn -> f txn
    | None -> raise (Txn.No_such_transaction h)
  in
  let txn_conn =
    {
      Conn.tbegin =
        (fun () ->
          let txn = Txn.tbegin ts in
          Hashtbl.replace txn_handles (Txn.txn_id txn) txn;
          Txn.txn_id txn);
      tcreate =
        (fun ~locking h ->
          with_txn h (fun txn ->
              Fs.id_to_int (Txn.tcreate ~locking_level:locking ts txn)));
      topen = (fun h id -> with_txn h (fun txn -> Txn.topen ts txn (Fs.id_of_int id)));
      tclose = (fun h id -> with_txn h (fun txn -> Txn.tclose ts txn (Fs.id_of_int id)));
      tdelete = (fun h id -> with_txn h (fun txn -> Txn.tdelete ts txn (Fs.id_of_int id)));
      tread =
        (fun h id ~off ~len ~intent_update ->
          with_txn h (fun txn ->
              let intent = if intent_update then `Update else `Query in
              Txn.tread ~intent ts txn (Fs.id_of_int id) ~off ~len));
      twrite =
        (fun h id ~off ~data ->
          with_txn h (fun txn -> Txn.twrite ts txn (Fs.id_of_int id) ~off data));
      tget_attribute =
        (fun h id -> with_txn h (fun txn -> Txn.tget_attribute ts txn (Fs.id_of_int id)));
      tend = (fun h -> with_txn h (fun txn -> Txn.tend ts txn));
      tabort = (fun h -> with_txn h (fun txn -> Txn.tabort ts txn));
    }
  in
  (fs, ns, fs_conn, txn_conn)

let run_in_sim f =
  let sim = Sim.create () in
  let result = ref None in
  let _ = Sim.spawn sim (fun () -> result := Some (f sim)) in
  while !result = None && Sim.step sim do
    ()
  done;
  match !result with Some r -> r | None -> Alcotest.fail "simulation stalled"

let with_agent ?config f =
  run_in_sim (fun sim ->
      let fs, ns, fs_conn, _ = make_world sim in
      let fa = Fa.create ?config ~sim ~conn:fs_conn () in
      f sim fs ns fa)

(* ------------------------------------------------------------------ *)
(* File agent                                                          *)
(* ------------------------------------------------------------------ *)

let test_fa_descriptors_above_100k () =
  with_agent (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/x" in
      check bool "above 100000" true (d > 100_000);
      check bool "classified as file" true (Fa.is_file_descriptor d);
      let d2 = Fa.create_file fa ~path:"/y" in
      check bool "distinct" true (d <> d2);
      check int "two open" 2 (Fa.open_count fa))

let test_fa_seek_semantics () =
  with_agent (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/s" in
      Fa.write fa d (Bytes.of_string "0123456789");
      check int "pos after write" 10 (Fa.lseek fa d (`Cur 0));
      check int "seek set" 4 (Fa.lseek fa d (`Set 4));
      check Alcotest.string "read at 4" "456" (Bytes.to_string (Fa.read fa d 3));
      check int "pos advanced" 7 (Fa.lseek fa d (`Cur 0));
      check int "seek end" 8 (Fa.lseek fa d (`End (-2)));
      check Alcotest.string "tail" "89" (Bytes.to_string (Fa.read fa d 10));
      (* pread does not move the pointer. *)
      ignore (Fa.pread fa d ~off:0 ~len:5);
      check int "pointer unmoved" 10 (Fa.lseek fa d (`Cur 0)))

let test_fa_bad_descriptor () =
  with_agent (fun _ _ _ fa ->
      try
        ignore (Fa.read fa 123_456 1);
        Alcotest.fail "expected Bad_descriptor"
      with Fa.Bad_descriptor _ -> ())

let test_fa_cache_absorbs_rereads () =
  with_agent (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/c" in
      Fa.write fa d (Bytes.make 16384 'c');
      for _ = 1 to 5 do
        ignore (Fa.pread fa d ~off:0 ~len:16384)
      done;
      (* First read may fetch; later ones must not. *)
      let remote = Counter.get (Fa.stats fa) "remote_reads" in
      ignore (Fa.pread fa d ~off:0 ~len:16384);
      check int "no extra remote reads" remote (Counter.get (Fa.stats fa) "remote_reads"))

let test_fa_no_cache_mode_passthrough () =
  with_agent
    ~config:{ Fa.default_config with Fa.cache_blocks = 0 }
    (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/nc" in
      Fa.write fa d (Bytes.make 100 'n');
      ignore (Fa.lseek fa d (`Set 0));
      ignore (Fa.read fa d 100);
      ignore (Fa.lseek fa d (`Set 0));
      ignore (Fa.read fa d 100);
      check bool "every read goes remote" true
        (Counter.get (Fa.stats fa) "remote_reads" >= 2))

let test_fa_coalesces_contiguous_misses () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/co" in
      Fa.write fa d (Bytes.make 32768 'm');
      Fa.flush fa;
      Fs.drop_caches fs;
      let file = Fa.descriptor_file fa d in
      Fa.invalidate_file fa ~file;
      let before = Counter.get (Fa.stats fa) "remote_reads" in
      let got = Fa.pread fa d ~off:0 ~len:32768 in
      check bool "data intact" true (Bytes.equal got (Bytes.make 32768 'm'));
      check int "4 cold blocks = 1 range fetch" 1
        (Counter.get (Fa.stats fa) "remote_reads" - before);
      check int "3 blocks spared an RPC" 3
        (Counter.get (Fa.stats fa) "coalesced_block_reads"))

let test_fa_single_flight_dedup () =
  with_agent (fun sim fs _ fa ->
      let d = Fa.create_file fa ~path:"/sf" in
      Fa.write fa d (Bytes.make 8192 's');
      Fa.flush fa;
      Fs.drop_caches fs (* the fetch must cost disk time to overlap *);
      Fa.invalidate_file fa ~file:(Fa.descriptor_file fa d);
      let before = Counter.get (Fa.stats fa) "remote_reads" in
      let done_ = ref 0 in
      for _ = 1 to 2 do
        ignore
          (Sim.spawn sim (fun () ->
               let got = Fa.pread fa d ~off:0 ~len:8192 in
               check bool "reader sees the data" true
                 (Bytes.equal got (Bytes.make 8192 's'));
               incr done_))
      done;
      while !done_ < 2 do
        Sim.sleep sim 1.
      done;
      check int "concurrent same-block readers share one fetch" 1
        (Counter.get (Fa.stats fa) "remote_reads" - before))

let test_fa_sequential_read_ahead () =
  with_agent (fun _ fs _ fa ->
      let blocks = 16 in
      let d = Fa.create_file fa ~path:"/seq" in
      Fa.write fa d (Bytes.make (blocks * 8192) 'q');
      Fa.flush fa;
      Fs.drop_caches fs;
      Fa.invalidate_file fa ~file:(Fa.descriptor_file fa d);
      ignore (Fa.lseek fa d (`Set 0));
      let before = Counter.get (Fa.stats fa) "remote_reads" in
      for _ = 1 to blocks do
        check int "block-sized chunk" 8192 (Bytes.length (Fa.read fa d 8192))
      done;
      let s = Fa.stats fa in
      check bool "read-ahead issued" true (Counter.get s "prefetch_issued" > 0);
      check bool "read-ahead hit" true (Counter.get s "prefetch_hits" > 0);
      check bool "fewer fetches than blocks" true
        (Counter.get s "remote_reads" - before < blocks))

let test_fa_random_reads_no_prefetch () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/rnd" in
      Fa.write fa d (Bytes.make (16 * 8192) 'r');
      Fa.flush fa;
      Fs.drop_caches fs;
      Fa.invalidate_file fa ~file:(Fa.descriptor_file fa d);
      (* Every read lands somewhere the previous one did not end. *)
      List.iter
        (fun bi -> ignore (Fa.pread fa d ~off:(bi * 8192) ~len:8192))
        [ 9; 3; 12; 6; 1; 14 ];
      check int "no read-ahead on a random pattern" 0
        (Counter.get (Fa.stats fa) "prefetch_issued"))

let test_fa_write_survives_inflight_prefetch () =
  (* Regression: a full-block pwrite to a block with an in-flight
     read-ahead used to be silently clobbered — the prefetch completed
     after the write, passed complete_block's identity check, and
     replaced the new dirty bytes with the stale fetched ones, which
     were then flushed over the server copy. *)
  with_agent (fun sim fs _ fa ->
      let blocks = 8 in
      let d = Fa.create_file fa ~path:"/wp" in
      Fa.write fa d (Bytes.make (blocks * 8192) 'a');
      Fa.flush fa;
      Fs.drop_caches fs;
      let file = Fa.descriptor_file fa d in
      Fa.invalidate_file fa ~file;
      ignore (Fa.lseek fa d (`Set 0));
      (* Sequential reads arm read-ahead for the blocks after them: by
         the time the second read returns, a prefetch covering blocks
         3.. has been issued but not yet completed... *)
      ignore (Fa.read fa d 8192);
      ignore (Fa.read fa d 8192);
      (* ...and one of those covered blocks gets a full-block write
         (which never waits on the fetch). *)
      let fresh = Bytes.make 8192 'B' in
      Fa.pwrite fa d ~off:(4 * 8192) ~data:fresh;
      Sim.sleep sim 1000. (* let every read-ahead land *);
      check bool "cache serves the written data" true
        (Bytes.equal (Fa.pread fa d ~off:(4 * 8192) ~len:8192) fresh);
      Fa.flush fa;
      check bool "service got the written data, not the stale block" true
        (Bytes.equal
           (Fs.pread fs (Fs.id_of_int file) ~off:(4 * 8192) ~len:8192)
           fresh))

let test_fa_failed_prefetch_no_phantom_hit () =
  (* Regression: a prefetch that failed used to leave its reservation
     in the read-ahead table, so the later demand read of the block
     counted a prefetch hit that never delivered any data. *)
  run_in_sim (fun sim ->
      let fs, _, fs_conn, _ = make_world sim in
      let fail_tail = ref false in
      let conn =
        {
          fs_conn with
          Conn.pread =
            (fun id ~off ~len ->
              if !fail_tail && off >= 8192 then failwith "injected read error"
              else fs_conn.Conn.pread id ~off ~len);
        }
      in
      let fa = Fa.create ~sim ~conn () in
      let d = Fa.create_file fa ~path:"/pf" in
      Fa.write fa d (Bytes.make (4 * 8192) 'p');
      Fa.flush fa;
      Fs.drop_caches fs;
      Fa.invalidate_file fa ~file:(Fa.descriptor_file fa d);
      fail_tail := true;
      ignore (Fa.lseek fa d (`Set 0));
      ignore (Fa.read fa d 8192) (* arms read-ahead; the prefetch dies *);
      Sim.sleep sim 1000. (* let the failed prefetch settle *);
      fail_tail := false;
      check int "block 1 re-read on demand" 8192 (Bytes.length (Fa.read fa d 8192));
      check int "a failed prefetch is not a hit" 0
        (Counter.get (Fa.stats fa) "prefetch_hits"))

let test_fa_flush_coalesces_dirty_runs () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/fc" in
      Fa.write fa d (Bytes.make 32768 'w');
      let before = Counter.get (Fa.stats fa) "remote_writes" in
      Fa.flush fa;
      check int "4 contiguous dirty blocks = 1 range write" 1
        (Counter.get (Fa.stats fa) "remote_writes" - before);
      check int "3 blocks spared an RPC" 3
        (Counter.get (Fa.stats fa) "coalesced_block_writes");
      let id = Fs.id_of_int (Fa.descriptor_file fa d) in
      check bool "service has the data" true
        (Bytes.equal (Fs.pread fs id ~off:0 ~len:32768) (Bytes.make 32768 'w')))

let test_fa_flush_trims_partial_tail () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/tail" in
      Fa.write fa d (Bytes.make 20000 't');
      Fa.flush fa;
      let id = Fs.id_of_int (Fa.descriptor_file fa d) in
      check int "coalesced flush does not pad the file" 20000
        (Fs.get_attributes fs id).Fit.size)

let test_fa_extending_write_larger_than_cache () =
  (* Regression: the logical size used to be raised only after the
     block loop, so the evictions the loop itself forced flushed the
     new blocks trimmed to the old size — dropping them. *)
  let cache_blocks = 8 in
  with_agent ~config:{ Fa.default_config with Fa.cache_blocks } (fun _ fs _ fa ->
      let len = 2 * cache_blocks * 8192 in
      let data = Bytes.init len (fun i -> Char.chr ((i * 7 + (i / 8192)) mod 256)) in
      let d = Fa.create_file fa ~path:"/big" in
      Fa.pwrite fa d ~off:0 ~data;
      Fa.flush fa;
      let file = Fa.descriptor_file fa d in
      check int "service size" len (Fs.get_attributes fs (Fs.id_of_int file)).Fit.size;
      Fs.drop_caches fs;
      Fa.invalidate_file fa ~file;
      check bool "cold read-back equals the data" true
        (Bytes.equal data (Fa.pread fa d ~off:0 ~len)))

let test_fa_flush_then_service_sees_data () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/f" in
      Fa.write fa d (Bytes.of_string "delayed");
      let id = Fs.id_of_int (Fa.descriptor_file fa d) in
      (* Dirty in the agent; the service may not have it yet. *)
      Fa.flush fa;
      check Alcotest.string "after flush the service has it" "delayed"
        (Bytes.to_string (Fs.pread fs id ~off:0 ~len:7)))

let test_fa_close_flushes () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/cf" in
      Fa.write fa d (Bytes.of_string "on-close");
      let id = Fs.id_of_int (Fa.descriptor_file fa d) in
      Fa.close fa d;
      check Alcotest.string "close wrote back" "on-close"
        (Bytes.to_string (Fs.pread fs id ~off:0 ~len:8));
      check int "refcount dropped" 0 (Fs.get_attributes fs id).Fit.ref_count)

let test_fa_invalidate_file () =
  with_agent (fun _ fs _ fa ->
      let d = Fa.create_file fa ~path:"/inv" in
      Fa.write fa d (Bytes.make 8192 'O');
      Fa.flush fa;
      ignore (Fa.pread fa d ~off:0 ~len:8192) (* cached *);
      (* Someone else (a transaction) changes the file underneath. *)
      let id = Fs.id_of_int (Fa.descriptor_file fa d) in
      Fs.pwrite fs id ~off:0 (Bytes.make 8192 'N');
      check bool "stale before invalidate" true
        (Bytes.get (Fa.pread fa d ~off:0 ~len:1) 0 = 'O');
      Fa.invalidate_file fa ~file:(Fs.id_to_int id);
      check bool "fresh after invalidate" true
        (Bytes.get (Fa.pread fa d ~off:0 ~len:1) 0 = 'N'))

let test_fa_name_cache () =
  with_agent (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/n" in
      Fa.close fa d;
      ignore (Fa.open_file fa ~path:"/n");
      ignore (Fa.open_file fa ~path:"/n");
      check bool "name cache hit" true
        (Counter.get (Fa.name_cache_stats fa) "hits" >= 1))

let test_fa_crash_forgets_everything () =
  with_agent (fun _ _ _ fa ->
      let d = Fa.create_file fa ~path:"/z" in
      Fa.write fa d (Bytes.make 8192 'z');
      let lost = Fa.crash fa in
      check bool "lost dirty" true (lost >= 1);
      check int "no descriptors" 0 (Fa.open_count fa);
      try
        ignore (Fa.read fa d 1);
        Alcotest.fail "expected Bad_descriptor"
      with Fa.Bad_descriptor _ -> ())

let test_fa_redirect_slots () =
  with_agent (fun _ _ _ fa ->
      let out = Fa.open_redirect fa ~path:"/log" ~slot:`Stdout in
      check int "stdout slot" 100_001 out;
      let inp = Fa.open_redirect fa ~path:"/input" ~slot:`Stdin in
      check int "stdin slot" 100_002 inp;
      let err = Fa.open_redirect fa ~path:"/errors" ~slot:`Stderr in
      check int "stderr slot" 100_003 err;
      (* Re-redirecting reuses the slot. *)
      let out2 = Fa.open_redirect fa ~path:"/log2" ~slot:`Stdout in
      check int "slot reused" 100_001 out2)

(* ------------------------------------------------------------------ *)
(* Device agent                                                        *)
(* ------------------------------------------------------------------ *)

let test_da_console_preopened () =
  run_in_sim (fun sim ->
      let da = Da.create sim in
      Da.write da 1 (Bytes.of_string "out");
      Da.write da 2 (Bytes.of_string "err");
      check Alcotest.string "stdout device" "out"
        (Bytes.to_string (Da.output_of da "console-out"));
      check Alcotest.string "stderr device" "err"
        (Bytes.to_string (Da.output_of da "console-err"));
      Da.feed_input da "console-in" (Bytes.of_string "typed");
      check Alcotest.string "stdin device" "typed" (Bytes.to_string (Da.read da 0 100)))

let test_da_blocking_read () =
  run_in_sim (fun sim ->
      let da = Da.create sim in
      Da.register_device da "serial";
      let d = Da.open_device da "serial" in
      let got = ref "" in
      let _ = Sim.spawn sim (fun () ->
          got := Bytes.to_string (Da.read_blocking da d 10)) in
      Sim.sleep sim 5.;
      check Alcotest.string "still blocked" "" !got;
      Da.feed_input da "serial" (Bytes.of_string "ping");
      Sim.sleep sim 1.;
      check Alcotest.string "woken with data" "ping" !got)

let test_da_unknown_device () =
  run_in_sim (fun sim ->
      let da = Da.create sim in
      try
        ignore (Da.open_device da "nonexistent");
        Alcotest.fail "expected No_such_device"
      with Da.No_such_device _ -> ())

(* ------------------------------------------------------------------ *)
(* Transaction agent + process env                                     *)
(* ------------------------------------------------------------------ *)

let test_ta_descriptor_seek () =
  run_in_sim (fun sim ->
      let _, _, fs_conn, txn_conn = make_world sim in
      let ta = Ta.create ~sim ~fs_conn ~txn_conn () in
      let td = Ta.tbegin ta in
      let d = Ta.tcreate ta td ~path:"/t" in
      Ta.twrite ta td d (Bytes.of_string "abcdef");
      ignore (Ta.tlseek ta td d (`Set 2));
      check Alcotest.string "tread from pointer" "cd"
        (Bytes.to_string (Ta.tread ta td d 2));
      check int "pointer advanced" 4 (Ta.tlseek ta td d (`Cur 0));
      check int "attribute size includes tentative" 6
        (Ta.tget_attribute ta td d).Fit.size;
      Ta.tend ta td)

let test_ta_commit_invalidates_file_agent () =
  run_in_sim (fun sim ->
      let _, _, fs_conn, txn_conn = make_world sim in
      let fa = Fa.create ~sim ~conn:fs_conn () in
      let ta =
        Ta.create
          ~on_commit:(fun ~file -> Fa.invalidate_file fa ~file)
          ~sim ~fs_conn ~txn_conn ()
      in
      (* Basic-file path caches old data... *)
      let d = Fa.create_file fa ~path:"/shared" in
      Fa.write fa d (Bytes.of_string "OLD!");
      Fa.flush fa;
      ignore (Fa.pread fa d ~off:0 ~len:4);
      (* ...a transaction updates the same file... *)
      let td = Ta.tbegin ta in
      let fd = Ta.topen ta td ~path:"/shared" in
      Ta.tpwrite ta td fd ~off:0 ~data:(Bytes.of_string "NEW!");
      Ta.tend ta td;
      (* ...and the basic path must not serve the stale block. *)
      check Alcotest.string "sees committed data" "NEW!"
        (Bytes.to_string (Fa.pread fa d ~off:0 ~len:4)))

let test_env_dispatch_by_descriptor_value () =
  run_in_sim (fun sim ->
      let _, _, fs_conn, txn_conn = make_world sim in
      let fa = Fa.create ~sim ~conn:fs_conn () in
      let da = Da.create sim in
      let ta = Ta.create ~sim ~fs_conn ~txn_conn () in
      let env = Env.create ~devices:da ~files:fa ~transactions:ta () in
      (* Default stdout is the console device. *)
      Env.print env "console!";
      check Alcotest.string "device path" "console!"
        (Bytes.to_string (Da.output_of da "console-out"));
      (* After redirection, the same call lands in a file. *)
      Env.redirect_stdout env ~path:"/capture";
      Env.print env "file!";
      Fa.flush fa;
      let d = Fa.open_file fa ~path:"/capture" in
      check Alcotest.string "file path" "file!" (Bytes.to_string (Fa.read fa d 10)))

let test_env_twin_refused_with_txn () =
  run_in_sim (fun sim ->
      let _, _, fs_conn, txn_conn = make_world sim in
      let fa = Fa.create ~sim ~conn:fs_conn () in
      let da = Da.create sim in
      let ta = Ta.create ~sim ~fs_conn ~txn_conn () in
      let env = Env.create ~devices:da ~files:fa ~transactions:ta () in
      let td = Env.begin_transaction env in
      check (Alcotest.list int) "tracked" [ td ] (Env.transaction_descriptors env);
      (try
         ignore (Env.twin env);
         Alcotest.fail "expected Cannot_twin_with_transactions"
       with Env.Cannot_twin_with_transactions -> ());
      Env.end_transaction env td `Commit;
      let child = Env.twin env in
      check (Alcotest.list int) "child has no txns" []
        (Env.transaction_descriptors child))

let test_ta_agent_process_lifecycle_local () =
  run_in_sim (fun sim ->
      let _, _, fs_conn, txn_conn = make_world sim in
      let ta = Ta.create ~sim ~fs_conn ~txn_conn () in
      check bool "dormant" false (Ta.is_running ta);
      let td1 = Ta.tbegin ta in
      let td2 = Ta.tbegin ta in
      check bool "alive with two txns" true (Ta.is_running ta);
      check int "two active" 2 (Ta.active_transactions ta);
      Ta.tabort ta td1;
      check bool "still alive with one" true (Ta.is_running ta);
      Ta.tabort ta td2;
      Sim.sleep sim 1.;
      check bool "gone after last" false (Ta.is_running ta);
      check int "one spawn for the burst" 1 (Ta.spawn_count ta))

let () =
  Alcotest.run "rhodos_agent"
    [
      ( "file agent",
        [
          Alcotest.test_case "descriptors > 100000" `Quick test_fa_descriptors_above_100k;
          Alcotest.test_case "seek semantics" `Quick test_fa_seek_semantics;
          Alcotest.test_case "bad descriptor" `Quick test_fa_bad_descriptor;
          Alcotest.test_case "cache absorbs rereads" `Quick test_fa_cache_absorbs_rereads;
          Alcotest.test_case "no-cache passthrough" `Quick test_fa_no_cache_mode_passthrough;
          Alcotest.test_case "flush" `Quick test_fa_flush_then_service_sees_data;
          Alcotest.test_case "extending write larger than cache" `Quick
            test_fa_extending_write_larger_than_cache;
          Alcotest.test_case "close flushes" `Quick test_fa_close_flushes;
          Alcotest.test_case "invalidate_file" `Quick test_fa_invalidate_file;
          Alcotest.test_case "name cache" `Quick test_fa_name_cache;
          Alcotest.test_case "crash" `Quick test_fa_crash_forgets_everything;
          Alcotest.test_case "redirect slots" `Quick test_fa_redirect_slots;
          Alcotest.test_case "coalesced misses" `Quick
            test_fa_coalesces_contiguous_misses;
          Alcotest.test_case "single-flight dedup" `Quick test_fa_single_flight_dedup;
          Alcotest.test_case "sequential read-ahead" `Quick
            test_fa_sequential_read_ahead;
          Alcotest.test_case "random reads no prefetch" `Quick
            test_fa_random_reads_no_prefetch;
          Alcotest.test_case "write survives in-flight prefetch" `Quick
            test_fa_write_survives_inflight_prefetch;
          Alcotest.test_case "failed prefetch is not a hit" `Quick
            test_fa_failed_prefetch_no_phantom_hit;
          Alcotest.test_case "flush coalesces dirty runs" `Quick
            test_fa_flush_coalesces_dirty_runs;
          Alcotest.test_case "flush trims partial tail" `Quick
            test_fa_flush_trims_partial_tail;
        ] );
      ( "device agent",
        [
          Alcotest.test_case "console preopened" `Quick test_da_console_preopened;
          Alcotest.test_case "blocking read" `Quick test_da_blocking_read;
          Alcotest.test_case "unknown device" `Quick test_da_unknown_device;
        ] );
      ( "transaction agent + env",
        [
          Alcotest.test_case "descriptor seek" `Quick test_ta_descriptor_seek;
          Alcotest.test_case "commit invalidates agent cache" `Quick
            test_ta_commit_invalidates_file_agent;
          Alcotest.test_case "env dispatch" `Quick test_env_dispatch_by_descriptor_value;
          Alcotest.test_case "twin refused with txn" `Quick test_env_twin_refused_with_txn;
          Alcotest.test_case "agent lifecycle" `Quick test_ta_agent_process_lifecycle_local;
        ] );
    ]
