(* End-to-end tests of the assembled facility (Fig. 1), covering the
   agents, the RPC client-server interface and full-system crash
   recovery. *)

module Sim = Rhodos_sim.Sim
module Cluster = Rhodos.Cluster
module File_agent = Rhodos_agent.File_agent
module Device_agent = Rhodos_agent.Device_agent
module Transaction_agent = Rhodos_agent.Transaction_agent
module Process_env = Rhodos_agent.Process_env
module Txn = Rhodos_txn.Txn_service
module Fs = Rhodos_file.File_service
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let test_end_to_end_file_io () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws1" in
      Cluster.mkdir c "/home";
      let d = Cluster.create_file c "/home/notes.txt" in
      Cluster.write c d (Bytes.of_string "dear diary");
      check int "seek is at end" 10 (Cluster.lseek c d (`Cur 0));
      ignore (Cluster.lseek c d (`Set 0));
      check Alcotest.string "read back" "dear diary"
        (Bytes.to_string (Cluster.read c d 100));
      Cluster.close c d;
      (* Reopen by name from another client. *)
      let c2 = Cluster.add_client t ~name:"ws2" in
      let d2 = Cluster.open_file c2 "/home/notes.txt" in
      check Alcotest.string "visible across clients" "dear diary"
        (Bytes.to_string (Cluster.read c2 d2 100));
      Cluster.close c2 d2)

let test_descriptor_spaces () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file c "/f" in
      check bool "file descriptor > 100000" true (File_agent.is_file_descriptor d);
      let dev = Device_agent.open_device (Cluster.device_agent c) "console-out" in
      check bool "device descriptor < 100000" true
        (Device_agent.is_device_descriptor dev))

let test_stdio_and_redirection () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let env = Cluster.env c in
      check int "default stdin" 0 (Process_env.stdin env);
      check int "default stdout" 1 (Process_env.stdout env);
      check int "default stderr" 2 (Process_env.stderr env);
      Process_env.print env "to console";
      check Alcotest.string "console output" "to console"
        (Bytes.to_string (Device_agent.output_of (Cluster.device_agent c) "console-out"));
      (* Redirect stdout to a file: descriptor becomes 100001. *)
      Process_env.redirect_stdout env ~path:"/out.log";
      check int "redirected stdout" 100_001 (Process_env.stdout env);
      Process_env.print env "to file";
      File_agent.flush (Cluster.file_agent c);
      let d = Cluster.open_file c "/out.log" in
      check Alcotest.string "file got the output" "to file"
        (Bytes.to_string (Cluster.read c d 100));
      Cluster.close c d;
      (* stdin redirection feeds reads from the file. *)
      let din = Cluster.create_file c "/in.txt" in
      Cluster.write c din (Bytes.of_string "typed input");
      Cluster.close c din;
      Process_env.redirect_stdin env ~path:"/in.txt";
      check int "redirected stdin" 100_002 (Process_env.stdin env);
      check Alcotest.string "reads from file" "typed input"
        (Bytes.to_string (Process_env.read_line_stdin env 100)))

let test_device_io () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let da = Cluster.device_agent c in
      Device_agent.register_device da "com1";
      let d = Device_agent.open_device da "com1" in
      Device_agent.feed_input da "com1" (Bytes.of_string "ring");
      check Alcotest.string "read input" "ring"
        (Bytes.to_string (Device_agent.read da d 10));
      check Alcotest.string "empty now" ""
        (Bytes.to_string (Device_agent.read da d 10));
      Device_agent.write da d (Bytes.of_string "ATDT");
      check Alcotest.string "output captured" "ATDT"
        (Bytes.to_string (Device_agent.output_of da "com1")))

let test_client_cache_reduces_remote_reads () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file c "/data" in
      Cluster.write c d (Bytes.make 32768 'x');
      File_agent.flush (Cluster.file_agent c);
      (* First full read warms the agent cache; re-reads are local. *)
      ignore (Cluster.pread c d ~off:0 ~len:32768);
      let remote_before =
        Counter.get (File_agent.stats (Cluster.file_agent c)) "remote_reads"
      in
      for _ = 1 to 10 do
        ignore (Cluster.pread c d ~off:0 ~len:32768)
      done;
      let remote_after =
        Counter.get (File_agent.stats (Cluster.file_agent c)) "remote_reads"
      in
      check int "no further remote reads" remote_before remote_after;
      Cluster.close c d)

let cold_read_setup t ~len =
  let c = Cluster.add_client t ~name:"ws" in
  let payload = Bytes.init len (fun i -> Char.chr (i mod 251)) in
  let d = Cluster.create_file c "/cold" in
  Cluster.pwrite c d ~off:0 ~data:payload;
  File_agent.flush (Cluster.file_agent c);
  Fs.drop_caches (Cluster.file_service t);
  File_agent.invalidate_file (Cluster.file_agent c)
    ~file:(File_agent.descriptor_file (Cluster.file_agent c) d);
  (c, d, payload)

let test_cold_read_is_one_streamed_rpc () =
  Cluster.run (fun _sim t ->
      let c, d, payload = cold_read_setup t ~len:65536 in
      let before =
        Counter.get (File_agent.stats (Cluster.file_agent c)) "remote_reads"
      in
      let got = Cluster.pread c d ~off:0 ~len:65536 in
      check bool "data intact" true (Bytes.equal got payload);
      check int "8 cold blocks = 1 streamed range RPC" 1
        (Counter.get (File_agent.stats (Cluster.file_agent c)) "remote_reads"
        - before);
      Cluster.close c d)

let test_streamed_read_survives_message_loss () =
  Cluster.run (fun _sim t ->
      let c, d, payload = cold_read_setup t ~len:65536 in
      (* Lost chunks leave holes the agent must re-fetch with plain
         preads; lost RPCs are retried by the rpc layer. *)
      Cluster.set_message_loss t 0.2;
      let got = Cluster.pread c d ~off:0 ~len:65536 in
      Cluster.set_message_loss t 0.;
      check bool "data intact despite loss" true (Bytes.equal got payload);
      Cluster.close c d)

let test_transaction_agent_lifecycle () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let ta = Cluster.transaction_agent c in
      check bool "not running initially" false (Transaction_agent.is_running ta);
      let td = Transaction_agent.tbegin ta in
      check bool "running during txn" true (Transaction_agent.is_running ta);
      let d = Transaction_agent.tcreate ta td ~path:"/acct" in
      Transaction_agent.twrite ta td d (Bytes.of_string "100");
      Transaction_agent.tend ta td;
      Sim.sleep (Cluster.sim t) 1.;
      check bool "exits after last txn" false (Transaction_agent.is_running ta);
      check int "spawned once" 1 (Transaction_agent.spawn_count ta);
      (* A second transaction re-creates the agent process. *)
      let td2 = Transaction_agent.tbegin ta in
      check bool "running again" true (Transaction_agent.is_running ta);
      let d2 = Transaction_agent.topen ta td2 ~path:"/acct" in
      check Alcotest.string "committed data" "100"
        (Bytes.to_string (Transaction_agent.tread ta td2 d2 10));
      Transaction_agent.tend ta td2;
      Sim.sleep (Cluster.sim t) 1.;
      check int "spawned twice" 2 (Transaction_agent.spawn_count ta))

let test_with_transaction_abort_on_exception () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      ignore
        (Cluster.with_transaction c (fun ta td ->
             ignore (Transaction_agent.tcreate ta td ~path:"/seed");
             ()));
      (* Exception aborts: the file created inside must be undone. *)
      (try
         Cluster.with_transaction c (fun ta td ->
             ignore (Transaction_agent.tcreate ta td ~path:"/ghost");
             failwith "boom")
       with Failure _ -> ());
      (try
         ignore (Cluster.open_file c "/ghost");
         Alcotest.fail "ghost file should not resolve"
       with _ -> ());
      ignore (Cluster.open_file c "/seed"))

let test_abort_restores_names () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      (* tcreate then abort: the name must not dangle. *)
      (try
         Cluster.with_transaction c (fun ta td ->
             ignore (Transaction_agent.tcreate ta td ~path:"/phantom");
             failwith "abort")
       with Failure _ -> ());
      (try
         ignore (Cluster.open_file c "/phantom");
         Alcotest.fail "phantom name should be gone"
       with _ -> ());
      (* tdelete then abort: the name must come back. *)
      Cluster.with_transaction c (fun ta td ->
          let d = Transaction_agent.tcreate ta td ~path:"/keeper" in
          Transaction_agent.twrite ta td d (Bytes.of_string "keep"));
      (try
         Cluster.with_transaction c (fun ta td ->
             Transaction_agent.tdelete ta td ~path:"/keeper";
             failwith "abort")
       with Failure _ -> ());
      let d = Cluster.open_file c "/keeper" in
      check Alcotest.string "name and data restored" "keep"
        (Bytes.to_string (Cluster.read c d 10)))

let test_twin_rules () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let env = Cluster.env c in
      let child = Process_env.twin env in
      check int "child inherits stdout" (Process_env.stdout env)
        (Process_env.stdout child);
      let td = Process_env.begin_transaction env in
      (try
         ignore (Process_env.twin env);
         Alcotest.fail "expected Cannot_twin_with_transactions"
       with Process_env.Cannot_twin_with_transactions -> ());
      Process_env.end_transaction env td `Abort;
      ignore (Process_env.twin env))

let test_rpc_faults_tolerated () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.set_message_loss t 0.3;
      Cluster.set_message_duplication t 0.3;
      let d = Cluster.create_file c "/lossy" in
      Cluster.write c d (Bytes.make 10000 'l');
      File_agent.flush (Cluster.file_agent c);
      Cluster.set_message_loss t 0.;
      Cluster.set_message_duplication t 0.;
      let back = Cluster.pread c d ~off:0 ~len:10000 in
      check bool "data correct despite loss+dup" true
        (Bytes.equal back (Bytes.make 10000 'l'));
      check int "file size correct (no double-applied writes)" 10000
        (Fs.file_size (Cluster.file_service t) (Fs.id_of_int (File_agent.descriptor_file (Cluster.file_agent c) d))))

let test_client_crash_loses_dirty_cache () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file c "/work" in
      Cluster.write c d (Bytes.make 8192 'A');
      File_agent.flush (Cluster.file_agent c);
      ignore (Cluster.lseek c d (`Set 0));
      Cluster.write c d (Bytes.make 8192 'B') (* dirty, unflushed *);
      let lost = Cluster.crash_client t c in
      check bool "dirty block lost" true (lost >= 1);
      (* A rebooted client sees the flushed state. *)
      let c2 = Cluster.add_client t ~name:"ws-reborn" in
      let d2 = Cluster.open_file c2 "/work" in
      check bool "server kept the flushed version" true
        (Bytes.equal (Cluster.read c2 d2 8192) (Bytes.make 8192 'A')))

let test_server_crash_and_recovery () =
  Cluster.run (fun sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.mkdir c "/srv";
      let d = Cluster.create_file c "/srv/ledger" in
      Cluster.write c d (Bytes.of_string "committed-data");
      File_agent.flush (Cluster.file_agent c);
      Cluster.close c d;
      (* Also a committed transaction. *)
      Cluster.with_transaction c (fun ta td ->
          let fd = Transaction_agent.tcreate ta td ~path:"/srv/txfile" in
          Transaction_agent.twrite ta td fd (Bytes.of_string "tx-data"));
      let _lost = Cluster.crash_server t in
      let report = Cluster.recover_server t in
      ignore report;
      Sim.sleep sim 1.;
      (* The namespace, file data and transaction effects survive. *)
      let d2 = Cluster.open_file c "/srv/ledger" in
      check Alcotest.string "file data recovered" "committed-data"
        (Bytes.to_string (Cluster.read c d2 100));
      Cluster.close c d2;
      let d3 = Cluster.open_file c "/srv/txfile" in
      check Alcotest.string "transaction data recovered" "tx-data"
        (Bytes.to_string (Cluster.read c d3 100));
      Cluster.close c d3)

let raises_remote what ~expect f =
  match f () with
  | _ -> Alcotest.failf "%s: no exception" what
  | exception Cluster.Remote_failure k ->
    check bool what true (expect k)

(* A failed disk reaches the client as a storage fault, not as an
   anonymous failure. *)
let test_storage_fault_is_typed () =
  Cluster.run (fun _ t ->
      let c, d, _ = cold_read_setup t ~len:16384 in
      Array.iter
        (fun bs ->
          Rhodos_block.Block_service.flush_block bs ~pos:0
            ~fragments:(Rhodos_block.Block_service.total_fragments bs))
        (Cluster.block_services t);
      Array.iter Rhodos_disk.Disk.fail_unit (Cluster.disks t);
      raises_remote "storage fault"
        ~expect:(function Cluster.Storage_fault _ -> true | _ -> false)
        (fun () -> Cluster.pread c d ~off:0 ~len:16384))

let test_server_not_running_is_typed () =
  Cluster.run (fun _ t ->
      let c = Cluster.add_client t ~name:"ws" in
      ignore (Cluster.create_file c "/before");
      ignore (Cluster.crash_server t);
      raises_remote "server not running"
        ~expect:(function Cluster.Server_not_running -> true | _ -> false)
        (fun () -> Cluster.create_file c "/after"))

(* Growing and in-place writes on several files, then a server crash.
   Only a change of layout stores the FIT, so every size and byte must
   still come back as written, and the books must balance. The last
   growth of each file stays inside an allocated block: a store
   dropped there shows up as a short file. *)
let test_crash_after_mixed_writes () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let files =
        List.init 4 (fun i ->
            let d = Cluster.create_file c (Printf.sprintf "/mix%d" i) in
            let id = Fs.id_of_int (File_agent.descriptor_file (Cluster.file_agent c) d) in
            Cluster.close c d;
            (id, ref Bytes.empty))
      in
      let write i (id, model) ~off len =
        let data = Bytes.make len (Char.chr (65 + ((i + off) mod 26))) in
        Fs.pwrite (Cluster.file_service t) id ~off data;
        let m = Bytes.make (max (Bytes.length !model) (off + len)) '\000' in
        Bytes.blit !model 0 m 0 (Bytes.length !model);
        Bytes.blit data 0 m off len;
        model := m
      in
      let step f = List.iteri (fun i file -> f i file) files in
      step (fun i f -> write i f ~off:0 100);
      step (fun i f -> write i f ~off:100 8092);
      step (fun i f -> write i f ~off:(8192 + (1000 * i)) 5000);
      step (fun i f -> write i f ~off:0 8192);
      step (fun i f -> write i f ~off:3000 500);
      step (fun i f -> write i f ~off:(13192 + (1000 * i)) 100);
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      let fs = Cluster.file_service t in
      List.iter
        (fun (id, model) ->
          let size = Bytes.length !model in
          check int "size" size (Fs.file_size fs id);
          check bool "bytes" true (Bytes.equal !model (Fs.pread fs id ~off:0 ~len:size)))
        files;
      let report = Cluster.fsck t in
      check bool
        (Format.asprintf "books balance: %a" Rhodos_file.Fsck.pp_report report)
        true
        (Rhodos_file.Fsck.is_clean report))

(* A commit's Done is only staged when [tend] returns. A plain write
   or delete that follows must not let a recovery redo the commit over
   it: the server forces the staged Done first. *)
let test_plain_write_after_commit_survives_crash () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.with_transaction c (fun ta td ->
          let fd = Transaction_agent.tcreate ta td ~path:"/acct" in
          Transaction_agent.twrite ta td fd (Bytes.of_string "committed"));
      let d = Cluster.open_file c "/acct" in
      Cluster.pwrite c d ~off:0 ~data:(Bytes.of_string "overwrite");
      File_agent.flush (Cluster.file_agent c);
      Cluster.close c d;
      ignore (Cluster.crash_server t);
      let report = Cluster.recover_server t in
      check (Alcotest.list int) "nothing redone" [] report.Txn.redone_transactions;
      let d = Cluster.open_file c "/acct" in
      check Alcotest.string "newer write kept" "overwrite"
        (Bytes.to_string (Cluster.read c d 100));
      Cluster.close c d;
      let report = Cluster.fsck t in
      check bool (Format.asprintf "%a" Rhodos_file.Fsck.pp_report report) true
        (Rhodos_file.Fsck.is_clean report))

let test_reused_id_after_commit_survives_crash () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      Cluster.with_transaction c (fun ta td ->
          let fd = Transaction_agent.tcreate ta td ~path:"/old" in
          Transaction_agent.twrite ta td fd (Bytes.make 3000 'o'));
      let file_of d = File_agent.descriptor_file (Cluster.file_agent c) d in
      let d = Cluster.open_file c "/old" in
      let old_id = file_of d in
      Cluster.close c d;
      Cluster.delete c "/old";
      let d = Cluster.create_file c "/new" in
      check int "the new file reuses the id" old_id (file_of d);
      Cluster.write c d (Bytes.of_string "fresh");
      File_agent.flush (Cluster.file_agent c);
      Cluster.close c d;
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      let d = Cluster.open_file c "/new" in
      check Alcotest.string "new file intact" "fresh"
        (Bytes.to_string (Cluster.read c d 3000));
      Cluster.close c d;
      let report = Cluster.fsck t in
      check bool (Format.asprintf "%a" Rhodos_file.Fsck.pp_report report) true
        (Rhodos_file.Fsck.is_clean report))

(* A second crash right after recovery: the first attach has bumped
   the boot epoch and scanned only live pages, and the second must find
   everything the first left. *)
let test_crash_twice_in_a_row () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let acked =
        List.init 5 (fun i ->
            let path = Printf.sprintf "/twice%d" i in
            let data = Bytes.make (3000 * (i + 1)) (Char.chr (97 + i)) in
            let d = Cluster.create_file c path in
            Cluster.write c d data;
            File_agent.flush (Cluster.file_agent c);
            Cluster.close c d;
            (path, data))
      in
      Cluster.delete c "/twice2";
      let acked = List.filter (fun (path, _) -> path <> "/twice2") acked in
      Cluster.with_transaction c (fun ta td ->
          let fd = Transaction_agent.tcreate ta td ~path:"/twice-tx" in
          Transaction_agent.twrite ta td fd (Bytes.of_string "tx-data"));
      let acked = ("/twice-tx", Bytes.of_string "tx-data") :: acked in
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      let report = Cluster.fsck t in
      check bool
        (Format.asprintf "books balance: %a" Rhodos_file.Fsck.pp_report report)
        true
        (Rhodos_file.Fsck.is_clean report);
      List.iter
        (fun (path, data) ->
          let d = Cluster.open_file c path in
          check bool (path ^ " reads back") true
            (Bytes.equal data (Cluster.read c d (Bytes.length data + 1)));
          Cluster.close c d)
        acked)

let test_colocated_mode () =
  Cluster.run
    ~config:{ Cluster.default_config with Cluster.remote = false }
    (fun _sim t ->
      let c = Cluster.add_client t ~name:"local" in
      let d = Cluster.create_file c "/direct" in
      Cluster.write c d (Bytes.of_string "no network");
      ignore (Cluster.lseek c d (`Set 0));
      check Alcotest.string "direct calls work" "no network"
        (Bytes.to_string (Cluster.read c d 100)))

let test_transactions_from_two_clients_isolated () =
  Cluster.run (fun sim t ->
      let c1 = Cluster.add_client t ~name:"alice" in
      let c2 = Cluster.add_client t ~name:"bob" in
      Cluster.with_transaction c1 (fun ta td ->
          let d = Transaction_agent.tcreate ta td ~path:"/shared" in
          Transaction_agent.twrite ta td d (Bytes.of_string "00"));
      let outcomes = ref [] in
      let worker c name =
        ignore
          (Sim.spawn sim (fun () ->
               try
                 Cluster.with_transaction c (fun ta td ->
                     let d = Transaction_agent.topen ta td ~path:"/shared" in
                     let v =
                       int_of_string
                         (Bytes.to_string (Transaction_agent.tpread ta td d ~off:0 ~len:2))
                     in
                     Sim.sleep sim 2.;
                     Transaction_agent.tpwrite ta td d ~off:0
                       ~data:(Bytes.of_string (Printf.sprintf "%02d" (v + 1))));
                 outcomes := (name, true) :: !outcomes
               with Txn.Aborted _ -> outcomes := (name, false) :: !outcomes))
      in
      worker c1 "alice";
      worker c2 "bob";
      Sim.sleep sim 5000.;
      let commits = List.length (List.filter snd !outcomes) in
      check int "both attempts finished" 2 (List.length !outcomes);
      (* Serializable outcome: final value equals the commit count. *)
      let c3 = Cluster.add_client t ~name:"auditor" in
      let d = Cluster.open_file c3 "/shared" in
      let final = int_of_string (Bytes.to_string (Cluster.read c3 d 2)) in
      check int "final value = committed increments" commits final)

(* ------------------------------------------------------------------ *)
(* Multiple file servers                                               *)
(* ------------------------------------------------------------------ *)

let multi_config = { Cluster.default_config with Cluster.nservers = 3 }

let test_multiserver_files_spread () =
  Cluster.run ~config:multi_config (fun _sim t ->
      check int "three servers" 3 (Cluster.server_count t);
      let c = Cluster.add_client t ~name:"ws" in
      let descs =
        List.init 6 (fun i -> (i, Cluster.create_file c (Printf.sprintf "/f%d" i)))
      in
      (* Files must land on several distinct servers (round-robin). *)
      let servers =
        List.map
          (fun (_, d) ->
            File_agent.descriptor_file (Cluster.file_agent c) d lsr 48)
          descs
        |> List.sort_uniq compare
      in
      check int "all three servers used" 3 (List.length servers);
      (* Every file reads and writes transparently wherever it lives. *)
      List.iter
        (fun (i, d) ->
          Cluster.pwrite c d ~off:0 ~data:(Bytes.make 100 (Char.chr (65 + i))))
        descs;
      File_agent.flush (Cluster.file_agent c);
      List.iter
        (fun (i, d) ->
          check bool "content routed correctly" true
            (Bytes.equal (Cluster.pread c d ~off:0 ~len:100)
               (Bytes.make 100 (Char.chr (65 + i)))))
        descs)

let test_multiserver_reopen_by_name () =
  Cluster.run ~config:multi_config (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      (* Create enough files that some live off server 0, then reopen
         each by name from a different client: the naming service must
         hand back the right (server-tagged) system name. *)
      List.iter
        (fun i ->
          let d = Cluster.create_file c (Printf.sprintf "/n%d" i) in
          Cluster.write c d (Bytes.of_string (Printf.sprintf "content-%d" i));
          File_agent.flush (Cluster.file_agent c);
          Cluster.close c d)
        [ 0; 1; 2; 3; 4 ];
      let c2 = Cluster.add_client t ~name:"ws2" in
      List.iter
        (fun i ->
          let d = Cluster.open_file c2 (Printf.sprintf "/n%d" i) in
          check Alcotest.string "cross-client by name"
            (Printf.sprintf "content-%d" i)
            (Bytes.to_string (Cluster.read c2 d 100));
          Cluster.close c2 d)
        [ 0; 1; 2; 3; 4 ])

let test_multiserver_transactions () =
  Cluster.run ~config:multi_config (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      (* Several transactions in a row land on different servers and
         all commit correctly. *)
      List.iter
        (fun i ->
          Cluster.with_transaction c (fun ta td ->
              let fd = Transaction_agent.tcreate ta td ~path:(Printf.sprintf "/t%d" i) in
              Transaction_agent.twrite ta td fd (Bytes.of_string "tx")))
        [ 0; 1; 2; 3 ];
      List.iter
        (fun i ->
          let d = Cluster.open_file c (Printf.sprintf "/t%d" i) in
          check Alcotest.string "committed" "tx" (Bytes.to_string (Cluster.read c d 10)))
        [ 0; 1; 2; 3 ])

let test_multiserver_crash_recovery_and_fsck () =
  Cluster.run ~config:multi_config (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      List.iter
        (fun i ->
          Cluster.with_transaction c (fun ta td ->
              let fd =
                Transaction_agent.tcreate ta td ~path:(Printf.sprintf "/m%d" i)
              in
              Transaction_agent.twrite ta td fd
                (Bytes.of_string (Printf.sprintf "durable-%d" i))))
        [ 0; 1; 2; 3; 4; 5 ];
      ignore (Cluster.crash_server t);
      ignore (Cluster.recover_server t);
      (* Every file is back, wherever it lived. *)
      List.iter
        (fun i ->
          let d = Cluster.open_file c (Printf.sprintf "/m%d" i) in
          check Alcotest.string "recovered" (Printf.sprintf "durable-%d" i)
            (Bytes.to_string (Cluster.read c d 100));
          Cluster.close c d)
        [ 0; 1; 2; 3; 4; 5 ];
      let report = Cluster.fsck t in
      check bool
        (Format.asprintf "books balance: %a" Rhodos_file.Fsck.pp_report report)
        true
        (Rhodos_file.Fsck.is_clean report))

let test_multiserver_cross_server_txn_rejected () =
  (* A transaction is served by one file server; opening another
     server's file under it is rejected rather than half-supported
     (the paper describes no distributed commit protocol). *)
  Cluster.run ~config:multi_config (fun _sim t ->
      let c = Cluster.add_client t ~name:"ws" in
      let d = Cluster.create_file c "/solo" in
      Cluster.write c d (Bytes.of_string "x");
      File_agent.flush (Cluster.file_agent c);
      Cluster.close c d;
      (* Begin transactions until one lands on a different server than
         the file, then try to open the file under it. *)
      let ta = Cluster.transaction_agent c in
      let rejected = ref false and tried = ref 0 in
      (try
         while not !rejected && !tried < 6 do
           incr tried;
           let td = Transaction_agent.tbegin ta in
           (match Transaction_agent.topen ta td ~path:"/solo" with
           | _ -> Transaction_agent.tabort ta td
           | exception _ ->
             rejected := true;
             (try Transaction_agent.tabort ta td with _ -> ()))
         done
       with _ -> ());
      check bool "some attempt hit a foreign server and was rejected" true
        !rejected)

(* The strongest recovery property: crash the server at an arbitrary
   moment while transfer transactions are in flight, recover, and the
   total money is conserved — every transaction applied entirely or
   not at all, whatever the crash cut through (intentions logging, the
   commit flag, the apply phase). *)
let crash_anytime_conservation_prop =
  QCheck.Test.make ~name:"money conserved across a crash at any instant" ~count:6
    QCheck.(pair (int_range 1 10000) (float_range 50. 2500.))
    (fun (seed, crash_at) ->
      Cluster.run
        ~config:{ Cluster.default_config with Cluster.seed }
        (fun sim t ->
          let naccounts = 3 in
          let setup = Cluster.add_client t ~name:"setup" in
          Cluster.with_transaction setup (fun ta td ->
              for i = 0 to naccounts - 1 do
                let d =
                  Transaction_agent.tcreate ta td
                    ~path:(Printf.sprintf "/acct%d" i)
                in
                Transaction_agent.twrite ta td d (Bytes.of_string "00100")
              done);
          (* Transfer workers: move 1 unit at a time, retrying and
             swallowing every failure (timeouts during the outage). *)
          let rng = Rhodos_util.Rng.create seed in
          for w = 1 to 4 do
            let c = Cluster.add_client t ~name:(Printf.sprintf "w%d" w) in
            ignore
              (Sim.spawn sim (fun () ->
                   for _ = 1 to 6 do
                     (try
                        Cluster.with_transaction c (fun ta td ->
                            let src = Rhodos_util.Rng.int rng naccounts in
                            let dst = (src + 1) mod naccounts in
                            let ds =
                              Transaction_agent.topen ta td
                                ~path:(Printf.sprintf "/acct%d" src)
                            in
                            let dd =
                              Transaction_agent.topen ta td
                                ~path:(Printf.sprintf "/acct%d" dst)
                            in
                            let bal d =
                              int_of_string
                                (Bytes.to_string
                                   (Transaction_agent.tpread ta td d ~off:0 ~len:5))
                            in
                            let s = bal ds and dv = bal dd in
                            Sim.sleep sim (Rhodos_util.Rng.float rng 10.);
                            Transaction_agent.tpwrite ta td ds ~off:0
                              ~data:(Bytes.of_string (Printf.sprintf "%05d" (s - 1)));
                            Transaction_agent.tpwrite ta td dd ~off:0
                              ~data:(Bytes.of_string (Printf.sprintf "%05d" (dv + 1))))
                      with _ -> ());
                     Sim.sleep sim (Rhodos_util.Rng.float rng 20.)
                   done))
          done;
          (* The crash lands wherever [crash_at] falls. *)
          let crashed = ref false in
          Sim.schedule sim ~at:crash_at (fun () ->
              ignore (Cluster.crash_server t);
              crashed := true);
          Sim.sleep sim 4000. (* let workers drain/fail *);
          if not !crashed then ignore (Cluster.crash_server t);
          ignore (Cluster.recover_server t);
          Sim.sleep sim 10.;
          (* Audit through a fresh client. *)
          let auditor = Cluster.add_client t ~name:"audit" in
          let total = ref 0 in
          for i = 0 to naccounts - 1 do
            let d = Cluster.open_file auditor (Printf.sprintf "/acct%d" i) in
            total :=
              !total + int_of_string (Bytes.to_string (Cluster.read auditor d 5));
            Cluster.close auditor d
          done;
          !total = naccounts * 100))

(* An E15-shaped run (create and write a file, then a cold sequential
   scan through the whole stack — RPCs, disk events, cache fills,
   wakeups) is pinned to its run digest and dispatch count. The values
   are those of a file service that stores the FIT only on layout
   changes: the create's open writes nothing to disk. The file's FIT is
   the first stable copy outside the metadata chunk, so its store also
   writes the superblock's chunk map once. Any change to
   the dispatch order, or a disk write more or fewer, moves them; the
   event queue's same-time ring and the caches' data structures are
   implementation details that must not. *)
let test_e15_backend_digest_parity () =
  let d, n =
    Cluster.run (fun sim t ->
        let ws = Cluster.add_client t ~name:"ws" in
        let d = Cluster.create_file ws "/data" in
        let data = Bytes.make (64 * 1024) 'x' in
        Cluster.pwrite ws d ~off:0 ~data;
        File_agent.flush (Cluster.file_agent ws);
        Fs.drop_caches (Cluster.file_service t);
        File_agent.invalidate_file (Cluster.file_agent ws)
          ~file:(File_agent.descriptor_file (Cluster.file_agent ws) d);
        ignore (Cluster.lseek ws d (`Set 0));
        for _ = 1 to 8 do
          ignore (Cluster.read ws d (8 * 1024))
        done;
        (Sim.run_digest sim, Sim.events_dispatched sim))
  in
  check int "event count" 172 n;
  check int "digest" 575628545 d

(* A cold 512 KiB sequential scan in 8 KiB reads, the E15 scan shape.
   Returns the number of distinct tracks the file's blocks touch, how
   many blocks straddle a track boundary, and the main disk's stats
   for the scan alone. *)
let cold_scan t =
  let size = 512 * 1024 in
  let c, d, payload = cold_read_setup t ~len:size in
  let fs = Cluster.file_service t in
  let file = Fs.id_of_int (File_agent.descriptor_file (Cluster.file_agent c) d) in
  let disk = (Cluster.disks t).(0) in
  let g = Rhodos_disk.Disk.geometry disk in
  let sectors_per_frag = Rhodos_block.Block_service.fragment_bytes / g.sector_bytes in
  let block_sectors = 8192 / g.sector_bytes in
  let tracks = Hashtbl.create 32 and straddles = ref 0 in
  for block_index = 0 to (size / 8192) - 1 do
    match Fs.block_location fs file ~block_index with
    | Some (_, frag) ->
      let first = frag * sectors_per_frag / g.sectors_per_track in
      let last =
        ((frag * sectors_per_frag) + block_sectors - 1) / g.sectors_per_track
      in
      Hashtbl.replace tracks first ();
      Hashtbl.replace tracks last ();
      if last <> first then incr straddles
    | None -> Alcotest.fail "unmapped block"
  done;
  (* Locating the blocks loaded the FIT through the track cache. *)
  Array.iter
    (fun bs ->
      Rhodos_block.Block_service.flush_block bs ~pos:0
        ~fragments:(Rhodos_block.Block_service.total_fragments bs))
    (Cluster.block_services t);
  Rhodos_disk.Disk.reset_stats disk;
  ignore (Cluster.lseek c d (`Set 0));
  let got = Buffer.create size in
  for _ = 1 to size / 8192 do
    Buffer.add_bytes got (Cluster.read c d 8192)
  done;
  check bool "data intact" true (Bytes.equal (Buffer.to_bytes got) payload);
  (Hashtbl.length tracks, !straddles, Rhodos_disk.Disk.stats disk)

(* Read-ahead keeps several single-block fetches of one track in
   flight at once; they must share the track's disk reference, so the
   main disk reads each track the file touches once, plus once more for
   each block that straddles a track boundary (its miss may need a
   track that no read covers yet). *)
let test_cold_scan_reads_each_track_once () =
  Cluster.run (fun _sim t ->
      let tracks, straddles, stats = cold_scan t in
      let bound = tracks + straddles in
      if stats.reads > bound then
        Alcotest.failf "%d main-disk reads; bound %d (%d tracks + %d straddling blocks)"
          stats.reads bound tracks straddles)

(* A 2 KiB file laid out first moves the scanned file off track
   alignment, so some of its blocks straddle two tracks. A straddling
   block's miss must read only the tracks that are neither cached nor
   in flight: the disk then reads no more sectors than the tracks the
   file touches hold. *)
let test_straddling_scan_reads_only_missing_tracks () =
  Cluster.run (fun _sim t ->
      let c = Cluster.add_client t ~name:"spacer" in
      let d = Cluster.create_file c "/spacer" in
      Cluster.pwrite c d ~off:0 ~data:(Bytes.make 2048 's');
      Cluster.close c d;
      File_agent.flush (Cluster.file_agent c);
      let tracks, straddles, stats = cold_scan t in
      if straddles = 0 then Alcotest.fail "precondition: no block straddles a track";
      let spt = (Rhodos_disk.Disk.geometry (Cluster.disks t).(0)).sectors_per_track in
      let budget = tracks * spt in
      if stats.sectors_read > budget then
        Alcotest.failf "%d sectors read; budget %d (%d tracks of %d sectors)"
          stats.sectors_read budget tracks spt)

let () =
  Alcotest.run "rhodos_cluster"
    [
      ( "end to end",
        [
          Alcotest.test_case "file io" `Quick test_end_to_end_file_io;
          Alcotest.test_case "descriptor spaces" `Quick test_descriptor_spaces;
          Alcotest.test_case "stdio redirection" `Quick test_stdio_and_redirection;
          Alcotest.test_case "device io" `Quick test_device_io;
          Alcotest.test_case "colocated mode" `Quick test_colocated_mode;
          Alcotest.test_case "E15-shaped backend digest parity" `Quick
            test_e15_backend_digest_parity;
        ] );
      ( "caching",
        [
          Alcotest.test_case "client cache" `Quick test_client_cache_reduces_remote_reads;
          Alcotest.test_case "cold read = 1 streamed rpc" `Quick
            test_cold_read_is_one_streamed_rpc;
          Alcotest.test_case "streamed read under loss" `Quick
            test_streamed_read_survives_message_loss;
          Alcotest.test_case "cold scan reads each track once" `Quick
            test_cold_scan_reads_each_track_once;
          Alcotest.test_case "straddling scan reads only missing tracks" `Quick
            test_straddling_scan_reads_only_missing_tracks;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "agent lifecycle" `Quick test_transaction_agent_lifecycle;
          Alcotest.test_case "abort on exception" `Quick
            test_with_transaction_abort_on_exception;
          Alcotest.test_case "abort restores names" `Quick test_abort_restores_names;
          Alcotest.test_case "twin rules" `Quick test_twin_rules;
          Alcotest.test_case "two clients isolated" `Quick
            test_transactions_from_two_clients_isolated;
        ] );
      ( "failures",
        [
          Alcotest.test_case "rpc faults" `Quick test_rpc_faults_tolerated;
          Alcotest.test_case "client crash" `Quick test_client_crash_loses_dirty_cache;
          Alcotest.test_case "server crash + recovery" `Quick
            test_server_crash_and_recovery;
          Alcotest.test_case "storage fault is typed" `Quick test_storage_fault_is_typed;
          Alcotest.test_case "server not running is typed" `Quick
            test_server_not_running_is_typed;
          QCheck_alcotest.to_alcotest crash_anytime_conservation_prop;
          Alcotest.test_case "crash after mixed writes" `Quick
            test_crash_after_mixed_writes;
          Alcotest.test_case "crash twice in a row" `Quick test_crash_twice_in_a_row;
          Alcotest.test_case "plain write after commit" `Quick
            test_plain_write_after_commit_survives_crash;
          Alcotest.test_case "reused id after commit" `Quick
            test_reused_id_after_commit_survives_crash;
        ] );
      ( "multiple servers",
        [
          Alcotest.test_case "files spread" `Quick test_multiserver_files_spread;
          Alcotest.test_case "reopen by name" `Quick test_multiserver_reopen_by_name;
          Alcotest.test_case "transactions" `Quick test_multiserver_transactions;
          Alcotest.test_case "crash recovery + fsck" `Quick
            test_multiserver_crash_recovery_and_fsck;
          Alcotest.test_case "cross-server txn rejected" `Quick
            test_multiserver_cross_server_txn_rejected;
        ] );
    ]
