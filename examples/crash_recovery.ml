(* Reliability walk-through: stable storage, the intentions list and
   idempotent RPC in the face of server crashes, media decay and
   message duplication (paper sections 4, 6.6, 6.7, and 3).

   Run with: dune exec examples/crash_recovery.exe *)

module Cluster = Rhodos.Cluster
module Sim = Rhodos_sim.Sim
module Ta = Rhodos_agent.Transaction_agent
module Fa = Rhodos_agent.File_agent
module Disk = Rhodos_disk.Disk
module Txn = Rhodos_txn.Txn_service
module Metrics = Rhodos_obs.Metrics

let () =
  Cluster.run (fun sim t ->
      Printf.printf "RHODOS crash-recovery demonstration\n\n%!";
      let ws = Cluster.add_client t ~name:"ws" in

      (* 1. Commit a transaction, flush a plain file. *)
      Cluster.mkdir ws "/data";
      let d = Cluster.create_file ws "/data/journal" in
      Cluster.write ws d (Bytes.of_string "day 1: all quiet\n");
      Fa.flush (Cluster.file_agent ws);
      Cluster.close ws d;
      Cluster.with_transaction ws (fun ta td ->
          let fd = Ta.tcreate ta td ~path:"/data/ledger" in
          Ta.twrite ta td fd (Bytes.of_string "balance=42"));
      Printf.printf "committed a transaction and flushed a file\n";

      (* 2. Crash the server: every volatile structure is lost. *)
      let lost = Cluster.crash_server t in
      Printf.printf "server crashed (lost %d dirty cached blocks)\n" lost;

      (* 3. While it is down, decay a sector of the main disk under
         the metadata region: stable storage must cover for it. *)
      let disk = (Cluster.disks t).(0) in
      Disk.inject_media_fault disk ~sector:4 ~count:4;
      Printf.printf "injected media decay into the main disk's bitmap area\n";

      (* 4. Recover: stable storage is scanned only where structure
         lives (the chunks of 64 fragments that the superblock's chunk
         map marks as holding a stable copy), both mirrors at once,
         and torn or decayed copies are repaired; the bitmap is
         restored from its stable copy and the intentions list is
         read from its stable copy, a chunk per reference pair, up to
         the chunk holding its terminator, and replayed. *)
      let t0 = Sim.now sim in
      let report = Cluster.recover_server t in
      let block_counter name =
        List.fold_left
          (fun n (s : Metrics.sample) ->
            if String.ends_with ~suffix:("." ^ name) s.name then n + int_of_float s.value
            else n)
          0
          (Metrics.snapshot (Cluster.metrics t))
      in
      Printf.printf
        "recovered in %.1f simulated ms (%d stable pages scanned, %d read): %d transactions redone, %d discarded\n"
        (Sim.now sim -. t0)
        (block_counter "attach_pages_scanned")
        (block_counter "stable_pages_read")
        (List.length report.Txn.redone_transactions)
        (List.length report.Txn.discarded_transactions);

      (* 5. Everything committed is still there. *)
      let d = Cluster.open_file ws "/data/journal" in
      Printf.printf "journal: %s" (Bytes.to_string (Cluster.read ws d 100));
      Cluster.close ws d;
      let d = Cluster.open_file ws "/data/ledger" in
      Printf.printf "ledger: %s\n" (Bytes.to_string (Cluster.read ws d 100));
      Cluster.close ws d;

      (* 6. Idempotent operations: with every message duplicated, the
         same write is delivered repeatedly yet applied once. *)
      Cluster.set_message_duplication t 1.0;
      let d = Cluster.open_file ws "/data/journal" in
      ignore (Cluster.lseek ws d (`End 0));
      Cluster.write ws d (Bytes.of_string "day 2: duplicated packets\n");
      Fa.flush (Cluster.file_agent ws);
      Cluster.set_message_duplication t 0.;
      ignore (Cluster.lseek ws d (`Set 0));
      let all = Cluster.read ws d 200 in
      Printf.printf "\njournal after duplicated-message writes:\n%s"
        (Bytes.to_string all);
      assert (
        Bytes.to_string all = "day 1: all quiet\nday 2: duplicated packets\n");
      Cluster.close ws d;
      Printf.printf "\nsimulated time: %.1f ms\n" (Sim.now sim))
